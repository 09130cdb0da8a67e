package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// compactDen values for the two extremes of the compaction policy: purge on
// every dead entry (any dead count times this exceeds any heap these tests
// build) and never purge.
const (
	compactAlways = 1 << 20
	compactNever  = 0
)

// popTrace drives the kernel's token/queue machinery directly with a seeded
// mix of plain timers, blocking calls with a timeout (short ones fire first,
// long ones lose the race against the wake and stay dead in the heap, zero
// ones race the wake within one instant and leave the loser dead in the
// now-queue), wakes and pops, and returns the order in which the logical
// calls fired. Pops look at most 50 ticks ahead so the clock never jumps to
// the long deadlines. Every call gets its own Proc so the log is independent
// of how tokens are recycled.
func popTrace(t *testing.T, seed int64, den int) (log []string, peak int) {
	t.Helper()
	e := NewEnv(seed)
	e.compactDen = den
	r := rand.New(rand.NewSource(seed))
	calls := 0
	allocated := map[*wakeToken]bool{}
	newCall := func() *wakeToken {
		calls++
		tok := e.getToken(&Proc{env: e, name: fmt.Sprint("c", calls)})
		allocated[tok] = true
		return tok
	}
	pop := func(limit Time) bool {
		e.limit = limit
		p := e.next()
		if p == nil {
			return false
		}
		log = append(log, fmt.Sprintf("%s@%d", p.name, e.now))
		return true
	}
	var waiting []*wakeToken // registered in a "waiter list" (one ref each)
	deadInBoth := false
	for step := 0; step < 4000; step++ {
		switch r.Intn(7) {
		case 0: // Wait
			e.schedule(newCall(), e.now.Add(Duration(r.Intn(50))))
		case 1: // PopTimeout / WaitTimeout: waiter-list entry plus a timer
			tok := newCall()
			tok.refs++
			d := Duration(r.Intn(50))
			if r.Intn(4) > 0 {
				d += 100000
			}
			e.schedule(tok, e.now.Add(d))
			waiting = append(waiting, tok)
		case 2: // Push / Fire: wake a waiter now; its timer loses the race
			if len(waiting) == 0 {
				continue
			}
			i := r.Intn(len(waiting))
			tok := waiting[i]
			waiting = append(waiting[:i], waiting[i+1:]...)
			if !tok.spent {
				e.schedule(tok, e.now)
			}
			e.dropRef(tok)
		case 3: // WaitTimeout(0) and the Fire in the same instant
			tok := newCall()
			tok.refs++
			e.schedule(tok, e.now)
			e.schedule(tok, e.now)
			e.dropRef(tok)
		default:
			pop(e.now.Add(50))
		}
		if n := e.heap.len(); n > peak {
			peak = n
		}
		inHeap := 0
		for _, ev := range e.heap.a {
			if ev.tok.spent {
				inHeap++
			}
		}
		if inHeap > 0 && e.dead > inHeap { // the rest are in the now-queue
			deadInBoth = true
		}
	}
	if den == compactNever && !deadInBoth {
		t.Fatalf("seed %d: the now-queue and the heap never held dead entries at once", seed)
	}
	for pop(MaxTime) {
	}
	for _, tok := range waiting {
		e.dropRef(tok)
	}
	if e.pending() != 0 || e.dead != 0 {
		t.Fatalf("den=%d: drained queue holds %d entries, dead=%d", den, e.pending(), e.dead)
	}
	if len(e.tokFree) != len(allocated) {
		t.Fatalf("den=%d: %d tokens allocated, %d back in the pool", den, len(allocated), len(e.tokFree))
	}
	for _, tok := range e.tokFree {
		if tok.refs != 0 || tok.queued != 0 || !tok.spent || tok.p != nil || tok.task != nil {
			t.Fatalf("den=%d: pooled token %+v", den, *tok)
		}
	}
	return log, peak
}

// TestCompactionPreservesPopOrder: purging dead entries, from the heap and
// from inside the now-queue, never changes which event fires next — (t, seq)
// is a total order — and token registrations balance back to the pool
// whichever way the entries leave the queue.
func TestCompactionPreservesPopOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		want, peakNever := popTrace(t, seed, compactNever)
		for _, den := range []int{compactAlways, 2} {
			got, peak := popTrace(t, seed, den)
			if len(got) != len(want) {
				t.Fatalf("seed %d den %d: %d events fired, want %d", seed, den, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d den %d: event %d is %s, want %s", seed, den, i, got[i], want[i])
				}
			}
			if peak >= peakNever {
				t.Fatalf("seed %d den %d: heap peaked at %d entries, %d without compaction", seed, den, peak, peakNever)
			}
		}
	}
}

// TestLostTimeoutsDoNotAccumulate: a consumer whose long PopTimeout always
// loses against the producer leaves one dead timer per message; the heap
// must stay bounded instead of holding them until their deadline.
func TestLostTimeoutsDoNotAccumulate(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[int](env)
	peak := 0
	env.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 2000; i++ {
			if _, ok := q.PopTimeout(p, 3600*Second); !ok {
				t.Errorf("pop %d timed out", i)
			}
			if n := env.heap.len(); n > peak {
				peak = n
			}
		}
	})
	env.Spawn("producer", func(p *Proc) {
		for i := 0; i < 2000; i++ {
			p.Wait(Microsecond)
			q.Push(i)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if peak > 8 {
		t.Fatalf("heap peaked at %d entries with two live procs", peak)
	}
	if n := len(env.tokFree); n > 8 {
		t.Fatalf("token pool grew to %d for two procs: lost timeouts pin their tokens", n)
	}
}

// TestShutdownReleasesEveryCoroutine covers the four states a proc can be in
// when the environment is torn down: never started (fresh and reused from
// the pool), blocked, mid-body in a timed wait, and finished-and-pooled.
func TestShutdownReleasesEveryCoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv(1)
	never := NewEvent()
	unwound := 0
	env.Spawn("blocked", func(p *Proc) {
		defer func() { unwound++ }()
		never.Wait(p)
		t.Error("blocked proc resumed")
	})
	env.Spawn("mid-body", func(p *Proc) {
		defer func() { unwound++ }()
		p.Wait(Second)
		t.Error("mid-body proc ran past the limit")
	})
	for i := 0; i < 3; i++ {
		env.Spawn("finishes", func(p *Proc) { p.Wait(Microsecond) })
	}
	if err := env.RunUntil(Time(Millisecond)); err != nil {
		t.Fatal(err)
	}
	if len(env.procFree) != 3 {
		t.Fatalf("%d pooled procs, want 3", len(env.procFree))
	}
	// One reused from the pool, then enough to need a fresh coroutine.
	for i := 0; i < 4; i++ {
		env.Spawn("never-started", func(p *Proc) { t.Error("never-started proc ran") })
	}
	if len(env.procFree) != 0 || env.LiveProcs() != 6 {
		t.Fatalf("pooled=%d live=%d before shutdown", len(env.procFree), env.LiveProcs())
	}
	if runtime.NumGoroutine() <= before {
		t.Fatal("procs hold no goroutines; the test observes nothing")
	}
	env.Shutdown()
	if env.LiveProcs() != 0 {
		t.Fatalf("live=%d after shutdown", env.LiveProcs())
	}
	if unwound != 2 {
		t.Fatalf("%d parked bodies unwound their defers, want 2", unwound)
	}
	if got := runtime.NumGoroutine(); got != before {
		t.Fatalf("%d goroutines after shutdown, %d before NewEnv", got, before)
	}
}

// TestProcPanicSurfacesFromRun: a panic in a proc body that is not the
// kernel's own kill signal reaches the goroutine that called Run with its
// original value, where the caller can recover it (it used to take the
// process down from a detached goroutine).
func TestProcPanicSurfacesFromRun(t *testing.T) {
	type modelBug struct{ code int }
	for name, run := range map[string]func(*Env) error{
		"Run":      (*Env).Run,
		"RunUntil": func(e *Env) error { return e.RunUntil(Time(Second)) },
	} {
		env := NewEnv(1)
		env.Spawn("bystander", func(p *Proc) { p.Wait(Second) })
		env.Spawn("buggy", func(p *Proc) {
			p.Wait(Millisecond)
			panic(modelBug{42})
		})
		var got any
		func() {
			defer func() { got = recover() }()
			t.Errorf("%s returned %v instead of panicking", name, run(env))
		}()
		if got != (modelBug{42}) {
			t.Fatalf("%s: recovered %#v, want modelBug{42}", name, got)
		}
		env.Shutdown()
		if env.LiveProcs() != 0 {
			t.Fatalf("%s: live=%d after shutdown", name, env.LiveProcs())
		}
	}
}

// ringTrace runs a ring of partitions, each with procs that stay parked
// across barrier windows (queue waits, lost-race timeouts, timed waits), so
// with fewer workers than partitions a partition's coroutines are resumed by
// whichever worker goroutine is free in each window.
func ringTrace(t *testing.T, workers int) string {
	t.Helper()
	const parts, rounds = 8, 60
	g := NewGroup()
	envs := make([]*Env, parts)
	ids := make([]PartitionID, parts)
	for i := range envs {
		envs[i] = NewEnv(int64(i + 1))
		ids[i] = g.Add(fmt.Sprint("p", i), envs[i])
	}
	links := make([]*XLink, parts)
	for i := range links {
		links[i] = g.Connect(fmt.Sprint("l", i), ids[i], ids[(i+1)%parts], Duration(5+i)*Microsecond)
	}
	logs := make([][]string, parts)
	for i := range envs {
		i, env := i, envs[i]
		in, out := links[(i+parts-1)%parts], links[i]
		work := NewQueue[int](env)
		env.Spawn("rx", func(p *Proc) {
			for n := 0; n < rounds; n++ {
				work.Push(in.Recv(p).Payload.(int))
			}
		})
		env.Spawn("worker", func(p *Proc) {
			for n := 0; n < rounds; n++ {
				v, ok := work.PopTimeout(p, Second)
				logs[i] = append(logs[i], fmt.Sprintf("%d:%v@%v", v, ok, p.Now()))
				p.Wait(Duration(env.Rand().Intn(3000)))
			}
		})
		env.Spawn("tx", func(p *Proc) {
			for n := 0; n < rounds; n++ {
				p.Wait(Duration(1+env.Rand().Intn(20)) * Microsecond)
				out.Send(p, i*1000+n)
			}
		})
	}
	if err := g.Run(workers, MaxTime); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	var b strings.Builder
	for i, env := range envs {
		fmt.Fprintf(&b, "p%d events=%d now=%v %s\n", i, env.Events(), env.Now(), strings.Join(logs[i], " "))
	}
	g.Shutdown()
	return b.String()
}

// TestGroupResumesProcsFromAnyWorker is the cross-goroutine check for the
// coroutine kernel: identical results whether one goroutine resumes every
// proc or the partitions migrate between 2 or 4 workers from window to
// window. Meaningful under -race (make test-race).
func TestGroupResumesProcsFromAnyWorker(t *testing.T) {
	want := ringTrace(t, 1)
	for _, workers := range []int{2, 4} {
		if got := ringTrace(t, workers); got != want {
			t.Fatalf("workers=%d diverged:\n got %s\nwant %s", workers, got, want)
		}
	}
}

// TestQueueReleasesPoppedValues: a value that has left the queue must not
// stay reachable through the queue's backing array.
func TestQueueReleasesPoppedValues(t *testing.T) {
	type payload struct {
		data *[64]byte
	}
	env := NewEnv(1)
	q := NewQueue[*payload](env)
	freed := make(chan string, 2)
	push := func(name string) {
		v := &payload{data: new([64]byte)}
		runtime.SetFinalizer(v, func(*payload) { freed <- name })
		q.Push(v)
	}
	push("try-popped")
	push("popped")
	q.Push(&payload{}) // keeps the backing array in use
	if _, ok := q.TryPop(); !ok {
		t.Fatal("TryPop found nothing")
	}
	env.Spawn("popper", func(p *Proc) { q.Pop(p) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for want := 2; want > 0; {
		runtime.GC()
		select {
		case <-freed:
			want--
		case <-time.After(5 * time.Second):
			t.Fatalf("%d popped value(s) still reachable after GC", want)
		}
	}
	runtime.KeepAlive(q)
}

// TestSpawnIDNames: procs spawned with an id report the same strings the call
// sites used to format eagerly, and a pooled proc reused by a plain Spawn does
// not inherit them.
func TestSpawnIDNames(t *testing.T) {
	env := NewEnv(1)
	never := NewEvent()
	stuck := func(p *Proc) { never.Wait(p) }
	env.SpawnID("host-commit:", 42, func(p *Proc) {})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Spawn("plain", stuck) // reuses the pooled host-commit proc
	env.SpawnID("proxy-tx:", 7, stuck)
	de, ok := env.Run().(DeadlockError)
	if !ok {
		t.Fatal("want DeadlockError")
	}
	if got, want := strings.Join(de.Blocked, " "), "plain proxy-tx:7"; got != want {
		t.Fatalf("blocked = %q, want %q", got, want)
	}
	env.Shutdown()
}
