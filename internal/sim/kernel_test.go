package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestTimeoutsPopInModelOrder drives the kernel's token machinery directly,
// each call a continuation that resumes a parked proc of its own, with a
// seeded mix of plain timers, blocking calls with a timeout (short ones
// fire first, long ones lose the race against the wake, which takes them out
// of the deadline heap, zero ones race the wake within one instant and
// deliver it themselves), wakes and pops. Every pop is checked against a
// model: one sorted set of the (t, seq) each waiting call fires at — its
// timer, its deadline, or its wake-up if that beat the deadline. Pops look at
// most 50 ticks ahead so the clock never jumps to the long deadlines. After
// every step the queues hold no dead entry (queueFault), and once drained
// every token is back in the pool.
func TestTimeoutsPopInModelOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		e := NewEnv(seed)
		r := rand.New(rand.NewSource(seed))
		model := map[*Proc]when{}
		newCall := func() (*wakeToken, *Proc) {
			p := &Proc{env: e, name: fmt.Sprint("c", e.stats.Tokens+1), state: stateBlocked}
			return e.continuation(p), p
		}
		pop := func(limit Time) bool {
			var want *Proc
			for p, k := range model {
				if k.t <= limit && (want == nil || k.before(model[want])) {
					want = p
				}
			}
			e.limit = limit
			p := e.next()
			if p != want || p != nil && e.now != model[p].t {
				t.Fatalf("seed %d: popped %v at %v, want %v at %v", seed, p, e.now, want, model[want].t)
			}
			delete(model, p)
			return p != nil
		}
		var waiting []*wakeToken // registered in a "waiter list" (one ref each)
		for step := 0; step < 4000; step++ {
			switch r.Intn(7) {
			case 0: // a timer
				tok, p := newCall()
				at := e.now.Add(Duration(r.Intn(50)))
				e.schedule(tok, at)
				model[p] = when{at, e.seq}
			case 1: // PopTimeout / WaitTimeout: waiter-list entry plus a deadline
				tok, p := newCall()
				tok.refs++
				d := Duration(r.Intn(50))
				if r.Intn(4) > 0 {
					d += 100000
				}
				e.timeout(tok, d)
				model[p] = when{e.now.Add(d), e.seq}
				waiting = append(waiting, tok)
			case 2: // Push / Fire: wake a waiter now
				if len(waiting) == 0 {
					continue
				}
				i := r.Intn(len(waiting))
				tok := waiting[i]
				waiting = append(waiting[:i], waiting[i+1:]...)
				if !tok.spent {
					p := tok.task.run.(*Proc)
					e.grant(tok)
					if model[p].t > e.now { // the deadline was ahead: the wake-up fires
						model[p] = when{e.now, e.seq}
					}
				}
				e.dropRef(tok)
			case 3: // WaitTimeout(0) and the Fire in the same instant
				tok, p := newCall()
				tok.refs++
				e.timeout(tok, 0)
				model[p] = when{e.now, e.seq}
				e.grant(tok)
				e.dropRef(tok)
			default:
				pop(e.now.Add(50))
			}
			if fault := queueFault(e); fault != "" {
				t.Fatalf("seed %d step %d: %s", seed, step, fault)
			}
		}
		for pop(MaxTime) {
		}
		for _, tok := range waiting {
			e.dropRef(tok)
		}
		if e.pending() != 0 || len(model) != 0 {
			t.Fatalf("seed %d: drained queue holds %d entries, the model %d", seed, e.pending(), len(model))
		}
		if len(e.tokFree) != e.tokMade {
			t.Fatalf("seed %d: %d tokens allocated, %d back in the pool", seed, e.tokMade, len(e.tokFree))
		}
		for _, tok := range e.tokFree {
			if tok.refs != 0 || tok.dl != 0 || !tok.spent || tok.task != nil {
				t.Fatalf("seed %d: pooled token %+v", seed, *tok)
			}
		}
		if st := e.Stats(); st.Cancelled == 0 || st.Cancelled == st.Deadlines {
			t.Fatalf("seed %d: %+v: no deadline cancelled, or none fired", seed, st)
		}
	}
}

// TestLostTimeoutsDoNotAccumulate: a consumer whose long PopTimeout always
// loses against the producer registers one deadline per message; each must
// leave at the push instead of being held until it is due.
func TestLostTimeoutsDoNotAccumulate(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[int](env)
	peak := 0
	env.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 2000; i++ {
			if _, ok := q.PopTimeout(p, 3600*Second); !ok {
				t.Errorf("pop %d timed out", i)
			}
			if n := env.heap.len() + len(env.deadlines.a); n > peak {
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
	if st := env.Stats(); peak > 8 || st.DeadlinePeak != 1 || st.Cancelled != 2000 {
		t.Fatalf("heaps peaked at %d entries with two live procs; %+v", peak, st)
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
	// Three reuse the pooled procs, whose coroutines wait in the pool, and
	// the fourth needs a fresh proc and a fresh coroutine; none of them owns
	// a coroutine before it starts.
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
	// The Env's own count agrees, the fresh coroutine never resumed included.
	if st := env.Stats(); st.CoroutinesEnded != st.CoroutinesPeak {
		t.Fatalf("%d of %d coroutines counted as ended", st.CoroutinesEnded, st.CoroutinesPeak)
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

// TestProcPanicOnStrayRun: running a proc (Proc.Run) that is not parked in
// Suspend, or a second time before it resumed, is a wiring bug, and the panic
// names the proc — the first from the proc's own body, the second from the
// task that ran it twice, surfacing from Run.
func TestProcPanicOnStrayRun(t *testing.T) {
	recovered := func(f func()) (r any) {
		defer func() { r = recover() }()
		f()
		return nil
	}
	env := NewEnv(1)
	env.Spawn("runner", func(p *Proc) {
		if r := recovered(p.Run); !strings.Contains(fmt.Sprint(r), "runner") {
			t.Errorf("running a proc that is not suspended: recovered %v", r)
		}
		env.Delay(Microsecond, funcTask(func() { p.Run(); p.Run() }))
		p.Suspend()
		t.Error("resumed by a task that ran it twice")
	})
	if r := recovered(func() { env.Run() }); !strings.Contains(fmt.Sprint(r), "runner") {
		t.Fatalf("a task that runs a suspended proc twice: recovered %v", r)
	}
	env.Shutdown()
}

// TestShutdownUnwindsSuspendedProc: a proc suspended on a chain that never
// completes — an Event.WaitThen on an event nobody fires — is parked like
// any blocked proc: the deadlock report and Busy name it, and Shutdown
// unwinds its body and releases its goroutine.
func TestShutdownUnwindsSuspendedProc(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv(1)
	var never Event
	unwound := false
	env.Spawn("awaiter", func(p *Proc) {
		defer func() { unwound = true }()
		if never.WaitThen(env, p) {
			p.Suspend()
		}
		t.Error("suspended proc resumed")
	})
	var dl DeadlockError
	if err := env.Run(); !errors.As(err, &dl) || !slices.Contains(dl.Blocked, "awaiter") {
		t.Fatalf("Run = %v, want a deadlock naming the awaiter", err)
	}
	if busy := env.Busy(); !slices.Contains(busy, "awaiter") {
		t.Fatalf("Busy = %q, want the awaiter listed", busy)
	}
	env.Shutdown()
	if !unwound || env.LiveProcs() != 0 || runtime.NumGoroutine() != before {
		t.Fatalf("after Shutdown: unwound=%v live=%d, %d goroutines (%d before)",
			unwound, env.LiveProcs(), runtime.NumGoroutine(), before)
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
