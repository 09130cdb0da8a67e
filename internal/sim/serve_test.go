package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// serveMode is the form a program's threads take.
type serveMode int

const (
	// asDaemons is the reference: one parked proc per thread, popping.
	asDaemons serveMode = iota
	// asIdentities registers each thread with Serve where its daemon would
	// reach its first Pop: at construction, or — for the gated ones — when the
	// gate opens, in index order.
	asIdentities
	// earlyIdentities is trap 1 of DESIGN.md's kernel rule: the gated threads
	// too are registered at construction and wait for the gate in their body.
	earlyIdentities
)

// servedThread is one thread of a serve program.
type servedThread struct {
	th    *Thread
	queue int
	gated bool
}

type servePush struct {
	after Duration
	queue int
}

// serveRun is what a serve program did: the (t, thread, item) log of the
// bodies, the event count, the number of threads and how many gated ones
// found their queue empty when the gate opened.
type serveRun struct {
	log                  []string
	events               uint64
	threads, emptyAtGate int
}

// serveProgram builds the seeded random program — 1-3 queues, 1-4 threads
// over them (some gated, like tp_osd_tp behind its OSD's ready event), a
// two-core CPU the bodies contend for, and producers pushing on a 1us grid,
// before and after the gate, often at the same instant — and runs it to
// completion.
func serveProgram(t *testing.T, seed int64, mode serveMode) (run serveRun) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	env := NewEnv(seed)
	defer env.Shutdown()
	cpu := NewCPU(env, "c", 2, 1.0, 0)
	run.threads = 1 + rng.Intn(4)
	queues := make([]*Queue[int], 1+rng.Intn(min(3, run.threads)))
	for i := range queues {
		queues[i] = NewQueue[int](env)
	}
	threads := make([]servedThread, run.threads)
	for i := range threads {
		// Every queue gets a thread; queue 0 is the gated shard set's.
		q := i % len(queues)
		if i >= len(queues) {
			q = rng.Intn(len(queues))
		}
		threads[i] = servedThread{th: NewThread(fmt.Sprint("th", i), "t"), queue: q, gated: rng.Intn(2) == 0}
	}
	// The gate opens off the producers' grid: an identity has no start event,
	// so a push at the very instant of its registration is the one case that
	// draws its sequence number elsewhere.
	gateAt := Duration(rng.Intn(30))*Microsecond + 500*Nanosecond
	var gate Event
	body := func(p *Proc, item int) {
		run.log = append(run.log, fmt.Sprintf("%v/%s/%d", env.Now(), p.Thread().Name, item))
		d := Duration(1+rng.Intn(8)) * Microsecond
		if item%2 == 0 {
			p.Wait(d)
		} else {
			cpu.Exec(p, p.Thread(), int64(d))
		}
		if item < 1000 && item%3 == 0 {
			queues[item%len(queues)].Push(item + 1000) // one stage feeding another
		}
	}
	daemon := func(th servedThread) {
		env.SpawnDaemon(th.th.Name, func(p *Proc) {
			p.SetThread(th.th)
			if th.gated {
				gate.Wait(p)
			}
			for {
				body(p, queues[th.queue].Pop(p))
			}
		})
	}
	for _, th := range threads {
		switch {
		case mode == asDaemons:
			daemon(th)
		case !th.gated:
			queues[th.queue].Serve(th.th.Name, th.th, body)
		case mode == earlyIdentities:
			queues[th.queue].Serve(th.th.Name, th.th, func(p *Proc, item int) {
				gate.Wait(p)
				body(p, item)
			})
		}
	}
	env.Spawn("gatekeeper", func(p *Proc) {
		p.Wait(gateAt)
		for _, th := range threads {
			if !th.gated {
				continue
			}
			if queues[th.queue].Len() == 0 {
				run.emptyAtGate++
			}
			if mode == asIdentities {
				queues[th.queue].Serve(th.th.Name, th.th, body)
			}
		}
		gate.Fire()
	})
	item := 0
	for k := 2 + rng.Intn(3); k > 0; k-- {
		pushes := make([]servePush, 6+rng.Intn(10))
		for i := range pushes {
			pushes[i] = servePush{Duration(rng.Intn(12)) * Microsecond, rng.Intn(len(queues))}
		}
		first := item
		item += len(pushes)
		env.Spawn("producer", func(p *Proc) {
			for i, push := range pushes {
				p.Wait(push.after)
				queues[push.queue].Push(first + i)
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatalf("seed=%d mode=%d: %v", seed, mode, err)
	}
	if left, live := env.Backlog(), env.LiveProcs(); mode != asDaemons && (left != nil || live != 0) {
		t.Fatalf("seed=%d mode=%d: values waiting on %v and %d procs live after the run", seed, mode, left, live)
	}
	run.events = env.Events()
	return run
}

// TestServeReplacesPoppingDaemonOneForOne is the rule as a property: over
// seeded random programs, turning every `for { body(p, q.Pop(p)) }` daemon
// into an identity on its queue changes nothing in the (t, thread, item) log
// of the bodies, and takes out of the event count exactly the start event of
// every daemon plus the gate wake-up of those that found nothing to do.
func TestServeReplacesPoppingDaemonOneForOne(t *testing.T) {
	early := 0
	for seed := int64(1); seed <= 16; seed++ {
		want := serveProgram(t, seed, asDaemons)
		if len(want.log) < 12 {
			t.Fatalf("seed=%d: only %d log entries; the program did nothing", seed, len(want.log))
		}
		got := serveProgram(t, seed, asIdentities)
		if !reflect.DeepEqual(got.log, want.log) {
			t.Fatalf("seed=%d: logs differ:\n got %q\nwant %q", seed, got.log, want.log)
		}
		if gone := want.events - got.events; gone != uint64(want.threads+want.emptyAtGate) {
			t.Fatalf("seed=%d: %d events fewer, want %d start events + %d gate wake-ups",
				seed, gone, want.threads, want.emptyAtGate)
		}
		if mutant := serveProgram(t, seed, earlyIdentities); !reflect.DeepEqual(mutant.log, want.log) {
			early++
		}
	}
	if early == 0 {
		t.Fatal("registering gated identities at construction went unnoticed on all 16 seeds")
	}
	t.Logf("gated identities registered at construction: caught on %d of 16 seeds", early)
}

// TestServeDoesNotAllocate: push, start, body, idle — on a warm pool an
// identity's turn allocates nothing, as a woken Pop does not.
func TestServeDoesNotAllocate(t *testing.T) {
	var got uint64
	var env *Env
	allocs := steadyAllocs(t, func(e *Env) {
		env = e
		q := NewQueue[wide](e)
		q.Serve("consumer", NewThread("consumer", "t"), func(p *Proc, v wide) { got += v.seq })
		e.SpawnDaemon("producer", func(p *Proc) {
			for i := uint64(0); ; i++ {
				p.Wait(Microsecond)
				q.Push(wide{seq: i})
			}
		})
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations per 100 cycles in steady state, want 0", allocs)
	}
	if st := env.Stats(); got == 0 || st.CoroutinesPeak != 2 || st.Spawns < 1000 {
		t.Errorf("sum %d, stats %+v: want ~3000 spawns on two coroutines", got, st)
	}
}

// TestServedQueueRules: a starved served queue is named in the deadlock
// report; Pop on a served queue panics; Shutdown with an identity parked in
// its body and values still buffered releases every goroutine.
func TestServedQueueRules(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv(1)
	q := NewQueue[int](env)
	var never Event
	q.Serve("stuck-server", nil, func(p *Proc, _ int) { never.Wait(p) })
	env.Spawn("client", func(p *Proc) {
		q.Push(1)
		q.Push(2)
		q.Push(3)
		never.Wait(p)
	})
	err := env.Run()
	de, ok := err.(DeadlockError)
	if !ok || len(de.Partitions) != 1 || !reflect.DeepEqual(de.Partitions[0].Starved, []string{"stuck-server(2)"}) ||
		de.Partitions[0].Daemons != 1 || !strings.Contains(err.Error(), "starved queues: stuck-server(2)") {
		t.Fatalf("err = %v: want a deadlock naming stuck-server(2) as starved, one daemon parked", err)
	}
	env.Spawn("popper", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Pop on a served queue did not panic")
			}
		}()
		q.Pop(p)
	})
	if err := env.Run(); err == nil {
		t.Fatal("the second run lost the deadlock")
	}
	env.Shutdown()
	if live, got := env.LiveProcs(), runtime.NumGoroutine(); live != 0 || got != before {
		t.Fatalf("after Shutdown: %d procs live, %d goroutines (%d before NewEnv)", live, got, before)
	}
}
