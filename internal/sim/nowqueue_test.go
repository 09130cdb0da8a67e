package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// TestNowQueuePopsInHeapOrder is the now-queue's contract as a property: over
// the seeded random programs of TestTaskReplacesWatcherProcOneForOne (procs,
// tasks, events, timeouts, semaphores, queues, cross-partition sends), the
// kernel as shipped logs the same (t, seq, owner) triples and fires the same
// number of events, at any worker count, as a kernel that pushes every event
// through the heap.
func TestNowQueuePopsInHeapOrder(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		wantLogs, wantEvents := taskProgram(t, seed, true, true, 1)
		for _, workers := range []int{1, 2, 4} {
			logs, events := taskProgram(t, seed, true, false, workers)
			if !reflect.DeepEqual(events, wantEvents) {
				t.Fatalf("seed=%d workers=%d: events per partition %v, %v through the heap alone",
					seed, workers, events, wantEvents)
			}
			for i := range wantLogs {
				if !reflect.DeepEqual(logs[i], wantLogs[i]) {
					t.Fatalf("seed=%d workers=%d partition %d: logs differ:\n got %q\nwant %q",
						seed, workers, i, logs[i], wantLogs[i])
				}
			}
		}
	}
}

// TestNowQueueYieldsToEarlierTimer: the one case in which the heap's top comes
// before the now-queue's front. Two timers are due at the same instant; the
// first to fire wakes a consumer and yields, both at that instant, and the
// second timer, drawn before either, still fires ahead of them. After that
// the now-queue drains in the order it was filled.
func TestNowQueueYieldsToEarlierTimer(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[string](env)
	var order []string
	env.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 2; i++ {
			order = append(order, q.Pop(p))
		}
	})
	for _, name := range []string{"first", "second"} {
		env.Spawn(name, func(p *Proc) {
			p.Wait(Millisecond)
			order = append(order, name)
			q.Push("woken by " + name)
			p.Yield()
			order = append(order, name+" again")
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"first", "second", "woken by first", "woken by second", "first again", "second again"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order %q\nwant  %q", order, want)
	}
}

// TestNowQueueSpentEntries: a zero timeout and the fire or push it races are
// two entries of one token in the now-queue, with a bystander's between them.
// The first to pop spends the token; the other sits dead inside the ring,
// counted, until the kernel skips it at the front or a compaction takes it
// out from behind the live entry. Shutdown then sweeps what tasks left there,
// and every token is back in the pool.
func TestNowQueueSpentEntries(t *testing.T) {
	type race struct {
		block func(p *Proc) bool // blocks with a zero timeout; reports whether it was granted
		grant func()
	}
	for name, build := range map[string]func(env *Env) race{
		"WaitTimeout": func(env *Env) race {
			var ev Event
			return race{func(p *Proc) bool { return ev.WaitTimeout(p, 0) }, ev.Fire}
		},
		"PopTimeout": func(env *Env) race {
			q := NewQueue[int](env)
			return race{func(p *Proc) bool { _, ok := q.PopTimeout(p, 0); return ok }, func() { q.Push(7) }}
		},
	} {
		for _, den := range []int{compactNever, compactAlways} {
			env := NewEnv(1)
			env.compactDen = den
			r := build(env)
			var order []string
			env.Spawn("waiter", func(p *Proc) {
				granted := r.block(p)
				order = append(order, fmt.Sprint("waiter:", granted))
				// The timer popped; the wake is dead behind the bystander.
				want := [3]int{2, 1, 0} // ring length, dead, compactions
				if den == compactAlways {
					want = [3]int{1, 0, 1}
				}
				if got := [3]int{env.nowq.len(), env.dead, int(env.stats.Compactions)}; got != want {
					t.Errorf("%s den=%d: ring, dead, compactions = %v, want %v", name, den, got, want)
				}
			})
			env.Spawn("granter", func(p *Proc) {
				env.Spawn("bystander", func(*Proc) { order = append(order, "bystander") })
				r.grant()
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
			// The wake was issued before the timer popped, so the waiter has
			// its result; the dead entry fired nothing.
			if want := []string{"waiter:true", "bystander"}; !reflect.DeepEqual(order, want) {
				t.Fatalf("%s den=%d: order %q, want %q", name, den, order, want)
			}
			st := env.Stats()
			if st.Events != 4 || st.NowQueued != 5 || st.HeapPeak != 0 || st.DeadPeak != 1 {
				t.Fatalf("%s den=%d: %+v: want 4 events fired of 5 in the now-queue, none in the heap", name, den, st)
			}
			if env.pending() != 0 || env.dead != 0 {
				t.Fatalf("%s den=%d: drained queue holds %d entries, dead=%d", name, den, env.pending(), env.dead)
			}

			var never Event
			env.After(&never, funcTask(func() { t.Error("dropped task ran") }))
			env.After(&never, funcTask(func() { t.Error("dropped task ran") }))
			tokens := len(env.tokFree) + len(env.tasks)
			if env.nowq.len() != 2 {
				t.Fatalf("%s den=%d: %d registration entries in the now-queue, want 2", name, den, env.nowq.len())
			}
			env.Shutdown()
			if env.pending() != 0 || env.dead != 0 || len(env.tokFree) != tokens {
				t.Fatalf("%s den=%d: after shutdown: queued=%d dead=%d, %d tokens pooled of %d",
					name, den, env.pending(), env.dead, len(env.tokFree), tokens)
			}
			for _, tok := range env.tokFree {
				if tok.refs != 0 || tok.queued != 0 || !tok.spent || tok.p != nil || tok.task != nil {
					t.Fatalf("%s den=%d: pooled token %+v", name, den, *tok)
				}
			}
		}
	}
}

// TestNowQueueDoesNotAllocate: two procs handing a value back and forth
// within one instant reuse the ring's slots; it is sized once and stays.
func TestNowQueueDoesNotAllocate(t *testing.T) {
	var env *Env
	allocs := steadyAllocs(t, func(e *Env) {
		env = e
		q, r := NewQueue[int](e), NewQueue[int](e)
		e.SpawnDaemon("echo", func(p *Proc) {
			for {
				r.Push(q.Pop(p))
			}
		})
		e.SpawnDaemon("driver", func(p *Proc) {
			for {
				for i := 0; i < 5; i++ {
					q.Push(i)
					r.Pop(p)
				}
				p.Wait(Microsecond)
			}
		})
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations per 100 cycles in steady state, want 0", allocs)
	}
	if st := env.Stats(); st.NowQueued < 10*st.Events/11 || len(env.nowq.buf) > 2 {
		t.Errorf("%d of %d events through a now-queue of %d slots: want ten in eleven through two",
			st.NowQueued, st.Events, len(env.nowq.buf))
	}
}

// TestNowQueueSeenBetweenWindows: the delivery proc a barrier spawns starts
// at its partition's current instant, so it waits in the now-queue; the next
// round's horizons must see it there.
func TestNowQueueSeenBetweenWindows(t *testing.T) {
	g := NewGroup()
	a, b := NewEnv(1), NewEnv(2)
	ab := g.Connect("a->b", g.Add("a", a), g.Add("b", b), 10*Microsecond)
	b.advanceTo(Time(Millisecond))
	if _, ok := b.NextEventTime(); ok {
		t.Fatal("an empty partition reports an event")
	}
	arrival := Time(Millisecond + 20*Microsecond)
	ab.staged = append(ab.staged, XMsg{At: arrival, Link: ab.id, Seq: 1, Payload: 7})
	g.deliver()
	if at, ok := b.NextEventTime(); !ok || at != Time(Millisecond) || b.heap.len() != 0 {
		t.Fatalf("next=%v ok=%v heap=%d: want the delivery proc's start at 0.001000s, outside the heap",
			at, ok, b.heap.len())
	}
	var got Time
	b.Spawn("rx", func(p *Proc) {
		ab.Recv(p)
		got = p.Now()
	})
	if err := g.Run(2, MaxTime); err != nil {
		t.Fatal(err)
	}
	if got != arrival {
		t.Fatalf("message received at %v, want %v", got, arrival)
	}
	g.Shutdown()
}
