package sim

import (
	"reflect"
	"testing"
)

// TestNowQueuePopsInHeapOrder is the contract of the kernel's shortcuts as a
// property: over the seeded random programs of
// TestTaskReplacesWatcherProcOneForOne (procs, tasks, events, timeouts,
// semaphores, queues, cross-partition sends), in both of their forms, the
// kernel as shipped logs the same (t, seq, owner) triples and fires the same
// number of events, at any worker count, as the classic loop: every event
// through the heap, every Wait parked, every finished body back to runWindow.
// Each event is consumed the same way too, except that a hand-off stands in
// for a resume.
func TestNowQueuePopsInHeapOrder(t *testing.T) {
	var handoffs uint64
	for seed := int64(1); seed <= 16; seed++ {
		for _, useTasks := range []bool{true, false} {
			wantLogs, want := taskProgram(t, seed, useTasks, true, 1)
			for _, workers := range []int{1, 2, 4} {
				logs, stats := taskProgram(t, seed, useTasks, false, workers)
				if events, wantEvents := eventCounts(stats), eventCounts(want); !reflect.DeepEqual(events, wantEvents) {
					t.Fatalf("seed=%d tasks=%v workers=%d: events per partition %v, %v in the classic loop",
						seed, useTasks, workers, events, wantEvents)
				}
				for i := range wantLogs {
					if !reflect.DeepEqual(logs[i], wantLogs[i]) {
						t.Fatalf("seed=%d tasks=%v workers=%d partition %d: logs differ:\n got %q\nwant %q",
							seed, useTasks, workers, i, logs[i], wantLogs[i])
					}
					if err := sameWork(want[i], stats[i]); err != "" {
						t.Fatalf("seed=%d tasks=%v workers=%d partition %d: %s", seed, useTasks, workers, i, err)
					}
					handoffs += stats[i].Handoffs
				}
			}
		}
	}
	if handoffs == 0 {
		t.Fatal("no body was handed off: the programs never took the shortcut")
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
