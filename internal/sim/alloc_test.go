package sim

import (
	"runtime"
	"testing"
	"time"
)

// wide is a queue element the size of the messenger's work items: a blocked
// Pop that made its result slot escape would heap-allocate one per call.
type wide struct {
	seq uint64
	pad [15]uint64
}

// steadyAllocs builds a set of daemons on a fresh kernel, lets them run long
// enough to size every ring, heap and pool, and returns the allocations per
// further window of a hundred cycles. The windows end on a pending timer, so
// RunUntil itself never reaches the deadlock report.
func steadyAllocs(t *testing.T, build func(env *Env)) float64 {
	t.Helper()
	env := NewEnv(1)
	defer env.Shutdown()
	build(env)
	step := func() {
		if err := env.RunUntil(env.Now().Add(100 * Microsecond)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		step()
	}
	return testing.AllocsPerRun(20, step)
}

// eventCycle parks waiters procs on an event that a third proc fires and
// replaces with a fresh one every microsecond.
func eventCycle(env *Env, waiters int) {
	var ev Event
	for i := 0; i < waiters; i++ {
		env.SpawnDaemon("waiter", func(p *Proc) {
			for {
				ev.Wait(p)
			}
		})
	}
	env.SpawnDaemon("firer", func(p *Proc) {
		for {
			p.Wait(Microsecond)
			ev.Fire()
			ev = Event{}
		}
	})
}

func TestBlockingPrimitivesDoNotAllocate(t *testing.T) {
	cases := map[string]func(env *Env){
		"Queue.Pop woken by Push": func(env *Env) {
			q := NewQueue[wide](env)
			var got uint64
			env.SpawnDaemon("consumer", func(p *Proc) {
				for {
					got += q.Pop(p).seq
				}
			})
			env.SpawnDaemon("producer", func(p *Proc) {
				for i := uint64(0); ; i++ {
					p.Wait(Microsecond)
					q.Push(wide{seq: i})
				}
			})
		},
		"Queue.PopTimeout that expires": func(env *Env) {
			q := NewQueue[wide](env)
			env.SpawnDaemon("poller", func(p *Proc) {
				for {
					if _, ok := q.PopTimeout(p, Microsecond); ok {
						t.Error("nothing was pushed")
					}
				}
			})
		},
		"Queue buffered across ring wrap-around": func(env *Env) {
			q := NewQueue[wide](env)
			env.SpawnDaemon("burst", func(p *Proc) {
				for i := uint64(0); ; i++ {
					// Three in, three out of a four-slot ring: head moves by
					// three each cycle and wraps every other one.
					for k := uint64(0); k < 3; k++ {
						q.Push(wide{seq: 3*i + k})
					}
					for k := uint64(0); k < 3; k++ {
						if v, ok := q.TryPop(); !ok || v.seq != 3*i+k {
							t.Errorf("cycle %d: popped %d, %v", i, v.seq, ok)
						}
					}
					p.Wait(Microsecond)
				}
			})
		},
		"Event.Wait with one waiter":  func(env *Env) { eventCycle(env, 1) },
		"Event.Wait with two waiters": func(env *Env) { eventCycle(env, 2) },
		"Semaphore.Acquire contended": func(env *Env) {
			sem := NewSemaphore(env, 1)
			for i := 0; i < 3; i++ {
				env.SpawnDaemon("holder", func(p *Proc) {
					for {
						sem.Acquire(p, 1)
						p.Wait(Microsecond)
						sem.Release(1)
					}
				})
			}
		},
		"CPU.Exec contended": func(env *Env) {
			cpu := NewCPU(env, "c", 1, 1.0, 100)
			for i := 0; i < 3; i++ {
				th := NewThread("w", "work")
				env.SpawnDaemon("worker", func(p *Proc) {
					for {
						cpu.Exec(p, th, 1000)
					}
				})
			}
		},
	}
	for name, build := range cases {
		if allocs := steadyAllocs(t, build); allocs != 0 {
			t.Errorf("%s: %.1f allocations per 100 cycles in steady state, want 0", name, allocs)
		}
	}
}

// TestBlockedPopReleasesValue: a value handed to a blocked Pop travels
// through a recycled waiter node; once Pop has returned it, neither the node
// nor the waiter list may keep it reachable.
func TestBlockedPopReleasesValue(t *testing.T) {
	type payload struct{ data *[64]byte }
	env := NewEnv(1)
	q := NewQueue[*payload](env)
	freed := make(chan struct{}, 1)
	env.Spawn("popper", func(p *Proc) { q.Pop(p) })
	env.Spawn("pusher", func(p *Proc) {
		p.Wait(Microsecond)
		v := &payload{data: new([64]byte)}
		runtime.SetFinalizer(v, func(*payload) { freed <- struct{}{} })
		q.Push(v)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if q.free == nil {
		t.Fatal("the waiter node was not recycled")
	}
	for {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(q)
			return
		case <-time.After(5 * time.Second):
			t.Fatal("value still reachable after the blocked Pop returned it")
		}
	}
}
