package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// listed counts the entries of a waiter list.
func listed(l *waitList) int {
	n := len(l.more)
	for _, tok := range l.inline {
		if tok != nil {
			n++
		}
	}
	return n
}

// TestDeadlineLeavesAtTheWake runs each timed wait — Event.WaitTimeout, its
// task form WaitTimeoutThen and Queue.PopTimeout — through its three
// outcomes, in the kernel as shipped and in the classic loop. Fired early:
// the wake-up takes the deadline out of its heap at once. Fired at the
// deadline instant (a 10 µs deadline, or a zero one raced within the
// instant): the deadline, drawn first, stays and delivers the wake-up, which
// still draws its sequence number, so the waiter resumes at the same
// (t, seq) as one whose deadline lost. Timed out: the deadline fires, and
// the spent waiter-list entry goes at the Fire or Push. Every case fires
// four events: two starts, the granter's wake-up and the waiter's.
func TestDeadlineLeavesAtTheWake(t *testing.T) {
	type timedWait struct {
		// register starts the wait from p's body; done gets its outcome.
		register func(p *Proc, done func(granted bool))
		grant    func()
		listed   func() int
	}
	forms := []struct {
		name  string
		build func(env *Env, d Duration) timedWait
	}{
		{"WaitTimeout", func(env *Env, d Duration) timedWait {
			ev := new(Event)
			return timedWait{func(p *Proc, done func(bool)) { done(ev.WaitTimeout(p, d)) },
				ev.Fire, func() int { return listed(&ev.waiters) }}
		}},
		{"WaitTimeoutThen", func(env *Env, d Duration) timedWait {
			ev := new(Event)
			return timedWait{func(p *Proc, done func(bool)) {
				if !ev.WaitTimeoutThen(env, d, funcTask(func() { done(ev.Fired()) })) {
					t.Error("a timed wait for an unfired event did not queue")
				}
			}, ev.Fire, func() int { return listed(&ev.waiters) }}
		}},
		{"PopTimeout", func(env *Env, d Duration) timedWait {
			q := NewQueue[int](env)
			return timedWait{func(p *Proc, done func(bool)) { _, ok := q.PopTimeout(p, d); done(ok) },
				func() { q.Push(1) }, func() int {
					n := 0
					for w := q.head; w != nil; w = w.next {
						n++
					}
					return n
				}}
		}},
	}
	for _, outcome := range []struct {
		name       string
		d, grantAt Duration
		want       string
	}{
		{"early", 10 * Microsecond, 4 * Microsecond, "true@4000/5"},
		{"at the deadline", 10 * Microsecond, 10 * Microsecond, "true@10000/5"},
		{"zero, within the instant", 0, 0, "true@0/5"},
		{"timed out", 10 * Microsecond, 20 * Microsecond, "false@10000/4"},
	} {
		for _, form := range forms {
			for _, heapOnly := range []bool{false, true} {
				name := fmt.Sprintf("%s %s heapOnly=%v", form.name, outcome.name, heapOnly)
				env := NewEnv(1)
				env.heapOnly = heapOnly
				w := form.build(env, outcome.d)
				var log []string
				env.Spawn("granter", func(p *Proc) {
					p.Wait(outcome.grantAt)
					w.grant()
					st := env.Stats()
					got := [4]int{len(env.deadlines.a), int(st.Cancelled), w.listed(), env.tokMade - len(env.tokFree)}
					// Left after the wake: the deadline, cancellations, the
					// waiter's list entry, tokens out of the pool (the
					// deadline's is the waiter's continuation's).
					want := map[string][4]int{
						"early":                    {0, 1, 0, 0}, // the waiter's wake-up is queued as itself
						"at the deadline":          {1, 0, 0, 1},
						"zero, within the instant": {1, 0, 0, 1},
						"timed out":                {0, 0, 0, 0},
					}[outcome.name]
					if got != want {
						t.Errorf("%s: after the wake: deadlines, cancelled, listed, tokens out = %v, want %v", name, got, want)
					}
				})
				env.Spawn("waiter", func(p *Proc) {
					w.register(p, func(granted bool) {
						log = append(log, fmt.Sprintf("%v@%d/%d", granted, env.now, env.seq))
					})
				})
				if err := env.Run(); err != nil {
					t.Fatal(err)
				}
				if st := env.Stats(); !reflect.DeepEqual(log, []string{outcome.want}) || st.Events != 4 || st.Deadlines != 1 {
					t.Fatalf("%s: log %q, %+v: want %q in four events, one deadline", name, log, st, outcome.want)
				}
				if env.pending() != 0 || len(env.tokFree) != env.tokMade {
					t.Fatalf("%s: %d entries left, %d tokens of %d pooled", name, env.pending(), len(env.tokFree), env.tokMade)
				}
			}
		}
	}
}

// TestWaitInPlaceYieldsToDeadline: a Proc.Wait fires in place only when its
// wake-up comes strictly before every pending deadline too. Due at a
// deadline's instant (the deadline drawn first) or after it, the wait parks
// and fires after the deadline; with no deadline pending it fires in place.
func TestWaitInPlaceYieldsToDeadline(t *testing.T) {
	for _, heapOnly := range []bool{false, true} {
		env := NewEnv(1)
		env.heapOnly = heapOnly
		var ev Event
		var order []string
		env.Spawn("timed", func(p *Proc) {
			for i := 0; i < 2; i++ {
				ev.WaitTimeout(p, 10*Microsecond)
				order = append(order, fmt.Sprint("timed@", p.Now()))
			}
		})
		env.Spawn("sleeper", func(p *Proc) {
			p.Wait(Microsecond)     // before the deadline: in place
			p.Wait(9 * Microsecond) // at the deadline's instant, drawn after it
			order = append(order, fmt.Sprint("sleeper@", p.Now()))
			p.Wait(11 * Microsecond) // past the next deadline
			order = append(order, fmt.Sprint("sleeper@", p.Now()))
			p.Wait(Microsecond) // nothing pending: in place
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		want := []string{"timed@0.000010s", "sleeper@0.000010s", "timed@0.000020s", "sleeper@0.000021s"}
		if !reflect.DeepEqual(order, want) {
			t.Fatalf("heapOnly=%v: order %q, want %q", heapOnly, order, want)
		}
		if st := env.Stats(); st.Events != 8 || !heapOnly && st.FastPath != 2 {
			t.Fatalf("heapOnly=%v: %+v: want 8 events, two waits fired in place", heapOnly, st)
		}
	}
}

// TestNextEventTimeSeesDeadline: an Env whose only entry is a deadline
// reports it as its next event, and a Group whose only work is that timeout
// runs it at its instant instead of stopping early with the proc parked.
func TestNextEventTimeSeesDeadline(t *testing.T) {
	env := NewEnv(1)
	var never Event
	var woke []Time
	timed := func(p *Proc) {
		if never.WaitTimeout(p, Millisecond) {
			t.Error("an event nobody fires fired")
		}
		woke = append(woke, p.Now())
	}
	env.Spawn("timed", timed)
	if err := env.RunUntil(Time(Microsecond)); err != nil {
		t.Fatal(err)
	}
	if at, ok := env.NextEventTime(); !ok || at != Time(Millisecond) || env.heap.len() != 0 || env.nowq.len() != 0 {
		t.Fatalf("next=%v ok=%v, heap %d, now-queue %d: want the deadline at 0.001000s alone",
			at, ok, env.heap.len(), env.nowq.len())
	}
	env.Shutdown()

	g := NewGroup()
	a, b := NewEnv(1), NewEnv(2)
	g.Connect("a->b", g.Add("a", a), g.Add("b", b), 10*Microsecond)
	a.Spawn("timed", timed)
	if err := g.Run(2, MaxTime); err != nil {
		t.Fatal(err)
	}
	if want := []Time{Time(Millisecond)}; !reflect.DeepEqual(woke, want) {
		t.Fatalf("the timeout woke at %v, want %v", woke, want)
	}
	g.Shutdown()
}
