package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// eventCounts projects per-partition counters onto their event counts.
func eventCounts(stats []EnvStats) []uint64 {
	out := make([]uint64, len(stats))
	for i, st := range stats {
		out[i] = st.Events
	}
	return out
}

// sameWork compares the counters of a run as shipped with those of the same
// program in the classic loop: the same events fired and the same ones were
// consumed without a switch or by a task, and every hand-off stands in for a
// resume from the scheduler. It returns what differs, or "".
func sameWork(classic, shipped EnvStats) string {
	if classic.Events != shipped.Events || classic.FastPath != shipped.FastPath ||
		classic.TaskRuns != shipped.TaskRuns || classic.Handoffs != 0 ||
		classic.Switches != shipped.Switches+2*shipped.Handoffs {
		return fmt.Sprintf("counters %+v, classic loop %+v", shipped, classic)
	}
	return ""
}

// TestWaitInPlaceYieldsOnTie: a timed wait due at the same instant as an
// earlier-scheduled event fires after it, as its heap entry would have, and
// one due strictly first fires in place.
func TestWaitInPlaceYieldsOnTie(t *testing.T) {
	for _, heapOnly := range []bool{false, true} {
		env := NewEnv(1)
		env.heapOnly = heapOnly
		var order []string
		env.Spawn("early", func(p *Proc) {
			p.Wait(10 * Microsecond) // drawn first: its entry is in the heap
			order = append(order, fmt.Sprint("early@", p.Now()))
		})
		env.Spawn("late", func(p *Proc) {
			p.Wait(4 * Microsecond) // strictly first: in place
			order = append(order, fmt.Sprint("late@", p.Now()))
			p.Wait(6 * Microsecond) // due with early's, drawn after it
			order = append(order, fmt.Sprint("late@", p.Now()))
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		want := []string{"late@0.000004s", "early@0.000010s", "late@0.000010s"}
		if !reflect.DeepEqual(order, want) {
			t.Fatalf("heapOnly=%v: order %q, want %q", heapOnly, order, want)
		}
		// Two start events and three wake-ups. The first wait of late found
		// early's start queued, so it parked; the second fired in place.
		st := env.Stats()
		if st.Events != 5 || st.FastPath != 1 {
			t.Fatalf("heapOnly=%v: %+v: want 5 events, one fast-path wake", heapOnly, st)
		}
	}
}

// TestSleeperParkedAtRunLimit: a wait that ends past the run limit does not
// fire, in place or otherwise; the clock stops at the limit and the proc is
// still parked. A wait so long that now+d overflows ends at MaxTime instead
// of wrapping around to the past, for Wait and for a PopTimeout alike.
func TestSleeperParkedAtRunLimit(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[int](env)
	woke := map[string]Time{}
	sleep := map[string]func(p *Proc){
		"huge-wait":  func(p *Proc) { p.Wait(Duration(MaxTime)) },
		"huge-pop":   func(p *Proc) { q.PopTimeout(p, Duration(MaxTime)) },
		"past-limit": func(p *Proc) { p.Wait(2 * Second) },
	}
	for i, name := range []string{"huge-wait", "huge-pop", "past-limit"} {
		// Off zero, so that now+MaxTime overflows. The last sleeper's wait is
		// the earliest live event when it starts: a shortcut candidate.
		start := Millisecond + Duration(i/2)*Millisecond
		env.Spawn(name, func(p *Proc) {
			p.Wait(start)
			sleep[name](p)
			woke[name] = p.Now()
		})
	}
	if err := env.RunUntil(Time(Second)); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 0 || env.Now() != Time(Second) || env.LiveProcs() != 3 {
		t.Fatalf("after RunUntil(1s): woke %v, now %v, %d procs live: want all three parked at 1s",
			woke, env.Now(), env.LiveProcs())
	}
	if err := env.RunUntil(Time(3 * Second)); err != nil {
		t.Fatal(err)
	}
	if want := map[string]Time{"past-limit": Time(2*Second + 2*Millisecond)}; !reflect.DeepEqual(woke, want) {
		t.Fatalf("after RunUntil(3s): woke %v, want %v", woke, want)
	}
	if got := Time(5).Add(Duration(MaxTime)); got != MaxTime {
		t.Fatalf("Time(5).Add(MaxTime) = %d, want MaxTime", got)
	}
	env.Shutdown()
}

// TestHandoffRunsNextBodyOnSameCoroutine: a body that ends when the next event
// starts a fresh proc runs that proc's body on its own coroutine — one
// resume from the scheduler for a chain of three bodies, and a pool of one
// coroutine for each proc not started yet, made when it was spawned.
func TestHandoffRunsNextBodyOnSameCoroutine(t *testing.T) {
	for _, heapOnly := range []bool{false, true} {
		env := NewEnv(1)
		env.heapOnly = heapOnly
		var order []string
		leaf := func(p *Proc) { order = append(order, p.Name()) }
		env.Spawn("root", func(p *Proc) {
			order = append(order, p.Name())
			env.Spawn("child", func(p *Proc) {
				order = append(order, p.Name())
				env.Spawn("leaf", leaf)
			})
		})
		if made := env.Stats().CoroutinesPeak; made != 1 {
			t.Fatalf("heapOnly=%v: %d coroutines for one spawned proc", heapOnly, made)
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		if want := []string{"root", "child", "leaf"}; !reflect.DeepEqual(order, want) {
			t.Fatalf("heapOnly=%v: order %q, want %q", heapOnly, order, want)
		}
		// A proc's start is queued as the proc itself: no token.
		want := EnvStats{Events: 3, Switches: 2, Handoffs: 2, NowQueued: 3, Spawns: 3, CoroutinesPeak: 2}
		if heapOnly {
			want = EnvStats{Events: 3, Switches: 6, HeapPeak: 1, Spawns: 3, CoroutinesPeak: 2}
		}
		if st := env.Stats(); st != want {
			t.Fatalf("heapOnly=%v: stats %+v, want %+v", heapOnly, st, want)
		}
		if len(env.coroFree) != 2 || env.unstarted != 0 {
			t.Fatalf("heapOnly=%v: %d pooled coroutines, %d unstarted procs", heapOnly, len(env.coroFree), env.unstarted)
		}
		env.Shutdown()
	}
}
