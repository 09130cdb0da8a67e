package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// pingPong builds a two-partition group exchanging numbered messages and
// returns a fingerprint of everything observable: receive instants,
// payload order, event counts and final clocks.
func pingPong(t *testing.T, workers, rounds int) string {
	t.Helper()
	g := NewGroup()
	a := NewEnv(1)
	b := NewEnv(2)
	pa := g.Add("a", a)
	pb := g.Add("b", b)
	ab := g.Connect("a->b", pa, pb, 10*Microsecond)
	ba := g.Connect("b->a", pb, pa, 7*Microsecond)

	var log []string
	a.Spawn("pinger", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			p.Wait(3 * Microsecond)
			ab.Send(p, i)
			m := ba.Recv(p)
			log = append(log, fmt.Sprintf("a@%v got %v (link=%d seq=%d at=%v)", p.Now(), m.Payload, m.Link, m.Seq, m.At))
		}
	})
	b.Spawn("ponger", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			m := ab.Recv(p)
			if p.Now() != m.At {
				t.Errorf("delivery at %v, stamped %v", p.Now(), m.At)
			}
			log = append(log, fmt.Sprintf("b@%v got %v", p.Now(), m.Payload))
			ba.Send(p, m.Payload.(int)*10)
		}
	})
	if err := g.Run(workers, MaxTime); err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	fp := fmt.Sprintf("%s | events=%d,%d now=%v,%v delivered=%d rounds>0=%v",
		strings.Join(log, "; "), a.Events(), b.Events(), a.Now(), b.Now(),
		g.Stats().Delivered, g.Stats().Rounds > 0)
	g.Shutdown()
	return fp
}

func TestGroupPingPongDeterministicAcrossWorkers(t *testing.T) {
	want := pingPong(t, 1, 20)
	if !strings.Contains(want, "b@0.000013s got 0") {
		t.Fatalf("first delivery missing or mistimed: %s", want)
	}
	for _, workers := range []int{2, 4, 8} {
		if got := pingPong(t, workers, 20); got != want {
			t.Fatalf("workers=%d diverged:\n got %s\nwant %s", workers, got, want)
		}
	}
	// Run-twice determinism at the same worker count.
	if got := pingPong(t, 2, 20); got != pingPong(t, 2, 20) {
		t.Fatal("same-config reruns diverged")
	}
}

func TestGroupTieBreakByLinkThenSeq(t *testing.T) {
	g := NewGroup()
	a := NewEnv(1)
	b := NewEnv(2)
	c := NewEnv(3)
	pa, pb, pc := g.Add("a", a), g.Add("b", b), g.Add("c", c)
	// Two links into c with latencies arranged so messages sent at the
	// same relative offsets collide at the same arrival instant.
	ac := g.Connect("a->c", pa, pc, 10*Microsecond)
	bc := g.Connect("b->c", pb, pc, 10*Microsecond)

	a.Spawn("sa", func(p *Proc) {
		ac.Send(p, "a0")
		ac.Send(p, "a1") // same instant, same link: seq breaks the tie
	})
	b.Spawn("sb", func(p *Proc) {
		bc.Send(p, "b0") // same instant, higher link id: delivered after a's
	})
	// All three messages arrive at the same instant. The kernel delivers
	// them in (arrival, link, seq) order, so parked receivers wake in that
	// order too — observable through the shared log.
	var got []string
	c.Spawn("rc-a", func(p *Proc) {
		for i := 0; i < 2; i++ {
			m := ac.Recv(p)
			got = append(got, fmt.Sprintf("%v@%v", m.Payload, p.Now()))
		}
	})
	c.Spawn("rc-b", func(p *Proc) {
		m := bc.Recv(p)
		got = append(got, fmt.Sprintf("%v@%v", m.Payload, p.Now()))
	})
	if err := g.Run(2, MaxTime); err != nil {
		t.Fatal(err)
	}
	want := []string{"a0@0.000010s", "a1@0.000010s", "b0@0.000010s"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	g.Shutdown()
}

func TestGroupRunUntilLimitAlignsClocks(t *testing.T) {
	g := NewGroup()
	a := NewEnv(1)
	b := NewEnv(2)
	pa, pb := g.Add("a", a), g.Add("b", b)
	g.Connect("a->b", pa, pb, Microsecond)
	a.SpawnDaemon("ticker", func(p *Proc) {
		for {
			p.Wait(Millisecond)
		}
	})
	if err := g.Run(2, Time(10*Millisecond)+Time(500*Microsecond)); err != nil {
		t.Fatal(err)
	}
	if a.Now() != Time(10*Millisecond)+Time(500*Microsecond) || b.Now() != a.Now() {
		t.Fatalf("clocks not aligned to limit: a=%v b=%v", a.Now(), b.Now())
	}
	g.Shutdown()
}

func TestGroupDeadlockReportsPerPartitionState(t *testing.T) {
	g := NewGroup()
	a := NewEnv(1)
	b := NewEnv(2)
	pa, pb := g.Add("racks", a), g.Add("coord", b)
	ab := g.Connect("up", pa, pb, Microsecond)
	q := NewQueue[int](a)
	a.Spawn("stuck-pop", func(p *Proc) {
		q.Pop(p) // never pushed
	})
	a.SpawnDaemon("idle-daemon", func(p *Proc) {
		q.Pop(p)
	})
	// A message that is delivered but never consumed must show up as
	// pending on the destination partition.
	a.Spawn("oneshot", func(p *Proc) {
		ab.Send(p, 99)
	})
	err := g.Run(1, MaxTime)
	de, ok := err.(DeadlockError)
	if !ok {
		t.Fatalf("err=%v, want DeadlockError", err)
	}
	if len(de.Partitions) != 2 {
		t.Fatalf("partitions=%d, want 2", len(de.Partitions))
	}
	if got := de.Blocked; len(got) != 1 || got[0] != "racks/stuck-pop" {
		t.Fatalf("blocked=%v", got)
	}
	racks := de.Partitions[0]
	if racks.Name != "racks" || len(racks.Parked) != 1 || racks.Parked[0] != "stuck-pop" || racks.Daemons != 1 {
		t.Fatalf("racks state=%+v", racks)
	}
	coord := de.Partitions[1]
	if coord.Name != "coord" || coord.Pending != 1 {
		t.Fatalf("coord state=%+v", coord)
	}
	for _, frag := range []string{"partition racks", "stuck-pop", "pending-msgs=1", "daemons=1"} {
		if !strings.Contains(de.Error(), frag) {
			t.Fatalf("error %q missing %q", de.Error(), frag)
		}
	}
	g.Shutdown()
}

func TestSerialDeadlockKeepsLegacyShape(t *testing.T) {
	env := NewEnv(1)
	ev := NewEvent()
	env.Spawn("stuck", func(p *Proc) { ev.Wait(p) })
	err := env.Run()
	de, ok := err.(DeadlockError)
	if !ok {
		t.Fatalf("err=%v", err)
	}
	if len(de.Partitions) != 1 || de.Partitions[0].Name != "env" {
		t.Fatalf("partitions=%+v", de.Partitions)
	}
	if !strings.Contains(de.Error(), "1 proc(s) blocked forever: stuck") {
		t.Fatalf("legacy message changed: %q", de.Error())
	}
	env.Shutdown()
}

func TestGroupPanicsOnZeroLookahead(t *testing.T) {
	g := NewGroup()
	pa := g.Add("a", NewEnv(1))
	pb := g.Add("b", NewEnv(2))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero-latency link")
		}
	}()
	g.Connect("bad", pa, pb, 0)
}

func TestGroupSendOutsideSourcePanics(t *testing.T) {
	g := NewGroup()
	a := NewEnv(1)
	b := NewEnv(2)
	pa, pb := g.Add("a", a), g.Add("b", b)
	l := g.Connect("a->b", pa, pb, Microsecond)
	caught := false
	b.Spawn("wrong", func(p *Proc) {
		defer func() {
			if recover() != nil {
				caught = true
			}
		}()
		l.Send(p, 1)
	})
	if err := g.Run(1, MaxTime); err != nil {
		t.Fatal(err)
	}
	if !caught {
		t.Fatal("Send from wrong partition did not panic")
	}
	g.Shutdown()
}

func TestGroupHorizonsAllowFarAheadExecution(t *testing.T) {
	// Partition a has dense microsecond work; b only wakes every 10ms. The
	// horizon of a is bounded by b's sparse events plus the path latency,
	// so a must complete in far fewer rounds than events.
	g := NewGroup()
	a := NewEnv(1)
	b := NewEnv(2)
	pa, pb := g.Add("a", a), g.Add("b", b)
	g.Connect("b->a", pb, pa, 50*Microsecond)
	steps := 0
	a.Spawn("dense", func(p *Proc) {
		for i := 0; i < 5000; i++ {
			p.Wait(Microsecond)
			steps++
		}
	})
	b.Spawn("sparse", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Wait(10 * Millisecond)
		}
	})
	if err := g.Run(2, MaxTime); err != nil {
		t.Fatal(err)
	}
	if steps != 5000 {
		t.Fatalf("steps=%d", steps)
	}
	if r := g.Stats().Rounds; r > 100 {
		t.Fatalf("rounds=%d, lookahead windows are degenerate", r)
	}
	g.Shutdown()
}

func TestNextEventTimeSkipsSpentTokens(t *testing.T) {
	env := NewEnv(1)
	q := NewQueue[int](env)
	env.Spawn("w", func(p *Proc) {
		// A timed-out pop leaves a spent token in the heap.
		if _, ok := q.PopTimeout(p, Microsecond); ok {
			t.Error("unexpected value")
		}
		p.Wait(Millisecond)
	})
	if err := env.RunUntil(Time(2 * Microsecond)); err != nil {
		t.Fatal(err)
	}
	at, ok := env.NextEventTime()
	if !ok || at != Time(Microsecond)+Time(Millisecond) {
		t.Fatalf("next=%v ok=%v", at, ok)
	}
	env.Shutdown()
}
