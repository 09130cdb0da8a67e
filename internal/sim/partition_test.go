package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
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
		// A timed-out pop leaves a spent token in the queue's waiter list.
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

// echoPair builds A<=>B over 10us links: A runs dense 1us local work and a
// ticker that sends a numbered message every period, holding the link until
// its next tick for the first held ticks only; B is idle except for echoing
// each message straight back. It returns both partitions' receive logs and
// the barrier rounds the run took.
func echoPair(t *testing.T, workers, ticks, held int, period Duration) (log string, rounds uint64) {
	t.Helper()
	g := NewGroup()
	a, b := NewEnv(1), NewEnv(2)
	pa, pb := g.Add("a", a), g.Add("b", b)
	ab := g.Connect("a->b", pa, pb, 10*Microsecond)
	ba := g.Connect("b->a", pb, pa, 10*Microsecond)
	end := Time(0).Add(Duration(ticks)*period + 50*Microsecond)
	var gotA, gotB []string
	a.Spawn("dense", func(p *Proc) {
		for p.Now() < end {
			p.Wait(Microsecond)
		}
	})
	a.Spawn("ticker", func(p *Proc) {
		for i := 0; i < ticks; i++ {
			if i < held {
				ab.Hold(p.Now().Add(period))
			}
			p.Wait(period)
			ab.Send(p, i)
		}
	})
	a.SpawnDaemon("rx", func(p *Proc) {
		for {
			m := ba.Recv(p)
			gotA = append(gotA, fmt.Sprintf("%v@%v", m.Payload, p.Now()))
		}
	})
	b.SpawnDaemon("echo", func(p *Proc) {
		for {
			m := ab.Recv(p)
			gotB = append(gotB, fmt.Sprintf("%v@%v", m.Payload, p.Now()))
			ba.Send(p, m.Payload)
		}
	})
	if err := g.Run(workers, MaxTime); err != nil {
		t.Fatalf("workers=%d held=%d: %v", workers, held, err)
	}
	g.Shutdown()
	return strings.Join(gotA, " ") + " | " + strings.Join(gotB, " "), g.Stats().Rounds
}

// TestGroupSelfRoundTripIsCausal: a partition's own send can come back to
// it, so the cycle through its peers bounds its horizon even while every
// peer is idle. A sends at 50us, B echoes, and A — busy with 1us local
// steps the whole time — must see the echo at 50+10+10us, not whenever its
// unbounded window happens to end.
func TestGroupSelfRoundTripIsCausal(t *testing.T) {
	for _, workers := range []int{1, 2} {
		log, _ := echoPair(t, workers, 1, 0, 50*Microsecond)
		if want := "0@0.000070s | 0@0.000060s"; log != want {
			t.Fatalf("workers=%d: got %q, want %q", workers, log, want)
		}
	}
}

// TestGroupExpiredPromiseBoundsNothing: a sender that stops holding falls
// back to the next-event bound — the same deliveries at the same instants,
// bought with more barrier rounds.
func TestGroupExpiredPromiseBoundsNothing(t *testing.T) {
	const ticks = 20
	always, rAlways := echoPair(t, 2, ticks, ticks, Millisecond)
	half, rHalf := echoPair(t, 2, ticks, ticks/2, Millisecond)
	never, rNever := echoPair(t, 2, ticks, 0, Millisecond)
	if half != always || never != always {
		t.Fatalf("promises changed the deliveries:\n always %s\n half   %s\n never  %s", always, half, never)
	}
	if !(rAlways*10 < rHalf && rHalf*3 < rNever*2 && rNever < rHalf*3) {
		t.Fatalf("rounds always=%d half=%d never=%d: want always << half ~ never/2", rAlways, rHalf, rNever)
	}
}

// recoverGroupPanic runs a two-partition group whose a-side proc is body and
// returns the panic message body raised ("" when it did not panic).
func recoverGroupPanic(t *testing.T, body func(p *Proc, ab *XLink)) (msg string) {
	t.Helper()
	g := NewGroup()
	a, b := NewEnv(1), NewEnv(2)
	ab := g.Connect("a->b", g.Add("a", a), g.Add("b", b), 10*Microsecond)
	a.Spawn("sender", func(p *Proc) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		body(p, ab)
	})
	if err := g.Run(1, MaxTime); err != nil {
		t.Fatal(err)
	}
	g.Shutdown()
	return msg
}

func TestGroupSendBeforeHoldPanics(t *testing.T) {
	msg := recoverGroupPanic(t, func(p *Proc, ab *XLink) {
		ab.Hold(p.Now().Add(Millisecond))
		p.Wait(Millisecond - 1)
		ab.Send(p, "early")
	})
	if !strings.Contains(msg, `link "a->b"`) || !strings.Contains(msg, "Hold") {
		t.Fatalf("panic %q does not name the link and its promise", msg)
	}
	// At the held instant itself the send is legal.
	if msg := recoverGroupPanic(t, func(p *Proc, ab *XLink) {
		ab.Hold(p.Now().Add(Millisecond))
		p.Wait(Millisecond)
		ab.Send(p, "on time")
	}); msg != "" {
		t.Fatalf("send at the held instant panicked: %s", msg)
	}
}

func TestGroupHoldShrinkPanics(t *testing.T) {
	msg := recoverGroupPanic(t, func(p *Proc, ab *XLink) {
		ab.Hold(p.Now().Add(Millisecond))
		p.Wait(Microsecond)
		ab.Hold(p.Now().Add(10 * Microsecond))
	})
	if !strings.Contains(msg, `link "a->b"`) || !strings.Contains(msg, "shrinks") {
		t.Fatalf("panic %q does not name the link and the shrink", msg)
	}
	// Extending an unexpired promise and replacing an expired one are legal.
	if msg := recoverGroupPanic(t, func(p *Proc, ab *XLink) {
		ab.Hold(p.Now().Add(Millisecond))
		ab.Hold(p.Now().Add(2 * Millisecond))
		p.Wait(2 * Millisecond)
		ab.Hold(p.Now().Add(Microsecond))
	}); msg != "" {
		t.Fatalf("legal Hold sequence panicked: %s", msg)
	}
}

// TestGroupLateArrivalPanics: a staged message whose arrival is already
// behind its destination's clock is a kernel bug (a horizon was wrong); the
// barrier must refuse it rather than deliver it at the wrong instant.
func TestGroupLateArrivalPanics(t *testing.T) {
	g := NewGroup()
	a, b := NewEnv(1), NewEnv(2)
	ab := g.Connect("a->b", g.Add("a", a), g.Add("b", b), 10*Microsecond)
	b.advanceTo(Time(Millisecond))
	ab.staged = append(ab.staged, XMsg{At: Time(20 * Microsecond), Link: ab.id, Seq: 1})
	defer func() {
		msg := fmt.Sprint(recover())
		for _, frag := range []string{`link "a->b"`, "0.000020s", `"b"`, "0.001000s"} {
			if !strings.Contains(msg, frag) {
				t.Fatalf("panic %q missing %q", msg, frag)
			}
		}
	}()
	g.deliver()
}

// randomGroup builds a seeded random topology — 3-6 partitions on a ring
// plus random extra directed links — and runs it to completion. Each link
// is either periodic (a ticker in its source sends a numbered message every
// period and, when hold is set, promises silence until its next tick) or
// reactive (echo procs forward what they receive onto it, never holding).
// Every partition also does dense 1us local work, so without promises the
// partitions clamp each other to single link latencies. It returns each
// partition's (time, payload) receive log and the barrier rounds.
func randomGroup(t *testing.T, seed int64, hold bool, workers int) (logs []string, rounds uint64) {
	t.Helper()
	type hop struct{ id, ttl int }
	rng := rand.New(rand.NewSource(seed))
	n := 3 + rng.Intn(4)
	g := NewGroup()
	envs := make([]*Env, n)
	for i := range envs {
		envs[i] = NewEnv(seed + int64(i))
		g.Add(fmt.Sprintf("p%d", i), envs[i])
	}
	in, reactive := make([][]*XLink, n), make([][]*XLink, n)
	var periodic []*XLink
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || (j != (i+1)%n && rng.Intn(3) > 0) {
				continue
			}
			lat := Duration(5+rng.Intn(46)) * Microsecond
			l := g.Connect(fmt.Sprintf("p%d->p%d", i, j), PartitionID(i), PartitionID(j), lat)
			in[j] = append(in[j], l)
			if rng.Intn(2) == 0 {
				periodic = append(periodic, l)
			} else {
				reactive[i] = append(reactive[i], l)
			}
		}
	}
	const span = 2 * Millisecond
	for _, e := range envs {
		e.Spawn("dense", func(p *Proc) {
			for p.Now() < Time(span) {
				p.Wait(Microsecond)
			}
		})
	}
	for k, l := range periodic {
		k, l := k, l
		period := Duration(40+rng.Intn(300)) * Microsecond
		ttl := rng.Intn(4)
		envs[l.src].Spawn("ticker", func(p *Proc) {
			for i := 0; p.Now().Add(period) < Time(span); i++ {
				if hold {
					l.Hold(p.Now().Add(period))
				}
				p.Wait(period)
				l.Send(p, hop{id: k*1000 + i, ttl: ttl})
			}
		})
	}
	logs = make([]string, n)
	for i := range envs {
		i := i
		for _, l := range in[i] {
			l := l
			envs[i].SpawnDaemon("rx", func(p *Proc) {
				for {
					m := l.Recv(p)
					h := m.Payload.(hop)
					logs[i] += fmt.Sprintf("%d/%d@%d ", h.id, h.ttl, p.Now())
					if out := reactive[i]; h.ttl > 0 && len(out) > 0 {
						out[h.id%len(out)].Send(p, hop{h.id, h.ttl - 1})
					}
				}
			})
		}
	}
	if err := g.Run(workers, MaxTime); err != nil {
		t.Fatalf("seed=%d hold=%v workers=%d: %v", seed, hold, workers, err)
	}
	g.Shutdown()
	return logs, g.Stats().Rounds
}

// TestGroupPromisesChangeOnlyRounds is the promise contract as a property:
// over seeded random topologies, removing every Hold call or changing the
// worker count leaves each partition's receive log — every payload and the
// instant it arrived — untouched. Only the number of barrier rounds moves.
func TestGroupPromisesChangeOnlyRounds(t *testing.T) {
	var held, unheld uint64
	for seed := int64(1); seed <= 12; seed++ {
		want, r0 := randomGroup(t, seed, false, 1)
		unheld += r0
		traffic := 0
		for _, l := range want {
			traffic += len(l)
		}
		if traffic == 0 {
			t.Fatalf("seed=%d: no message was ever received", seed)
		}
		for _, workers := range []int{1, 2, 4} {
			got, r := randomGroup(t, seed, true, workers)
			if workers == 1 {
				held += r
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed=%d workers=%d: receive logs differ with promises on:\n got %q\nwant %q",
					seed, workers, got, want)
			}
		}
	}
	if held >= unheld {
		t.Fatalf("promises bought nothing: %d rounds held, %d without", held, unheld)
	}
	t.Logf("rounds over 12 topologies: %d with promises, %d without", held, unheld)
}

// TestGroupStatsAccountHostTime: the kernel's account of its own run — wall
// time, one busy and one barrier-wait slot per worker, an efficiency that is
// a share, per-partition windows and events that add up to the totals, and
// hold coverage on the one link whose source promises silence.
func TestGroupStatsAccountHostTime(t *testing.T) {
	for _, workers := range []int{1, 2} {
		g := NewGroup()
		a, b := NewEnv(1), NewEnv(2)
		ia, ib := g.Add("a", a), g.Add("b", b)
		g.Connect("a->b", ia, ib, 10*Microsecond)
		back := g.Connect("b->a", ib, ia, 10*Microsecond)
		for _, e := range []*Env{a, b} {
			e.Spawn("dense", func(p *Proc) {
				for i := 0; i < 20000; i++ {
					p.Wait(Microsecond)
				}
			})
		}
		b.Spawn("reporter", func(p *Proc) {
			for i := 0; i < 100; i++ {
				back.Hold(p.Now().Add(100 * Microsecond))
				p.Wait(100 * Microsecond)
				back.Send(p, i)
			}
		})
		if err := g.Run(workers, MaxTime); err != nil {
			t.Fatal(err)
		}
		st := g.Stats()
		var busy time.Duration
		for _, d := range st.Busy {
			busy += d
		}
		if len(st.Busy) != workers || busy <= 0 || st.Wall < busy/time.Duration(workers) {
			t.Fatalf("workers=%d: wall=%v busy=%v", workers, st.Wall, st.Busy)
		}
		if eff := st.Efficiency(); eff <= 0 || eff > 1 {
			t.Fatalf("workers=%d: efficiency %v outside (0,1]", workers, eff)
		}
		if len(st.BarrierWait) != workers {
			t.Fatalf("workers=%d: barrier wait %v", workers, st.BarrierWait)
		}
		for w, d := range st.BarrierWait {
			if d < 0 || st.Busy[w]+d > st.Wall {
				t.Fatalf("workers=%d: worker %d busy %v + barrier wait %v outside wall %v", workers, w, st.Busy[w], d, st.Wall)
			}
		}
		var windows, events uint64
		for i := range st.PartWindows {
			windows += st.PartWindows[i]
			events += st.PartEvents[i]
		}
		if len(st.PartWindows) != 2 || len(st.PartEvents) != 2 || windows != st.Windows || events != st.Kernel.Events {
			t.Fatalf("workers=%d: partition windows %v events %v, totals %d and %d", workers,
				st.PartWindows, st.PartEvents, st.Windows, st.Kernel.Events)
		}
		if len(st.Held) != 2 || st.Held[0] != 0 || st.Held[1] == 0 || st.Held[1] > st.Rounds {
			t.Fatalf("workers=%d: hold coverage %v over %d rounds; want none on a->b, some on b->a", workers, st.Held, st.Rounds)
		}
		g.Shutdown()
	}
	if eff := (GroupStats{}).Efficiency(); eff != 0 {
		t.Fatalf("efficiency of an unrun group = %v", eff)
	}
}
