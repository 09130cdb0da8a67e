package messenger

import (
	"fmt"
	"strings"
	"testing"

	"doceph/internal/cephmsg"
	"doceph/internal/sim"
	"doceph/internal/wire"
)

type rig struct {
	env    *sim.Env
	fabric *sim.Fabric
	reg    *Registry
	cpuA   *sim.CPU
	cpuB   *sim.CPU
	a, b   *Messenger
}

func newRig(cfg Config) *rig {
	env := sim.NewEnv(1)
	fabric := sim.NewFabric(env, "eth", 5*sim.Microsecond)
	fabric.AddNode("nodeA", 12.5e9) // 100 Gbps
	fabric.AddNode("nodeB", 12.5e9)
	reg := NewRegistry()
	cpuA := sim.NewCPU(env, "cpuA", 8, 3.0, 2000)
	cpuB := sim.NewCPU(env, "cpuB", 8, 3.0, 2000)
	return &rig{
		env: env, fabric: fabric, reg: reg, cpuA: cpuA, cpuB: cpuB,
		a: New(env, reg, fabric, cpuA, "ent.a", "nodeA", cfg),
		b: New(env, reg, fabric, cpuB, "ent.b", "nodeB", cfg),
	}
}

func (r *rig) run(t *testing.T, until sim.Duration) {
	t.Helper()
	if err := r.env.RunUntil(sim.Time(until)); err != nil {
		t.Fatal(err)
	}
	r.env.Shutdown()
}

func TestPingPongDelivery(t *testing.T) {
	r := newRig(Config{WireEncode: true})
	var gotPing, gotReply bool
	r.b.SetDispatcher(func(p *sim.Proc, src string, m cephmsg.Message) {
		ping, ok := m.(*cephmsg.MPing)
		if !ok || src != "ent.a" {
			t.Errorf("unexpected %T from %s", m, src)
			return
		}
		gotPing = true
		r.b.Send("ent.a", &cephmsg.MPingReply{Src: "ent.b", Stamp: ping.Stamp})
	})
	r.a.SetDispatcher(func(p *sim.Proc, src string, m cephmsg.Message) {
		rep, ok := m.(*cephmsg.MPingReply)
		if ok && rep.Stamp == 777 {
			gotReply = true
		}
	})
	r.env.Spawn("starter", func(p *sim.Proc) {
		r.a.Send("ent.b", &cephmsg.MPing{Src: "ent.a", Stamp: 777})
	})
	r.run(t, sim.Second)
	if !gotPing || !gotReply {
		t.Fatalf("gotPing=%v gotReply=%v", gotPing, gotReply)
	}
}

func TestDataPayloadIntegrity(t *testing.T) {
	r := newRig(Config{WireEncode: true})
	payload := make([]byte, 300_000)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	wantCRC := wire.FromBytes(payload).CRC32C()
	var gotCRC uint32
	r.b.SetDispatcher(func(p *sim.Proc, src string, m cephmsg.Message) {
		op := m.(*cephmsg.MOSDOp)
		gotCRC = op.Data.CRC32C()
	})
	r.env.Spawn("starter", func(p *sim.Proc) {
		r.a.Send("ent.b", &cephmsg.MOSDOp{
			Tid: 1, Object: "o", Op: cephmsg.OpWrite,
			Length: uint64(len(payload)), Data: wire.FromBytes(payload),
		})
	})
	r.run(t, sim.Second)
	if gotCRC != wantCRC {
		t.Fatalf("crc=%08x want %08x", gotCRC, wantCRC)
	}
}

func TestPerConnectionFIFO(t *testing.T) {
	r := newRig(Config{})
	var tids []uint64
	r.b.SetDispatcher(func(p *sim.Proc, src string, m cephmsg.Message) {
		tids = append(tids, m.(*cephmsg.MOSDOp).Tid)
	})
	r.env.Spawn("starter", func(p *sim.Proc) {
		for i := uint64(1); i <= 20; i++ {
			r.a.Send("ent.b", &cephmsg.MOSDOp{Tid: i, Object: "o", Op: cephmsg.OpWrite,
				Data: wire.FromBytes(make([]byte, 1000*i))})
		}
	})
	r.run(t, sim.Second)
	if len(tids) != 20 {
		t.Fatalf("delivered %d of 20", len(tids))
	}
	for i, tid := range tids {
		if tid != uint64(i+1) {
			t.Fatalf("order broken: %v", tids)
		}
	}
}

func TestCPUChargedToMsgrWorkerCat(t *testing.T) {
	r := newRig(Config{})
	r.b.SetDispatcher(func(p *sim.Proc, src string, m cephmsg.Message) {})
	r.env.Spawn("starter", func(p *sim.Proc) {
		r.a.Send("ent.b", &cephmsg.MOSDOp{Object: "o", Op: cephmsg.OpWrite,
			Data: wire.FromBytes(make([]byte, 1<<20))})
	})
	r.run(t, sim.Second)
	if r.cpuA.Stats().BusyByCat[ThreadCat] <= 0 {
		t.Fatal("sender CPU not charged to msgr-worker")
	}
	if r.cpuB.Stats().BusyByCat[ThreadCat] <= 0 {
		t.Fatal("receiver CPU not charged to msgr-worker")
	}
}

func TestPerByteCostScales(t *testing.T) {
	cost := func(bytes int) sim.Duration {
		r := newRig(Config{})
		r.b.SetDispatcher(func(p *sim.Proc, src string, m cephmsg.Message) {})
		r.env.Spawn("starter", func(p *sim.Proc) {
			r.a.Send("ent.b", &cephmsg.MOSDOp{Object: "o", Op: cephmsg.OpWrite,
				Data: wire.FromBytes(make([]byte, bytes))})
		})
		r.run(t, sim.Second)
		return r.cpuA.Stats().BusyByCat[ThreadCat]
	}
	small, big := cost(64<<10), cost(4<<20)
	if float64(big) < 10*float64(small) {
		t.Fatalf("4MB send cost (%v) should dwarf 64KB cost (%v)", big, small)
	}
}

func TestContextSwitchesCounted(t *testing.T) {
	r := newRig(Config{})
	r.b.SetDispatcher(func(p *sim.Proc, src string, m cephmsg.Message) {})
	r.env.Spawn("starter", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			r.a.Send("ent.b", &cephmsg.MPing{Src: "ent.a", Stamp: int64(i)})
		}
	})
	r.run(t, sim.Second)
	// 10 sends x SwitchesPerSend(2) voluntary + involuntary core switches.
	if r.cpuA.Stats().SwitchesByCat[ThreadCat] < 20 {
		t.Fatalf("sender switches=%d", r.cpuA.Stats().SwitchesByCat[ThreadCat])
	}
	if r.cpuB.Stats().SwitchesByCat[ThreadCat] < 20 {
		t.Fatalf("receiver switches=%d", r.cpuB.Stats().SwitchesByCat[ThreadCat])
	}
}

func TestStatsCounters(t *testing.T) {
	r := newRig(Config{})
	r.b.SetDispatcher(func(p *sim.Proc, src string, m cephmsg.Message) {})
	r.env.Spawn("starter", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			r.a.Send("ent.b", &cephmsg.MPing{Src: "ent.a"})
		}
	})
	r.run(t, sim.Second)
	if r.a.Stats().Sent != 5 || r.b.Stats().Received != 5 {
		t.Fatalf("sent=%d recv=%d", r.a.Stats().Sent, r.b.Stats().Received)
	}
	if r.a.Stats().BytesSent == 0 || r.a.Stats().BytesSent != r.b.Stats().BytesRecv {
		t.Fatalf("bytes sent=%d recv=%d", r.a.Stats().BytesSent, r.b.Stats().BytesRecv)
	}
}

func TestThroughputBoundedByFabric(t *testing.T) {
	env := sim.NewEnv(1)
	fabric := sim.NewFabric(env, "eth", 5*sim.Microsecond)
	fabric.AddNode("nodeA", 125e6) // 1 Gbps
	fabric.AddNode("nodeB", 125e6)
	reg := NewRegistry()
	cpu := sim.NewCPU(env, "cpu", 16, 3.0, 2000)
	a := New(env, reg, fabric, cpu, "ent.a", "nodeA", Config{})
	b := New(env, reg, fabric, cpu, "ent.b", "nodeB", Config{})
	delivered := 0
	b.SetDispatcher(func(p *sim.Proc, src string, m cephmsg.Message) { delivered++ })
	env.Spawn("starter", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			a.Send("ent.b", &cephmsg.MOSDOp{Object: "o", Op: cephmsg.OpWrite,
				Data: wire.FromBytes(make([]byte, 1<<20))})
		}
	})
	if err := env.RunUntil(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	// 1 Gbps moves at most ~119 MiB in 1 s => ~119 deliverable; must be
	// well under 100 only if CPU were infinite... it is bounded by the wire:
	// expect ~110-119 max; with 100 x 1 MiB queued all could fit if the
	// wire were faster. Assert the wire actually throttled pacing:
	if delivered > 119 {
		t.Fatalf("delivered=%d exceeds 1Gbps capacity", delivered)
	}
	if delivered < 50 {
		t.Fatalf("delivered=%d, pipeline stalled", delivered)
	}
}

func TestUnknownDestinationPanics(t *testing.T) {
	r := newRig(Config{})
	r.env.Spawn("starter", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		r.a.Send("ghost.9", &cephmsg.MPing{})
	})
	r.run(t, sim.Second)
}

func TestWorkersRoundRobinAcrossPeers(t *testing.T) {
	env := sim.NewEnv(1)
	fabric := sim.NewFabric(env, "eth", sim.Microsecond)
	fabric.AddNode("n0", 12.5e9)
	reg := NewRegistry()
	cpu := sim.NewCPU(env, "cpu", 8, 3.0, 0)
	hub := New(env, reg, fabric, cpu, "hub", "n0", Config{Workers: 2})
	for i := 0; i < 4; i++ {
		name := []string{"p.0", "p.1", "p.2", "p.3"}[i]
		peer := New(env, reg, fabric, cpu, name, "n0", Config{Workers: 1})
		peer.SetDispatcher(func(p *sim.Proc, src string, m cephmsg.Message) {})
	}
	env.Spawn("starter", func(p *sim.Proc) {
		for _, dst := range []string{"p.0", "p.1", "p.2", "p.3"} {
			hub.Send(dst, &cephmsg.MPing{Src: "hub"})
		}
	})
	if err := env.RunUntil(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	workers := map[*worker]bool{}
	for _, c := range hub.conns {
		workers[c.lanes[0].worker] = true
	}
	if len(workers) != 2 {
		t.Fatalf("connections used %d workers, want 2", len(workers))
	}
}

func TestSessionResetRedeliversExactlyOnce(t *testing.T) {
	r := newRig(Config{ReconnectBackoff: sim.Millisecond})
	var got []uint64
	r.b.SetDispatcher(func(p *sim.Proc, src string, m cephmsg.Message) {
		got = append(got, m.(*cephmsg.MOSDOp).Tid)
	})
	// Drop everything touching nodeB, send mid-fault, then heal: the wire
	// process must reset the session, back off and redeliver the frame
	// exactly once, preserving FIFO order with the follow-up message.
	r.env.Spawn("starter", func(p *sim.Proc) {
		r.fabric.SetDropProb("nodeB", 1.0)
		r.a.Send("ent.b", &cephmsg.MOSDOp{Tid: 1, Object: "o", Op: cephmsg.OpWrite,
			Data: wire.FromBytes(make([]byte, 4096))})
		p.Wait(50 * sim.Millisecond)
		r.fabric.SetDropProb("nodeB", 0)
		r.a.Send("ent.b", &cephmsg.MOSDOp{Tid: 2, Object: "o", Op: cephmsg.OpWrite,
			Data: wire.FromBytes(make([]byte, 4096))})
	})
	r.run(t, sim.Second)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("delivered tids %v, want [1 2]", got)
	}
	if r.a.Stats().SessionResets == 0 || r.a.Stats().Redeliveries == 0 {
		t.Fatalf("stats=%+v, expected resets and redeliveries", r.a.Stats())
	}
	if r.fabric.DroppedFrames() == 0 {
		t.Fatal("fabric recorded no drops")
	}
}

func TestPartitionHealsAndTrafficResumes(t *testing.T) {
	r := newRig(Config{ReconnectBackoff: sim.Millisecond})
	delivered := 0
	r.b.SetDispatcher(func(p *sim.Proc, src string, m cephmsg.Message) { delivered++ })
	r.env.Spawn("starter", func(p *sim.Proc) {
		r.fabric.SetPartitionGroup("nodeA", 1)
		r.fabric.SetPartitionGroup("nodeB", 2)
		r.a.Send("ent.b", &cephmsg.MPing{Src: "ent.a"})
		p.Wait(200 * sim.Millisecond)
		if delivered != 0 {
			t.Errorf("frame crossed an active partition")
		}
		r.fabric.ClearFaults()
	})
	r.run(t, sim.Second)
	if delivered != 1 {
		t.Fatalf("delivered=%d after heal, want 1", delivered)
	}
}

func TestVoluntarySwitchesScaleWithBytes(t *testing.T) {
	switches := func(bytes int) int64 {
		r := newRig(Config{})
		r.b.SetDispatcher(func(p *sim.Proc, src string, m cephmsg.Message) {})
		r.env.Spawn("starter", func(p *sim.Proc) {
			r.a.Send("ent.b", &cephmsg.MOSDOp{Object: "o", Op: cephmsg.OpWrite,
				Data: wire.FromBytes(make([]byte, bytes))})
		})
		r.run(t, sim.Second)
		return r.cpuA.Stats().SwitchesByCat[ThreadCat]
	}
	small, big := switches(4<<10), switches(4<<20)
	// A 4 MiB send blocks on the socket buffer many times (BytesPerSwitch
	// model); a 4 KiB send only pays the fixed wakeups.
	if big < small+10 {
		t.Fatalf("switches did not scale with size: %d vs %d", small, big)
	}
}

func TestLanesPreservePerObjectFIFO(t *testing.T) {
	r := newRig(Config{Lanes: 4})
	got := map[string][]uint64{}
	r.b.SetDispatcher(func(p *sim.Proc, src string, m cephmsg.Message) {
		op := m.(*cephmsg.MOSDOp)
		got[op.Object] = append(got[op.Object], op.Tid)
	})
	objects := []string{"obj-a", "obj-b", "obj-c", "obj-d", "obj-e"}
	r.env.Spawn("starter", func(p *sim.Proc) {
		// Interleave objects round-robin with growing payloads so lanes
		// finish at different times; per-object order must still hold.
		for i := uint64(1); i <= 30; i++ {
			obj := objects[int(i)%len(objects)]
			r.a.Send("ent.b", &cephmsg.MOSDOp{Tid: i, Object: obj, Op: cephmsg.OpWrite,
				Data: wire.FromBytes(make([]byte, 1000*i))})
		}
	})
	r.run(t, sim.Second)
	total := 0
	for obj, tids := range got {
		total += len(tids)
		for i := 1; i < len(tids); i++ {
			if tids[i] < tids[i-1] {
				t.Fatalf("%s: per-object order broken: %v", obj, tids)
			}
		}
	}
	if total != 30 {
		t.Fatalf("delivered %d of 30", total)
	}
	// With five objects hashed over four lanes, more than one lane must
	// have carried traffic.
	used := 0
	for _, ln := range r.a.conns["ent.b"].lanes {
		if ln.sendSeq > 0 {
			used++
		}
	}
	if used < 2 {
		t.Fatalf("only %d lanes carried traffic", used)
	}
}

func TestKeylessTrafficStaysOnLaneZero(t *testing.T) {
	r := newRig(Config{Lanes: 4})
	delivered := 0
	r.b.SetDispatcher(func(p *sim.Proc, src string, m cephmsg.Message) { delivered++ })
	r.env.Spawn("starter", func(p *sim.Proc) {
		// Pings and map traffic carry no ordering key: peer-wide order must
		// be preserved, so they must all ride lane 0.
		for i := 0; i < 8; i++ {
			r.a.Send("ent.b", &cephmsg.MPing{Src: "ent.a", Stamp: int64(i)})
		}
	})
	r.run(t, sim.Second)
	if delivered != 8 {
		t.Fatalf("delivered %d of 8", delivered)
	}
	lanes := r.a.conns["ent.b"].lanes
	if lanes[0].sendSeq != 8 {
		t.Fatalf("lane 0 sent %d frames, want 8", lanes[0].sendSeq)
	}
	for i := 1; i < len(lanes); i++ {
		if lanes[i].sendSeq != 0 {
			t.Fatalf("keyless frame leaked onto lane %d", i)
		}
	}
}

func TestLaneSteeringMatchesLaneKey(t *testing.T) {
	r := newRig(Config{Lanes: 4})
	r.b.SetDispatcher(func(p *sim.Proc, src string, m cephmsg.Message) {})
	obj := "steered-object"
	key, ok := cephmsg.LaneKey(&cephmsg.MOSDOp{Object: obj})
	if !ok {
		t.Fatal("MOSDOp has no lane key")
	}
	want := int(key % 4)
	r.env.Spawn("starter", func(p *sim.Proc) {
		for i := uint64(1); i <= 5; i++ {
			r.a.Send("ent.b", &cephmsg.MOSDOp{Tid: i, Object: obj, Op: cephmsg.OpWrite,
				Data: wire.FromBytes(make([]byte, 4096))})
		}
	})
	r.run(t, sim.Second)
	for i, ln := range r.a.conns["ent.b"].lanes {
		wantSeq := uint64(0)
		if i == want {
			wantSeq = 5
		}
		if ln.sendSeq != wantSeq {
			t.Fatalf("lane %d sent %d frames, want %d (key lane %d)",
				i, ln.sendSeq, wantSeq, want)
		}
	}
}

func TestAsymmetricLaneCountsGrowOnDemand(t *testing.T) {
	// Sender runs 4 lanes, receiver was built with 1: deliver must grow the
	// receive-side connection to match and keep every lane's FIFO intact.
	env := sim.NewEnv(1)
	fabric := sim.NewFabric(env, "eth", 5*sim.Microsecond)
	fabric.AddNode("nodeA", 12.5e9)
	fabric.AddNode("nodeB", 12.5e9)
	reg := NewRegistry()
	cpu := sim.NewCPU(env, "cpu", 8, 3.0, 2000)
	a := New(env, reg, fabric, cpu, "ent.a", "nodeA", Config{Lanes: 4})
	b := New(env, reg, fabric, cpu, "ent.b", "nodeB", Config{})
	delivered := 0
	b.SetDispatcher(func(p *sim.Proc, src string, m cephmsg.Message) { delivered++ })
	env.Spawn("starter", func(p *sim.Proc) {
		for i := uint64(1); i <= 20; i++ {
			a.Send("ent.b", &cephmsg.MOSDOp{Tid: i, Object: fmt.Sprintf("o%d", i),
				Op: cephmsg.OpWrite, Data: wire.FromBytes(make([]byte, 4096))})
		}
	})
	if err := env.RunUntil(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
	if delivered != 20 {
		t.Fatalf("delivered %d of 20", delivered)
	}
	if n := len(b.conns["ent.a"].lanes); n < 2 {
		t.Fatalf("receiver grew only %d lanes", n)
	}
}

func TestLaneKeyGroupsByOrderingDomain(t *testing.T) {
	// Same object: same key. Replication traffic keys by PG. Keyless
	// messages (maps, pings) must report no key at all.
	k1, ok1 := cephmsg.LaneKey(&cephmsg.MOSDOp{Object: "x"})
	k2, ok2 := cephmsg.LaneKey(&cephmsg.MOSDOpReply{Object: "x"})
	if !ok1 || !ok2 || k1 != k2 {
		t.Fatalf("op/reply keys differ for one object: %d/%v vs %d/%v", k1, ok1, k2, ok2)
	}
	r1, rok1 := cephmsg.LaneKey(&cephmsg.MRepOp{PGID: 9})
	r2, rok2 := cephmsg.LaneKey(&cephmsg.MRepOpReply{PGID: 9})
	if !rok1 || !rok2 || r1 != r2 || r1 != 9 {
		t.Fatalf("rep-op keys: %d/%v vs %d/%v", r1, rok1, r2, rok2)
	}
	if _, ok := cephmsg.LaneKey(&cephmsg.MPing{}); ok {
		t.Fatal("MPing reported a lane key")
	}
	if _, ok := cephmsg.LaneKey(&cephmsg.MOSDMap{}); ok {
		t.Fatal("MOSDMap reported a lane key")
	}
}

// TestFramesRecycled: a message is one frame record from its Send to the end
// of its receiver's turn — the item of the sending worker's queue, the lane's
// wire queue and the receiving worker's queue — and goes back to the
// partition's free list once the dispatcher is done. Once the lists, queues
// and the kernel's pools have their size, a ping-pong round trip allocates
// nothing, over plain frames, over four lanes (four pings in flight, one per
// object) and through a session reset's redelivery of the same record; under
// WireEncode it allocates what the codec does and no more. After a drain every
// frame made is back on the list, the zero value. A frame put back before its
// receiver is done hands the next step a zeroed record.
func TestFramesRecycled(t *testing.T) {
	for _, c := range []struct {
		name  string
		cfg   Config
		pings int
		reset bool
	}{
		{"plain", Config{}, 1, false},
		{"wire-encode", Config{WireEncode: true}, 1, false},
		{"lanes", Config{Lanes: 4}, 4, false},
		{"session-reset", Config{ReconnectBackoff: sim.Millisecond}, 1, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(c.cfg)
			defer r.env.Shutdown()
			ops := make([]*cephmsg.MOSDOp, c.pings)
			replies := make([]*cephmsg.MOSDOpReply, c.pings)
			for i := range ops {
				obj := fmt.Sprintf("obj-%d", i)
				ops[i] = &cephmsg.MOSDOp{Tid: uint64(i), Object: obj, Op: cephmsg.OpWrite, Data: wire.FromBytes(make([]byte, 4096))}
				replies[i] = &cephmsg.MOSDOpReply{Tid: uint64(i), Object: obj, Op: cephmsg.OpWrite}
			}
			pongs := 0
			r.b.SetDispatcher(func(_ *sim.Proc, src string, m cephmsg.Message) {
				r.b.Send(src, replies[m.(*cephmsg.MOSDOp).Tid])
			})
			r.a.SetDispatcher(func(_ *sim.Proc, _ string, m cephmsg.Message) {
				if m.(*cephmsg.MOSDOpReply).Tid < uint64(c.pings) {
					pongs++
				}
			})
			run := func(d sim.Duration) {
				if err := r.env.RunUntil(r.env.Now().Add(d)); err != nil {
					t.Fatal(err)
				}
			}
			round := func() {
				if c.reset {
					r.fabric.SetDropProb("nodeB", 1.0)
				}
				for _, op := range ops {
					r.a.Send("ent.b", op)
				}
				if c.reset {
					run(10 * sim.Millisecond)
					r.fabric.SetDropProb("nodeB", 0)
				}
				run(20 * sim.Millisecond)
			}
			for range 10 {
				round()
			}
			var want float64
			if c.cfg.WireEncode {
				// The codec's own: the encoding of the ping and the pong, and
				// the decoded copy of each.
				want = testing.AllocsPerRun(100, func() {
					for _, m := range []cephmsg.Message{ops[0], replies[0]} {
						bl := cephmsg.Encode(m)
						if _, err := cephmsg.Decode(bl); err != nil {
							t.Fatal(err)
						}
						wire.PutBuffer(bl.FirstSegment())
					}
				})
			}
			allocs := testing.AllocsPerRun(100, round)
			t.Logf("%.1f allocations per round trip, the codec %.1f", allocs, want)
			if allocs != want {
				t.Errorf("%.1f allocations per steady-state round trip, want %.0f", allocs, want)
			}
			if pongs != 111*c.pings {
				t.Fatalf("%d pongs, want %d", pongs, 111*c.pings)
			}
			if c.reset && r.a.Stats().Redeliveries < 111 {
				t.Fatalf("%d redeliveries over 111 rounds with a session reset each", r.a.Stats().Redeliveries)
			}
			run(sim.Second)
			if out := r.env.RecordsOut(); out != nil {
				t.Fatalf("records out: %v", out)
			}
			l := r.a.frames
			made := l.Made()
			t.Logf("%d frames made", made)
			if made == 0 || made > 2*c.pings {
				t.Fatalf("%d frames made for %d pings in flight, want at most %d", made, c.pings, 2*c.pings)
			}
			for range made {
				if f := l.Get(); *f != (frame{}) {
					t.Fatalf("a listed frame holds %+v", *f)
				}
			}
		})
	}
}

// TestFrameAcrossPartitionsPanics: a frame is a record of its sender's
// partition, so two messengers of different Envs cannot exchange one — the
// delivery panics, naming both — and meet only over a sim.XLink.
func TestFrameAcrossPartitionsPanics(t *testing.T) {
	envA, envB := sim.NewEnv(1), sim.NewEnv(2)
	defer envA.Shutdown()
	defer envB.Shutdown()
	fabric := sim.NewFabric(envA, "eth", 5*sim.Microsecond)
	fabric.AddNode("nodeA", 12.5e9)
	fabric.AddNode("nodeB", 12.5e9)
	reg := NewRegistry()
	a := New(envA, reg, fabric, sim.NewCPU(envA, "cpuA", 8, 3.0, 2000), "ent.a", "nodeA", Config{})
	New(envB, reg, fabric, sim.NewCPU(envB, "cpuB", 8, 3.0, 2000), "ent.b", "nodeB", Config{})
	a.Send("ent.b", &cephmsg.MPing{Src: "ent.a"})
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "messenger ent.b: frame from ent.a crosses partitions") {
			t.Fatalf("panic %q, want the cross-partition delivery named", msg)
		}
	}()
	envA.RunUntil(sim.Time(sim.Second))
	t.Fatal("a frame crossed partitions")
}
