package faultinject_test

import (
	"fmt"
	"testing"

	"doceph/internal/cluster"
	"doceph/internal/faultinject"
	"doceph/internal/messenger"
	"doceph/internal/sim"
	"doceph/internal/wire"
)

func runBody(t *testing.T, cl *cluster.Cluster, horizon sim.Duration, body func(p *sim.Proc)) {
	t.Helper()
	done := false
	cl.Env.Spawn("test-body", func(p *sim.Proc) {
		p.SetThread(sim.NewThread("tester", "client"))
		body(p)
		done = true
	})
	err := cl.Env.RunUntil(sim.Time(horizon))
	if !done {
		t.Fatalf("body did not finish: %v", err)
	}
	cl.Shutdown()
}

// TestScrubDetectsInjectedBitRot is the end-to-end self-healing check: the
// fault layer flips bytes on a replica copy, a deep scrub must notice the
// CRC divergence and repair it, and client reads must never see the damage.
func TestScrubDetectsInjectedBitRot(t *testing.T) {
	cl := cluster.New(cluster.Config{Mode: cluster.Baseline, Messenger: messenger.Config{WireEncode: true}})
	inj := faultinject.New(cl.Env, cl.FaultTargets())
	if err := inj.Run(faultinject.Plan{Name: "rot", Events: []faultinject.Event{
		{At: 5 * sim.Second, Kind: faultinject.BitRot, Node: "node1", Count: 3},
	}}); err != nil {
		t.Fatal(err)
	}

	payload := func(i int) *wire.Bufferlist {
		data := make([]byte, 128<<10)
		for j := range data {
			data[j] = byte(i*131 + j*17)
		}
		return wire.FromBytes(data)
	}
	const objects = 12
	runBody(t, cl, 10*60*sim.Second, func(p *sim.Proc) {
		for i := 0; i < objects; i++ {
			if err := cl.Client.Write(p, fmt.Sprintf("obj-%d", i), payload(i)); err != nil {
				t.Fatal(err)
			}
		}
		p.Wait(6 * sim.Second) // past the bit-rot event
		if got := inj.Stats().BitRotObjects; got == 0 {
			t.Fatal("bit-rot event corrupted nothing")
		}
		for _, n := range cl.Nodes {
			n.OSD.ScrubNow()
		}
		p.Wait(30 * sim.Second) // let the scrub pass and repairs finish
		var errs, repairs int64
		for _, n := range cl.Nodes {
			errs += n.OSD.Stats().ScrubErrors
			repairs += n.OSD.Stats().ScrubRepairs
		}
		if errs == 0 {
			t.Fatal("scrub missed the injected corruption")
		}
		if repairs == 0 {
			t.Fatal("scrub reported errors but repaired nothing")
		}
		// Client reads stay clean throughout (corruption targeted replicas).
		for i := 0; i < objects; i++ {
			got, err := cl.Client.Read(p, fmt.Sprintf("obj-%d", i), 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got.CRC32C() != payload(i).CRC32C() {
				t.Fatalf("obj-%d read corrupted", i)
			}
		}
	})
}

// TestOSDCrashRecoverPlan drives a crash/restart through the plan and checks
// the data plane rides it out: writes keep succeeding (degraded, then
// recovered) and the monitor publishes the down/up transitions.
func TestOSDCrashRecoverPlan(t *testing.T) {
	cl := cluster.New(cluster.Config{Mode: cluster.Baseline})
	inj := faultinject.New(cl.Env, cl.FaultTargets())
	if err := inj.Run(faultinject.Plan{Name: "crash", Events: []faultinject.Event{
		{At: 2 * sim.Second, Duration: 20 * sim.Second, Kind: faultinject.OSDCrash, OSD: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	runBody(t, cl, 10*60*sim.Second, func(p *sim.Proc) {
		for i := 0; i < 30; i++ {
			if err := cl.Client.Write(p, fmt.Sprintf("o-%d", i), wire.FromBytes(make([]byte, 4<<10))); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
			p.Wait(2 * sim.Second)
		}
		if !cl.Nodes[1].OSD.Map().IsUp(1) {
			t.Fatal("osd.1 not re-integrated after recovery")
		}
		if cl.Mon.EpochBumps() == 0 {
			t.Fatal("monitor never published the failure")
		}
	})
}

// TestWindowedFaultReverts checks that a windowed network fault clears: the
// NIC drops frames during the window and none after it.
func TestWindowedFaultReverts(t *testing.T) {
	cl := cluster.New(cluster.Config{Mode: cluster.Baseline})
	inj := faultinject.New(cl.Env, cl.FaultTargets())
	if err := inj.Run(faultinject.Plan{Name: "drop", Events: []faultinject.Event{
		{At: sim.Second, Duration: 4 * sim.Second, Kind: faultinject.Drop, Node: "node0", Prob: 1.0},
	}}); err != nil {
		t.Fatal(err)
	}
	runBody(t, cl, 10*60*sim.Second, func(p *sim.Proc) {
		p.Wait(6 * sim.Second) // heartbeats flow through the whole window
		during := cl.Fabric.DroppedFrames()
		if during == 0 {
			t.Fatal("no frames dropped during the fault window")
		}
		// After revert the messenger retries deliver; write must succeed
		// promptly and drop no further frames.
		start := cl.Fabric.DroppedFrames()
		if err := cl.Client.Write(p, "post", wire.FromBytes(make([]byte, 4<<10))); err != nil {
			t.Fatal(err)
		}
		if cl.Fabric.DroppedFrames() != start {
			t.Fatal("frames still dropped after the fault window closed")
		}
	})
}
