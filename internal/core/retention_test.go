//go:build go1.24

package core

import (
	"runtime"
	"testing"
	"time"

	"doceph/internal/objstore"
	"doceph/internal/sim"
)

// TestCommittedCrossingRetainsNothing: the caller keeps the Result of a
// committed crossing — and so the pendingTxn it lives in — as long as it likes
// (a stream's barrier holds every chunk's). That must not keep the payload
// alive once BlueStore has let go of it, and BlueStore's extents, which keep
// the decoded data views for the object's life, must not keep the host's
// record alive. The benchmark's payloads come from a shared cache, so only
// this sees such a leak. Run over the per-op path (three DMA segments, the
// hostTxn watched while it assembles) and the batched one.
//
// It watches with runtime.AddCleanup, not SetFinalizer: a hostTxn and
// BlueStore's txc point at each other (the Result, the transaction), and a
// finalizer never runs on an object in a cycle.
func TestCommittedCrossingRetainsNothing(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  BridgeConfig
		size int
	}{
		{"per-op", BridgeConfig{}, 5 << 20},
		{"batched", BridgeConfig{Batch: BatchConfig{Enable: true}}, 64 << 10},
	} {
		r := newCoreRig(c.cfg)
		px, hs := r.bridge.Proxy, r.bridge.Host
		payloadFreed, hostFreed := make(chan struct{}, 1), make(chan struct{}, 1)
		var kept *objstore.Result
		stage := 0
		r.env.Spawn("body", func(p *sim.Proc) {
			p.SetThread(sim.NewThread("dpu-osd-worker", "tp_osd_tp"))
			if err := commitP(t, p, px, objstore.NewTransaction().MkColl("pg.0")); err != nil {
				t.Error(err)
				return
			}
			kept = queueWatched(p, px, c.size, payloadFreed)
			kept.Done.Wait(p)
			stage = 1
			p.Wait(sim.Second) // the test collects while the object still holds the payload
			if err := commitP(t, p, px, objstore.NewTransaction().Write("pg.0", "o", 0, seeded(c.size, 2))); err != nil {
				t.Error(err)
			}
			stage = 2 // overwritten: BlueStore has let go of the first payload
		})
		watched := false
		for step := 0; stage < 1; step++ {
			if step == 100_000 {
				t.Fatalf("%s: the write never committed", c.name)
			}
			if err := r.env.RunUntil(r.env.Now().Add(50 * sim.Microsecond)); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			for _, a := range hs.asm {
				if !watched {
					runtime.AddCleanup(a, func(ch chan struct{}) { ch <- struct{}{} }, hostFreed)
					watched = true
				}
			}
		}
		if c.cfg.Batch.Enable == watched {
			t.Fatalf("%s: hostTxn watched %v; the per-op write assembles over time, the batched one does not", c.name, watched)
		}
		if watched {
			awaitFreed(t, hostFreed, c.name+": the committed write's hostTxn")
		}
		if err := r.env.RunUntil(r.env.Now().Add(10 * sim.Second)); err != nil || stage != 2 {
			t.Fatalf("%s: overwrite did not finish: %v", c.name, err)
		}
		awaitFreed(t, payloadFreed, c.name+": the payload the kept Result's write carried")
		if !kept.Done.Fired() || kept.Err != nil {
			t.Fatalf("%s: kept result reads err=%v", c.name, kept.Err)
		}
		r.env.Shutdown()
	}
}

// queueWatched queues a write of a fresh size-byte payload to pg.0/o, its byte
// array reporting on freed once it is unreachable, and returns the Result
// alone, so the caller's stack holds nothing else of the write.
//
//go:noinline
func queueWatched(p *sim.Proc, px *Proxy, size int, freed chan struct{}) *objstore.Result {
	data := seeded(size, 1)
	runtime.AddCleanup(&data.FirstSegment()[0], func(ch chan struct{}) { ch <- struct{}{} }, freed)
	return px.QueueTransaction(p, objstore.NewTransaction().Write("pg.0", "o", 0, data))
}

// awaitFreed collects garbage until freed reports, or fails naming what stayed
// reachable.
func awaitFreed(t *testing.T, freed <-chan struct{}, what string) {
	t.Helper()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatalf("%s is still reachable", what)
}
