package cluster

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"doceph/internal/osd"
	"doceph/internal/radosbench"
	"doceph/internal/sim"
	"doceph/internal/wire"
)

// TestIdleClusterIsQueuesAndBodies: once a run has completed, the threads
// that only ever wait on one queue (tp_osd_tp, msgr-worker, the wire: lanes,
// bstore_aio, rpc-server, the two DMA pollers) are idle identities on empty
// queues holding no coroutine, and the live procs are exactly the loops that
// stayed daemons because they carry state across iterations: per OSD
// bstore_kv and hb, plus two dma-engine channels with a DPU, and mgr-poll.
// A daemon added per OSD shows up here (and, times 128, in the scale-out pin).
// No OSD holds a mutation, replica apply or replica wait record any more.
func TestIdleClusterIsQueuesAndBodies(t *testing.T) {
	for _, c := range []struct {
		mode        Mode
		daemons     int
		identities  int
		perOSDLoops string
	}{
		{Baseline, 2*2 + 1, 39, "bstore_kv, hb"},
		{DoCeph, 2*4 + 1, 47, "bstore_kv, hb, 2 x dma-engine"},
	} {
		before := runtime.NumGoroutine()
		cl := New(Config{Mode: c.mode, Seed: 7})
		_, err := radosbench.Run(cl.Env, cl.Client, radosbench.Config{
			Threads: 4, ObjectBytes: 1 << 20, OpsPerThread: 6})
		if err != nil {
			t.Fatalf("%v: %v", c.mode, err)
		}
		// The last reply is in; let the commit notifications behind it land.
		if err := cl.Env.RunUntil(cl.Env.Now().Add(sim.Second)); err != nil {
			t.Fatalf("%v: %v", c.mode, err)
		}
		for _, n := range cl.Nodes {
			if mu, ra, w := n.OSD.InFlight(); mu+ra+w != 0 {
				t.Errorf("%v: %s still holds %d mutations, %d replica applies, %d replica waits after the run",
					c.mode, osd.Name(n.OSD.ID()), mu, ra, w)
			}
		}
		st := cl.Env.Stats()
		if left := cl.Env.Backlog(); left != nil {
			t.Errorf("%v: served queues still hold values after the run: %v", c.mode, left)
		}
		if live := cl.Env.LiveProcs(); live != c.daemons {
			t.Errorf("%v: %d procs live after the run, want %d (per OSD %s; mgr-poll): an identity is still in its body, or a new daemon loop",
				c.mode, live, c.daemons, c.perOSDLoops)
		}
		if st.Identities != c.identities || st.CoroutinesPeak >= c.daemons+c.identities {
			t.Errorf("%v: %d identities on %d coroutines, want %d identities and fewer coroutines than the %d threads",
				c.mode, st.Identities, st.CoroutinesPeak, c.identities, c.daemons+c.identities)
		}
		if leaked := shutdownLeak(cl, before); leaked != 0 {
			t.Errorf("%v: Shutdown left %d of the run's goroutines", c.mode, leaked)
		}
	}
}

// TestShutdownMidFlightReleasesServedProcs stops a loaded DoCeph cluster at an
// instant when frames wait on a wire: lane behind the one in transfer, ops
// wait in an op shard behind a busy worker and a DMA completion waits for the
// poller — identities inside their bodies, values in served buffers — and
// Shutdown must unwind every one of them. The cluster is squeezed so that all
// three back up at once: a 4 Gb/s link, one slow host core, one op worker,
// 2 MiB writes (DMA segments) mixed with 16 KiB ones (ops).
func TestShutdownMidFlightReleasesServedProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	cl := New(Config{Mode: DoCeph, Seed: 7, LinkBytesPerSec: 4 * Link1G,
		HostCores: 1, HostFreqGHz: 0.2, OSD: osd.Config{OpWorkers: 1}})
	big, small := wire.FromBytes(make([]byte, 2<<20)), wire.FromBytes(make([]byte, 16<<10))
	for w := 0; w < 32; w++ {
		data := big
		if w%2 == 1 {
			data = small
		}
		cl.Env.SpawnDaemon(fmt.Sprint("writer-", w), func(p *sim.Proc) {
			p.SetThread(sim.NewThread("writer", "client"))
			for i := 0; ; i++ {
				if err := cl.Client.Write(p, fmt.Sprintf("load-%d-%d", w, i), data); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		})
	}
	var backlog []string
	waiting := func(kind string) bool {
		return slices.ContainsFunc(backlog, func(q string) bool { return strings.HasPrefix(q, kind) })
	}
	for step := 0; ; step++ {
		if step == 500_000 {
			t.Fatalf("no instant in 0.5 s with a lane, an op shard and the completion queue all backed up; last: %v", backlog)
		}
		if err := cl.Env.RunUntil(cl.Env.Now().Add(sim.Microsecond)); err != nil {
			t.Fatal(err)
		}
		backlog = cl.Env.Backlog()
		if waiting("wire:") && waiting("tp_osd_tp") && waiting("host-dma-poll") {
			break
		}
	}
	t.Logf("stopped at %v with %d procs live, backlog %v", cl.Env.Now(), cl.Env.LiveProcs(), backlog)
	if leaked := shutdownLeak(cl, before); leaked != 0 || cl.Env.LiveProcs() != 0 {
		t.Fatalf("after Shutdown: %d procs live, %d of the run's goroutines left", cl.Env.LiveProcs(), leaked)
	}
}

// shutdownLeak shuts cl down and returns how many of its goroutines are still
// there: every coroutine the kernel made must go, and the count may not end
// above before, taken ahead of New. (It can end below: a goroutine some earlier
// test left winding down is not this cluster's.)
func shutdownLeak(cl *Cluster, before int) int {
	made, running := cl.Env.Stats().CoroutinesPeak, runtime.NumGoroutine()
	cl.Shutdown()
	after := runtime.NumGoroutine()
	return max(made-(running-after), after-before, 0)
}
