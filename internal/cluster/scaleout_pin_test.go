package cluster

import (
	"testing"

	"doceph/internal/radosbench"
	"doceph/internal/sim"
)

// scaleOutPin is what a seed-42 scale-out run produced on the commit before
// the kernel learned link promises (XLink.Hold): every simulated quantity
// the promise must leave alone, plus the barrier-round count it must cut.
type scaleOutPin struct {
	cfg               ScaleOutConfig
	ops               int64
	events, delivered uint64
	epochs            int64
	acks              int64 // per pod, the same on every pod
	lastEpoch         []int64
	roundsBefore      uint64
	// maxLive bounds the procs live when the run stops (the loops that stayed
	// daemons plus the ops in flight): 1,049 and 3,961 when every thread of
	// the paper's taxonomy was a parked coroutine, 319 and 656 as identities.
	maxLive int
}

// TestScaleOutPromisesChangeOnlyRounds pins the 32-OSD (-exp scaleout
// -quick) and 128-OSD (benchmark scaleout-128osd-zipf) runs to the parent
// commit's values: rack agents promising silence until their next beacon
// must change how often the kernel synchronizes and nothing else.
func TestScaleOutPromisesChangeOnlyRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("full 32- and 128-OSD runs are slow")
	}
	epochs := func(n int, all, last int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = all
		}
		out[n-1] = last
		return out
	}
	pins := map[string]scaleOutPin{
		"32osd": {
			cfg: ScaleOutConfig{Mode: DoCeph, Seed: 42,
				Duration: sim.Second, Warmup: 250 * sim.Millisecond},
			ops: 5465, events: 632769, delivered: 384, epochs: 24,
			acks: 24, lastEpoch: epochs(8, 23, 24), roundsBefore: 402, maxLive: 400,
		},
		"128osd": {
			cfg: ScaleOutConfig{Pods: 16, OSDsPerPod: 8, Mode: DoCeph, Seed: 42,
				Threads: 2, ObjectBytes: 64 << 10, ReadPercent: 70,
				Popularity:   radosbench.Popularity{Kind: radosbench.PopZipf},
				BalanceReads: true, Duration: 1500 * sim.Millisecond, Warmup: 500 * sim.Millisecond},
			ops: 11815, events: 862469, delivered: 1248, epochs: 39,
			acks: 39, lastEpoch: epochs(16, 38, 39), roundsBefore: 643, maxLive: 1400,
		},
	}
	for name, pin := range pins {
		t.Run(name, func(t *testing.T) {
			so := NewScaleOut(pin.cfg)
			defer so.Shutdown()
			res, err := so.Run(2)
			if err != nil {
				t.Fatal(err)
			}
			if res.TotalOps != pin.ops || res.Events != pin.events ||
				res.Epochs != pin.epochs || res.Delivered != pin.delivered {
				t.Fatalf("ops=%d events=%d epochs=%d delivered=%d, want %d %d %d %d",
					res.TotalOps, res.Events, res.Epochs, res.Delivered,
					pin.ops, pin.events, pin.epochs, pin.delivered)
			}
			for i, p := range res.Pods {
				if p.Acks != pin.acks || p.LastEpoch != pin.lastEpoch[i] {
					t.Fatalf("pod %d: acks=%d lastEpoch=%d, want %d %d",
						i, p.Acks, p.LastEpoch, pin.acks, pin.lastEpoch[i])
				}
			}
			live := 0
			for i := 0; i < so.Group.Partitions(); i++ {
				live += so.Group.Env(sim.PartitionID(i)).LiveProcs()
			}
			kernel := so.Group.Stats().Kernel
			if live > pin.maxLive {
				t.Fatalf("%d procs live at the end (%d coroutines made, %d identities), want at most %d: a new daemon per OSD?",
					live, kernel.CoroutinesPeak, kernel.Identities, pin.maxLive)
			}
			if res.Rounds*4 > pin.roundsBefore {
				t.Fatalf("rounds=%d, want at most a quarter of the %d before: promises did not widen the windows",
					res.Rounds, pin.roundsBefore)
			}
			t.Logf("rounds %d -> %d, windows %d, events/window %.0f; %d procs live, %d coroutines for %d identities and %d spawns",
				pin.roundsBefore, res.Rounds, res.Windows, float64(res.Events)/float64(res.Windows),
				live, kernel.CoroutinesPeak, kernel.Identities, kernel.Spawns)
		})
	}
}
