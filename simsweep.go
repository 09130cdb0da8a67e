package doceph

import (
	"fmt"
	"runtime"

	"doceph/internal/cluster"
	"doceph/internal/perf"
	"doceph/internal/radosbench"
	"doceph/internal/sim"
)

// The simulator-throughput sweep behind BENCH_sim.json (cmd/simbench): what
// the simulator itself costs on the host clock — events/s, ns and heap
// allocations per completed op — over fixed rows on the runners every
// experiment uses (runWorkloadCfg, sweepWorkers), so a knob is guarded for
// host cost by adding one cell here. Not a registry entry: it prints
// host-clock numbers, which -exp tables exclude by rule (scripts/expdiff.sh
// compares them byte for byte).

// simSweepCells are the single-cluster rows; the names are BENCH_sim.json's
// row keys and perf.Guard holds ops and events to the record exactly, so a
// changed shape is a new row, not an edit. Both deployments at two paper
// sizes, then one row per data path beside the default: batched multi-queue,
// degraded writes with backfill, reads, the 70/30 mix, the chunk stream.
var simSweepCells = []cell{
	{name: "baseline-1M", mode: Baseline, size: 1 << 20},
	{name: "baseline-4M", mode: Baseline, size: 4 << 20},
	{name: "doceph-1M", mode: DoCeph, size: 1 << 20},
	{name: "doceph-4M", mode: DoCeph, size: 4 << 20},
	{name: "doceph-mq4-64K", mode: DoCeph, size: 64 << 10, mut: multiQueue(4), engaged: queuesEngaged(4)},
	{name: "doceph-degraded-4K", mode: DoCeph, size: 4 << 10, arm: downThenRejoin, engaged: degradedEngaged,
		mut: func(c *ClusterConfig) { c.MinSize = 1; recoveryQoS(c) }},
	{name: "doceph-read-4K", mode: DoCeph, size: 4 << 10, bench: BenchConfig{Op: ReadWorkload}},
	{name: "doceph-mix70-4K", mode: DoCeph, size: 4 << 10, bench: BenchConfig{Op: MixedWorkload, ReadPercent: 70}},
	// 16 MB objects from 16 clients would swamp the fabric (see streamingCells).
	{name: "doceph-stream-16M", mode: DoCeph, size: 16 << 20, bench: BenchConfig{Threads: 4}, engaged: streamEngaged(true),
		mut: func(c *ClusterConfig) { c.Messenger.Stream.Enable = true }},
}

// downThenRejoin takes osd.1 down administratively at t=0 — the heartbeat
// grace (5 s) would outlast a short run — and rejoins it halfway through the
// measured window, so the tail runs real backfill under the recovery QoS
// knobs while the bench clients keep writing.
func downThenRejoin(cl *Cluster, o Options) {
	cl.Env.Spawn("degrade", func(p *sim.Proc) {
		cl.Nodes[1].OSD.Fail()
		cl.Mon.MarkDown(1)
		p.Wait(o.Warmup + o.Duration/2)
		cl.Nodes[1].OSD.Recover()
		cl.Mon.MarkUp(1)
	})
}

// simSweepFamilies are the scale-out rows: each configuration, written for
// -exp scaleout and scaleout128, becomes one "@wN" row per kernel worker count
// (simSweepWorkers unless the caller says otherwise) over its own window.
var simSweepFamilies = []struct {
	name   string
	window Duration
	cfg    func(Options) cluster.ScaleOutConfig
}{
	{"doceph-scaleout-32osd", 2 * Second, scaleOut32},
	{"doceph-scaleout-128osd", Second, func(o Options) cluster.ScaleOutConfig {
		return scaleOut128(o, radosbench.PopZipf, true)
	}},
}

var simSweepWorkers = []int{1, 8}

func workerRow(family string, workers int) string { return fmt.Sprintf("%s@w%d", family, workers) }

// RunSimSweep runs the sweep and returns one row per cell, then the scale-out
// rows. Unset windows take each row's own: 3 s after 1 s of warmup for the
// cells, the families' above. Rows run one at a time — heap counters are
// process-wide, so only then are allocations a row's own.
func RunSimSweep(set Options) (perf.Report, error) {
	o := set.or(Options{Duration: 3 * Second, Warmup: Second, Workers: simSweepWorkers}).withDefaults()
	runtime.GC()
	var rows []perf.Measurement
	for _, c := range simSweepCells {
		m, err := perf.Measure(func() (perf.Measurement, error) {
			r, err := runWorkloadCfg(c, o)
			return perf.Measurement{Name: c.name, Ops: r.bench.Ops, SimEvents: r.events, WallNs: r.wall.Nanoseconds()}, err
		})
		if err != nil {
			return perf.Report{}, fmt.Errorf("%s: %w", c.name, err)
		}
		rows = append(rows, m)
	}
	for _, f := range simSweepFamilies {
		fo := o
		if set.Duration == 0 {
			fo.Duration = f.window
		}
		runs, err := sweepWorkers(f.cfg(fo), o.Workers)
		if err != nil {
			return perf.Report{}, fmt.Errorf("%s: %w", f.name, err)
		}
		for _, r := range runs {
			r.cost.Name = workerRow(f.name, r.workers)
			rows = append(rows, r.cost)
		}
	}
	return perf.NewReport(rows), nil
}
