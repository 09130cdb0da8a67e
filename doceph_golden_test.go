package doceph

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"doceph/internal/bluestore"
	"doceph/internal/cluster"
	"doceph/internal/messenger"
	"doceph/internal/radosbench"
	"doceph/internal/sim"
)

// The golden file pins the simulated headline metrics (throughput, latency
// distribution, host-CPU utilization, context switches, kernel event count)
// at a fixed seed: one Baseline and one DoCeph run, captured BEFORE the
// allocation-lean kernel / zero-copy data-plane rewrite, plus one run per
// goldenCells row. The test asserts every later kernel reproduces those
// numbers bit-identically. Regenerate only for an intentional model change:
//
//	go test -run TestGoldenDeterminism -update-golden .
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_sim.json from this run")

const goldenPath = "testdata/golden_sim.json"

// goldenMetrics holds only exactly-representable values: durations and
// counters are int64, float metrics are stored as IEEE-754 bit patterns so
// "bit-identical" is literal, not within-epsilon.
type goldenMetrics struct {
	Ops          int64  `json:"ops"`
	Bytes        int64  `json:"bytes"`
	AvgLatencyNs int64  `json:"avg_latency_ns"`
	MinLatencyNs int64  `json:"min_latency_ns"`
	MaxLatencyNs int64  `json:"max_latency_ns"`
	P50Ns        int64  `json:"p50_ns"`
	P99Ns        int64  `json:"p99_ns"`
	HostUtilBits uint64 `json:"host_util_bits"`
	HostUtil     string `json:"host_util"` // human-readable mirror of HostUtilBits
	MsgrSwitches int64  `json:"msgr_switches"`
	ObjSwitches  int64  `json:"obj_switches"`
	KernelEvents uint64 `json:"kernel_events"`
}

func runGoldenScenario(t *testing.T, mode cluster.Mode) goldenMetrics {
	t.Helper()
	m, cl := runGoldenScenarioOpt(t, mode, false)
	cl.Shutdown()
	return m
}

// runGoldenScenarioOpt runs the pinned scenario, optionally with tracing,
// and returns the headline metrics plus the cluster for extra inspection.
// The caller owns the cluster shutdown. (The knob table's "golden" run-twice
// row is this scenario over nine seeds at a 1 s window.)
func runGoldenScenarioOpt(t *testing.T, mode cluster.Mode, traced bool) (goldenMetrics, *cluster.Cluster) {
	t.Helper()
	cl := cluster.New(cluster.Config{Mode: mode, Seed: 42, Trace: traced})
	res, err := radosbench.Run(cl.Env, cl.Client, radosbench.Config{
		Threads:     8,
		ObjectBytes: 1 << 20,
		Duration:    3 * sim.Second,
		Warmup:      sim.Second,
		OnWarmupEnd: cl.ResetHostStats,
	})
	if err != nil {
		cl.Shutdown()
		t.Fatalf("mode %v: %v", mode, err)
	}
	host := cl.HostCPUMerged()
	util := host.SingleCoreUtilization()
	return goldenMetrics{
		Ops:          res.Ops,
		Bytes:        res.Bytes,
		AvgLatencyNs: int64(res.AvgLatency),
		MinLatencyNs: int64(res.MinLatency),
		MaxLatencyNs: int64(res.MaxLatency),
		P50Ns:        int64(res.P50),
		P99Ns:        int64(res.P99),
		HostUtilBits: math.Float64bits(util),
		HostUtil:     strconvFloat(util),
		MsgrSwitches: host.SwitchesByCat[messenger.ThreadCat],
		ObjSwitches:  host.SwitchesByCat[bluestore.ThreadCat],
		KernelEvents: cl.Env.Events(),
	}, cl
}

// goldenCells are the runs pinned beside the two scenarios, each on the
// experiments' own runner at one window — 3 s measured after 1 s of
// warm-up, 16 clients (4 on the stream row), seed 42: both deployments at
// 4 MB, then one row per data path beside the default (batched multi-queue,
// degraded writes with backfill, reads, the 70/30 mix, the chunk stream).
// The keys are the cell names, so a failing row names itself.
var goldenCells = []cell{
	{name: "baseline-4M", mode: Baseline, size: 4 << 20},
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

func degradedEngaged(r runResult) error {
	if r.degradedWrites == 0 || r.pgsBackfilled == 0 {
		return fmt.Errorf("an OSD was to go down and rejoin but degraded_writes=%d pgs_backfilled=%d",
			r.degradedWrites, r.pgsBackfilled)
	}
	return nil
}

// cellMetrics is a goldenCells run's headline metrics.
func cellMetrics(r runResult) goldenMetrics {
	return goldenMetrics{
		Ops:          r.bench.Ops,
		Bytes:        r.bench.Bytes,
		AvgLatencyNs: int64(r.bench.AvgLatency),
		MinLatencyNs: int64(r.bench.MinLatency),
		MaxLatencyNs: int64(r.bench.MaxLatency),
		P50Ns:        int64(r.bench.P50),
		P99Ns:        int64(r.bench.P99),
		HostUtilBits: math.Float64bits(r.hostUtil),
		HostUtil:     strconvFloat(r.hostUtil),
		MsgrSwitches: r.msgrSw,
		ObjSwitches:  r.objSw,
		KernelEvents: r.events,
	}
}

func strconvFloat(f float64) string {
	b, _ := json.Marshal(f)
	return string(b)
}

// TestGoldenDeterminism is the regression gate for the simulation kernel:
// any scheduling, pooling or data-plane optimization must leave every
// simulated number — including the total event count — exactly unchanged.
func TestGoldenDeterminism(t *testing.T) {
	got := map[string]goldenMetrics{
		"baseline": runGoldenScenario(t, cluster.Baseline),
		"doceph":   runGoldenScenario(t, cluster.DoCeph),
	}
	rs, err := runCells(Options{Duration: 3 * Second, Warmup: Second}, goldenCells)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		got[r.cell.name] = cellMetrics(r)
	}

	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	var want map[string]goldenMetrics
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse %s: %v", goldenPath, err)
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("scenario %q in golden file but not produced", name)
			continue
		}
		if g != w {
			t.Errorf("scenario %q diverged from golden:\n got  %+v\n want %+v", name, g, w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("scenario %q produced but not in the golden file", name)
		}
	}
}
