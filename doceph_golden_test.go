package doceph

import (
	"encoding/json"
	"flag"
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
// for one Baseline and one DoCeph run at a fixed seed. It was captured
// BEFORE the allocation-lean kernel / zero-copy data-plane rewrite; the
// test asserts every later kernel reproduces those numbers bit-identically.
// Regenerate only for an intentional model change:
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
}
