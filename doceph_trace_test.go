package doceph

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"

	"doceph/internal/cluster"
	"doceph/internal/trace"
)

// The trace golden pins the complete trace output — span count and the
// SHA-256 of the byte-exact Chrome JSON — of the same pinned scenario as
// golden_sim.json, with tracing on. Any change to span creation order,
// attribution or the exporter shows up here. Regenerate alongside the sim
// golden for an intentional model change:
//
//	go test -run 'TestGolden' -update-golden .
const goldenTracePath = "testdata/golden_trace.json"

type goldenTrace struct {
	Spans        int    `json:"spans"`
	StageRows    int    `json:"stage_rows"`
	ChromeSHA256 string `json:"chrome_sha256"`
}

// tracedRun is one traced golden-scenario execution, shared by the tests
// below so each mode only runs once.
type tracedRun struct {
	metrics goldenMetrics
	spans   []trace.Span
	busy    map[string]Duration
}

var tracedRunCache = map[cluster.Mode]*tracedRun{}

func tracedGolden(t *testing.T, mode cluster.Mode) *tracedRun {
	t.Helper()
	if r, ok := tracedRunCache[mode]; ok {
		return r
	}
	metrics, cl := runGoldenScenarioOpt(t, mode, true)
	defer cl.Shutdown()
	r := &tracedRun{metrics: metrics, spans: cl.Tracer.Spans(), busy: cpuBusy(cl)}
	tracedRunCache[mode] = r
	return r
}

// cpuBusy is every CPU's busy time by name: what the spans' CPU is conserved
// against.
func cpuBusy(cl *cluster.Cluster) map[string]Duration {
	busy := map[string]Duration{cl.ClientCPU.Name(): cl.ClientCPU.Stats().TotalBusy}
	for _, n := range cl.Nodes {
		busy[n.HostCPU.Name()] = n.HostCPU.Stats().TotalBusy
		if n.DPU != nil {
			busy[n.DPU.CPU.Name()] = n.DPU.CPU.Stats().TotalBusy
		}
	}
	return busy
}

func chromeHash(spans []trace.Span) string {
	sum := sha256.Sum256(trace.ChromeTrace(spans))
	return hex.EncodeToString(sum[:])
}

// TestGoldenTrace pins the byte-exact trace output for both deployments
// and asserts that enabling tracing leaves every simulated metric exactly
// at its untraced golden value (the observer-effect-zero property:
// tracing is pure bookkeeping).
func TestGoldenTrace(t *testing.T) {
	got := map[string]goldenTrace{}
	metrics := map[string]goldenMetrics{}
	for name, mode := range map[string]cluster.Mode{
		"baseline": cluster.Baseline, "doceph": cluster.DoCeph,
	} {
		r := tracedGolden(t, mode)
		got[name] = goldenTrace{
			Spans:        len(r.spans),
			StageRows:    len(trace.Aggregate(r.spans)),
			ChromeSHA256: chromeHash(r.spans),
		}
		metrics[name] = r.metrics
	}

	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTracePath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenTracePath)
		return
	}

	// Observer effect: the traced run must reproduce the untraced golden
	// metrics bit-identically.
	simRaw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing %s: %v", goldenPath, err)
	}
	var simWant map[string]goldenMetrics
	if err := json.Unmarshal(simRaw, &simWant); err != nil {
		t.Fatal(err)
	}
	for name, w := range simWant {
		if g := metrics[name]; g != w {
			t.Errorf("tracing perturbed the simulation for %q:\n got  %+v\n want %+v", name, g, w)
		}
	}

	raw, err := os.ReadFile(goldenTracePath)
	if err != nil {
		t.Fatalf("missing trace golden (run with -update-golden to create): %v", err)
	}
	var want map[string]goldenTrace
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for name, w := range want {
		if g := got[name]; g != w {
			t.Errorf("trace output diverged for %q:\n got  %+v\n want %+v", name, g, w)
		}
	}
}

// TestTraceInvariants runs the structural and CPU-conservation checkers
// over both deployments' real traces.
func TestTraceInvariants(t *testing.T) {
	for _, mode := range []cluster.Mode{cluster.Baseline, cluster.DoCeph} {
		r := tracedGolden(t, mode)
		if len(r.spans) == 0 {
			t.Fatalf("%v: no spans recorded", mode)
		}
		if err := trace.CheckInvariants(r.spans); err != nil {
			t.Errorf("%v: %v", mode, err)
		}
		if err := trace.CheckCPUConservation(r.spans, r.busy); err != nil {
			t.Errorf("%v: %v", mode, err)
		}
	}
}

// TestTraceMessengerShiftsToDPU asserts the paper's core claim at span
// granularity: in the baseline, messenger and OSD stages burn host CPU; in
// DoCeph every messenger/OSD span runs on the DPU ARM cores, and the only
// traced host work left is the BlueStore commit path.
func TestTraceMessengerShiftsToDPU(t *testing.T) {
	daemonStages := map[string]bool{
		trace.StageMsgrSend: true, trace.StageMsgrRecv: true,
		trace.StageOSDOp: true, trace.StageRepOp: true,
	}
	hostStages := map[string]bool{
		trace.StageHostCommit: true, trace.StageAIO: true, trace.StageKV: true,
	}

	base := trace.Aggregate(tracedGolden(t, cluster.Baseline).spans)
	var baseHostDaemon Duration
	for _, s := range base {
		if daemonStages[s.Stage] && strings.HasPrefix(s.Resource, "host-") {
			baseHostDaemon += s.CPU
		}
	}
	if baseHostDaemon == 0 {
		t.Fatal("baseline: no messenger/OSD CPU attributed to host processors")
	}

	dc := trace.Aggregate(tracedGolden(t, cluster.DoCeph).spans)
	var dcDPUDaemon, dcHostStore Duration
	for _, s := range dc {
		if daemonStages[s.Stage] {
			if strings.HasPrefix(s.Resource, "host-") {
				t.Errorf("doceph: stage %s still on %s (%v CPU)", s.Stage, s.Resource, s.CPU)
			}
			if strings.Contains(s.Resource, "-arm") {
				dcDPUDaemon += s.CPU
			}
		}
		if hostStages[s.Stage] && strings.HasPrefix(s.Resource, "host-") {
			dcHostStore += s.CPU
		}
	}
	if dcDPUDaemon == 0 {
		t.Error("doceph: no messenger/OSD CPU attributed to DPU ARM cores")
	}
	if dcHostStore == 0 {
		t.Error("doceph: no BlueStore commit CPU attributed to host processors")
	}

	// The traced host CPU must collapse: DoCeph's host total below half the
	// baseline's (the paper measures >90% savings; half is a loose floor).
	hostTotal := func(stats []trace.StageStat) Duration {
		var d Duration
		for _, s := range stats {
			if strings.HasPrefix(s.Resource, "host-") {
				d += s.CPU
			}
		}
		return d
	}
	if b, d := hostTotal(base), hostTotal(dc); d*2 > b {
		t.Errorf("doceph traced host CPU %v not below half of baseline %v", d, b)
	}
}

// TestTraceDeterminismAcrossGOMAXPROCS is the determinism property test:
// the same (seed, config) must yield bit-identical metrics AND
// byte-identical trace output whether the Go runtime schedules on one OS
// thread or many.
func TestTraceDeterminismAcrossGOMAXPROCS(t *testing.T) {
	run := func() (goldenMetrics, string) {
		m, cl := runGoldenScenarioOpt(t, cluster.DoCeph, true)
		defer cl.Shutdown()
		return m, chromeHash(cl.Tracer.Spans())
	}
	prev := runtime.GOMAXPROCS(1)
	m1, h1 := run()
	runtime.GOMAXPROCS(8)
	m2, h2 := run()
	runtime.GOMAXPROCS(prev)
	if m1 != m2 {
		t.Errorf("metrics differ across GOMAXPROCS:\n 1: %+v\n 8: %+v", m1, m2)
	}
	if h1 != h2 {
		t.Errorf("trace output differs across GOMAXPROCS: %s vs %s", h1, h2)
	}
}
