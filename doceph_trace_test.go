package doceph

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"maps"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"doceph/internal/sim"
	"doceph/internal/trace"
)

// The trace golden pins the complete trace output — span count and the
// SHA-256 of the byte-exact Chrome JSON — of golden_sim.json's baseline and
// doceph cells, with tracing on. Any change to span creation order,
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

// tracedRuns holds the traced run of each golden cell the tests below ask
// for, so each runs once.
var tracedRuns = map[string]runResult{}

// tracedGolden is the golden cell called name run with tracing on; the runner
// has checked its spans.
func tracedGolden(t *testing.T, name string) runResult {
	t.Helper()
	if r, ok := tracedRuns[name]; ok {
		return r
	}
	r, err := runWorkloadCfg(traced(goldenCell(name)), goldenOpts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	tracedRuns[name] = r
	return r
}

// traced is c with tracing switched on.
func traced(c cell) cell {
	mut := c.mut
	c.mut = func(cfg *ClusterConfig) {
		cfg.Trace = true
		if mut != nil {
			mut(cfg)
		}
	}
	return c
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
	for _, name := range []string{"baseline", "doceph"} {
		r := tracedGolden(t, name)
		got[name] = goldenTrace{
			Spans:        len(r.spans),
			StageRows:    len(trace.Aggregate(r.spans)),
			ChromeSHA256: chromeHash(r.spans),
		}
		metrics[name] = r.golden()
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
	for name, g := range metrics {
		if w := simWant[name]; g != w {
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

// TestTraceInvariants: both deployments' real traces pass the runner's
// structural and CPU-conservation checks, and the checks are live — the same
// record with a processor's busy time one span's CPU short, or with one span
// ending after its parent, fails them, and so does a traced cell whose run
// leaves such a span behind.
func TestTraceInvariants(t *testing.T) {
	for _, name := range []string{"baseline", "doceph"} {
		r := tracedGolden(t, name)
		if len(r.spans) == 0 {
			t.Fatalf("%s: no spans recorded", name)
		}
		if err := r.checkTrace(); err != nil {
			t.Errorf("%s: %v", name, err)
		}

		short := r
		short.busy = maps.Clone(r.busy)
		s := r.spans[slices.IndexFunc(r.spans, func(s trace.Span) bool { return s.CPU > 0 })]
		short.busy[s.Resource] = trace.CPUByResource(r.spans)[s.Resource] - s.CPU
		if err := short.checkTrace(); err == nil || !strings.Contains(err.Error(), "conservation") {
			t.Errorf("%s: busy time one span's CPU short not caught: %v", name, err)
		}

		torn := r
		torn.spans = slices.Clone(r.spans)
		at := map[trace.SpanID]int{}
		for i, s := range torn.spans {
			at[s.ID] = i
		}
		for i, s := range torn.spans {
			if p, ok := at[s.Parent]; ok && s.Parent != 0 {
				torn.spans[i].End = torn.spans[p].End + 1
				break
			}
		}
		if err := torn.checkTrace(); err == nil || !strings.Contains(err.Error(), "invariants") {
			t.Errorf("%s: a span outliving its parent not caught: %v", name, err)
		}
	}

	// Through the runner: a span opened under a parent that finishes first.
	c := traced(cell{name: "torn", mode: Baseline, size: 64 << 10, arm: func(cl *Cluster, o Options) {
		cl.Env.Spawn("torn-span", func(p *sim.Proc) {
			p.Wait(o.Warmup + Millisecond)
			parent := cl.Tracer.Start(0, 1, "test.parent", "")
			child := cl.Tracer.Start(parent, 0, "test.child", "")
			cl.Tracer.Finish(parent)
			p.Wait(Millisecond)
			cl.Tracer.Finish(child)
		})
	}})
	opts := Options{Duration: 200 * Millisecond, Warmup: 100 * Millisecond, Threads: 2, Seed: 42}
	if _, err := runWorkloadCfg(c, opts); err == nil || !strings.Contains(err.Error(), "invariants") {
		t.Errorf("runner accepted a span outliving its parent: %v", err)
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

	base := trace.Aggregate(tracedGolden(t, "baseline").spans)
	var baseHostDaemon Duration
	for _, s := range base {
		if daemonStages[s.Stage] && strings.HasPrefix(s.Resource, "host-") {
			baseHostDaemon += s.CPU
		}
	}
	if baseHostDaemon == 0 {
		t.Fatal("baseline: no messenger/OSD CPU attributed to host processors")
	}

	dc := trace.Aggregate(tracedGolden(t, "doceph").spans)
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
// the same (seed, config) must yield the identical record — every metric and
// every span — whether the Go runtime schedules on one OS thread or many.
func TestTraceDeterminismAcrossGOMAXPROCS(t *testing.T) {
	run := func() runResult {
		r, err := runWorkloadCfg(traced(goldenCell("doceph")), goldenOpts)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	prev := runtime.GOMAXPROCS(1)
	r1 := run()
	runtime.GOMAXPROCS(8)
	r2 := run()
	runtime.GOMAXPROCS(prev)
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("records differ across GOMAXPROCS:\n 1: %+v\n 2: %+v", r1.golden(), r2.golden())
	}
	if h1, h2 := chromeHash(r1.spans), chromeHash(r2.spans); h1 != h2 {
		t.Errorf("trace output differs across GOMAXPROCS: %s vs %s", h1, h2)
	}
}
