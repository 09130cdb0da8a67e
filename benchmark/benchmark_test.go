package main

import (
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"doceph/internal/cluster"
	"doceph/internal/sim"
	"doceph/internal/trace"
)

func TestSummarize(t *testing.T) {
	for _, tc := range []struct {
		xs                  []float64
		median, q1, q3, min float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 3, 2, 4, 1},
		{[]float64{2, 1}, 1.5, 1.25, 1.75, 1},
		{[]float64{7}, 7, 7, 7, 7},
		{[]float64{10, 20, 30, 40}, 25, 17.5, 32.5, 10},
	} {
		s := summarize(tc.xs)
		if s.Median != tc.median || s.Q1 != tc.q1 || s.Q3 != tc.q3 || s.Min != tc.min || s.N != len(tc.xs) {
			t.Errorf("summarize(%v) = %+v, want median %v q1 %v q3 %v min %v", tc.xs, s, tc.median, tc.q1, tc.q3, tc.min)
		}
	}
	if s := summarize(nil); !math.IsNaN(s.Median) || s.N != 0 {
		t.Errorf("summarize(nil) = %+v, want not-applicable", s)
	}
	if got := summarize([]float64{90, 100, 110, 100, 100}).spread(); got != 0 {
		t.Errorf("spread = %v, want 0 when the quartiles coincide", got)
	}
	if got := summarize([]float64{80, 90, 100, 110, 120}).spread(); got != 0.2 {
		t.Errorf("spread = %v, want 0.2", got)
	}
}

func TestSelfTimes(t *testing.T) {
	span := func(id, parent trace.SpanID, start, end int64) trace.Span {
		return trace.Span{ID: id, Parent: parent, Start: sim.Time(start), End: sim.Time(end), Finished: true}
	}
	spans := []trace.Span{
		span(1, 0, 0, 100),
		span(2, 1, 10, 30),  // covered 10..30
		span(3, 1, 20, 50),  // overlaps 2: adds 30..50 only
		span(4, 1, 60, 70),  // disjoint: adds 10
		span(5, 1, 90, 120), // escapes the parent: clipped to 90..100
		span(6, 3, 25, 45),  // grandchild: counts against 3, not 1
		span(7, 1, 40, 45),  // inside what 3 already covers: adds nothing
	}
	self := selfTimes(spans)
	for id, want := range map[trace.SpanID]sim.Duration{
		1: 100 - (40 + 10 + 10),
		2: 20,
		3: 30 - 20,
		4: 10,
		5: 30,
		6: 20,
		7: 5,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}

	spans[2].Stage, spans[3].Stage = "dma.q3", "dma.q0"
	if st := foldStages(spans)["dma"]; st == nil || st.count != 2 || st.latency != 40 {
		t.Errorf("per-queue stages did not fold into their base stage: %+v", st)
	}
}

// mini shrinks w to roughly ops operations with no warm-up, so a test can
// run it in a fraction of a second and count every op.
func (w workload) mini(ops int) workload {
	if w.scale != nil {
		sc := *w.scale
		sc.Duration, sc.Warmup = 300*sim.Millisecond, 300*sim.Millisecond
		w.scale = &sc
		return w
	}
	w.bench.OpsPerThread = ops / w.bench.Threads
	w.bench.Warmup = 0
	if w.bench.PrepopulateObjects > 0 {
		w.bench.PrepopulateObjects = verifySample
	}
	return w
}

func miniWorkload(t *testing.T, name string) workload {
	t.Helper()
	ws, err := pick(name)
	if err != nil {
		t.Fatal(err)
	}
	return ws[0].mini(200).seeded(42)
}

func TestCounterDelta(t *testing.T) {
	a := counters{cEvents: 10, cClientOps: 3}
	b := counters{cEvents: 25, cClientOps: 7, cKVSyncs: 2}
	if d := b.sub(a); d[cEvents] != 15 || d[cClientOps] != 4 || d[cKVSyncs] != 2 || a[cEvents] != 10 {
		t.Errorf("sub = %v (a now %v)", d, a)
	}

	// With no warm-up the window is the whole run, so the delta must count
	// exactly the ops issued: one client write each, replicated once. Each
	// worker's first op left the client before the window opened.
	w := miniWorkload(t, "paper-4M-baseline")
	r, err := runRep(w, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	ops := int64(w.bench.Threads * w.bench.OpsPerThread)
	if r.ops != ops || r.c[cClientWrites] != ops || r.c[cRepOps] != ops || r.c[cClientOps] != ops-int64(w.bench.Threads) {
		t.Errorf("measured %d ops; delta has %d client writes, %d rep ops, %d client ops; want %d, %d, %d and %d",
			r.ops, r.c[cClientWrites], r.c[cRepOps], r.c[cClientOps], ops, ops, ops, ops-int64(w.bench.Threads))
	}
	if r.c[cEvents] <= 0 || r.c[cStoreTxns] < 2*ops {
		t.Errorf("delta has %d events and %d store txns for %d replicated writes", r.c[cEvents], r.c[cStoreTxns], ops)
	}
	if r.attempted != ops+verifySample || r.failed != 0 {
		t.Errorf("attempted %d failed %d, want %d and 0", r.attempted, r.failed, ops+verifySample)
	}

	// Snapshots of several clusters add up.
	cl := cluster.New(cluster.Config{})
	defer cl.Shutdown()
	if err := cl.Env.RunUntil(sim.Time(sim.Second)); err != nil {
		t.Fatal(err)
	}
	one, two := snapshot(cl), snapshot(cl, cl)
	if one[cEvents] == 0 || two[cEvents] != 2*one[cEvents] || two[cMsgrSent] != 2*one[cMsgrSent] {
		t.Errorf("snapshot of two clusters %v is not twice one %v", two, one)
	}
}

// better spells a metric's direction the way BENCHMARK.json does.
func (m metric) better() string {
	if m.lowerBetter {
		return "lower"
	}
	return "higher"
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type listed struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []listed
		EndToEnd   []listed `json:"end_to_end"`
		PerLayer   []listed `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(kind string, got []listed, want []metric) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code emits %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better() || g.Bound != m.bound {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the code has %s %s %s bound %v", kind, i, g, m.name, m.unit, m.better(), m.bound)
			}
			if !name.MatchString(m.name) || seen[m.name] {
				t.Errorf("%s: name %q is malformed or used twice", kind, m.name)
			}
			seen[m.name] = true
		}
	}
	e2e, layers := driverLists()
	check("end_to_end", doc.EndToEnd, e2e)
	for i := range layers {
		layers[i].bound = 0 // per-layer rows carry no bound in the file
	}
	check("per_layer", doc.PerLayer, layers)
	if len(perLayer) != 82 || len(endToEnd) != 11 {
		t.Errorf("ledger has %d per-layer and %d end-to-end rows, want 82 and 11 (failed_op_ratio is the twelfth)", len(perLayer), len(endToEnd))
	}
	hasSetup := false
	for _, m := range e2e {
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
		hasSetup = hasSetup || (m.name == "setup_s" && m.unit == "s" && m.lowerBetter)
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}

	ws := workloads()
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code runs %d", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		if g := doc.Workloads[i]; g.Name != w.name || g.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code has %q (%q)", i, g.Name, g.Why, w.name, w.why)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: malformed name or why", w.name)
		}
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	if strings.Join(doc.Command, " ") != "bash benchmark/run.sh" {
		t.Errorf("command %v", doc.Command)
	}
}

// TestMiniWorkloads runs a 200-op miniature of every workload twice: the
// engagement self-check must pass, every row must come out, and every
// simulated row must repeat exactly.
func TestMiniWorkloads(t *testing.T) {
	for _, w := range workloads() {
		w := w.mini(200).seeded(42)
		t.Run(w.name, func(t *testing.T) {
			res := &result{w: w}
			for i := 0; i < 2; i++ {
				r, err := runRep(w, false, nil)
				if err != nil {
					t.Fatal(err)
				}
				res.reps = append(res.reps, r)
			}
			e2e, err := res.table(endToEnd)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range endToEnd {
				e, ok := e2e[m.name]
				if !ok && !(m.partial && w.scale != nil) {
					t.Errorf("%s missing", m.name)
				}
				if ok && !(e.Value > 0) {
					t.Errorf("%s = %v, want a positive number", m.name, e.Value)
				}
			}
			layers, err := res.table(perLayer)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range perLayer {
				if _, ok := res.reps[0].vals[m.name]; m.src == srcStats && !ok {
					t.Errorf("%s: Stats() row not filled", m.name)
				}
			}
			if _, ok := layers["sim.events_per_op"]; !ok {
				t.Error("sim.events_per_op missing")
			}
			if _, ok := layers["doca.transfers_per_op"]; ok != (w.cluster.Mode == cluster.DoCeph || w.scale != nil) {
				t.Errorf("doca rows present = %v on %s", ok, w.name)
			}
		})
	}
}

// TestDisengagedPathFails flips off the one knob each workload exists to
// measure: the harness must refuse to report the run.
func TestDisengagedPathFails(t *testing.T) {
	for name, flip := range map[string]func(*workload){
		"paper-4M-baseline": func(w *workload) { w.cluster.Mode = cluster.DoCeph },
		"paper-4M-doceph":   func(w *workload) { w.cluster.Mode = cluster.Baseline },
		"mix70-4K-doceph":   func(w *workload) { w.bench.ReadPercent = 100 },
		"batch-64K-mq4":     func(w *workload) { w.cluster.Bridge.Batch.Enable = false },
		"stream-16M-doceph": func(w *workload) { w.cluster.Messenger.Stream.Enable = false },
		"scaleout-128osd-zipf": func(w *workload) {
			sc := *w.scale
			sc.BalanceReads = false
			w.scale = &sc
		},
	} {
		w := miniWorkload(t, name)
		flip(&w)
		if _, err := runRep(w, false, nil); err == nil || !strings.Contains(err.Error(), "path not engaged") {
			t.Errorf("%s with its path switched off: err = %v, want a path-not-engaged failure", name, err)
		}
	}
}

// TestNondeterminismFails feeds the table two repetitions that simulated
// different things (two seeds): it must refuse them.
func TestNondeterminismFails(t *testing.T) {
	res := &result{w: miniWorkload(t, "paper-4M-doceph")}
	for _, seed := range []int64{1, 2} {
		r, err := runRep(res.w.seeded(seed), false, nil)
		if err != nil {
			t.Fatal(err)
		}
		res.reps = append(res.reps, r)
	}
	if _, err := res.table(endToEnd); err == nil || !strings.Contains(err.Error(), "not deterministic") {
		t.Errorf("table over two seeds: err = %v, want a determinism failure", err)
	}
}

// TestTracedMini checks the traced pass end to end on the cheapest DoCeph
// workload: invariants hold, tracing changes nothing simulated, and the
// span rows that must be non-zero on the segmented DMA path are.
func TestTracedMini(t *testing.T) {
	res := &result{w: miniWorkload(t, "paper-4M-doceph")}
	r, err := runRep(res.w, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	res.reps = []*repResult{r}
	if err := res.observe(nil); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"rados.op_self_us_per_op", "core.dma_wait_us_per_op", "core.stage_cpu_us_per_op",
		"bluestore.aio_cpu_us_per_op", "messenger.send_cpu_us_per_op", "trace.spans_per_op"} {
		if !(res.extra[name] > 0) {
			t.Errorf("%s = %v, want > 0", name, res.extra[name])
		}
	}
	if x := res.extra["messenger.stream_window_wait_us_per_op"]; x != 0 {
		t.Errorf("stream window wait = %v on a workload that does not stream", x)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"doceph/internal/sim.(*Env).schedule":          "sim",
		"doceph/internal/sim.(*Proc).Wait":             "sim",
		"doceph/internal/core.(*Proxy).stage.func1":    "core",
		"doceph/internal/cephmsg.Encode":               "cephmsg",
		"doceph/internal/radosbench.Run.func3":         "other",
		"doceph/internal/cluster.New":                  "other",
		"runtime.mallocgc":                             "runtime",
		"runtime/internal/atomic.(*Uint32).Load":       "runtime",
		"internal/runtime/atomic.(*Uint32).Load":       "runtime",
		"hash/crc32.ieeeCLMUL":                         "other",
		"sync.(*Mutex).Lock":                           "other",
		"main.refWork":                                 "other",
		"doceph/internal/simulator.(*X).Y":             "other",
		"gcBgMarkWorker":                               "other",
		"doceph/internal/bluestore.(*Store).aioThread": "bluestore",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestProfileSharesSumTo100(t *testing.T) {
	buf := make([]byte, 1<<20)
	shares, samples, err := profileShares(func() error {
		for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
			sink = crc32.ChecksumIEEE(buf)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("the CPU profiler delivered no samples on this host")
	}
	sum := 0.0
	for _, x := range shares {
		sum += x
	}
	if len(shares) != 11 || math.Abs(sum-100) > 1e-6 {
		t.Errorf("%d shares sum to %v over %d samples", len(shares), sum, samples)
	}
	if shares["other.host_share_pct"] < 50 {
		t.Errorf("a crc32 loop put only %v%% in other: %v", shares["other.host_share_pct"], shares)
	}
}

func TestIsolatedDriversCoverTheirRows(t *testing.T) {
	have := map[string]bool{}
	for _, d := range drivers() {
		have[d.metric] = true
	}
	for _, m := range perLayer {
		if (m.src == srcIsolated) != have[m.name] {
			t.Errorf("%s: isolated row %v, driver present %v", m.name, m.src == srcIsolated, have[m.name])
		}
	}
}

// TestHostSpeedScalesHostTimeRows: host-time rows are reported on a host of
// nominal speed; nothing else moves.
func TestHostSpeedScalesHostTimeRows(t *testing.T) {
	res := &result{w: workload{name: "w"}}
	for _, wall := range []float64{90, 100, 110} {
		res.reps = append(res.reps, &repResult{ref: 2 * referenceNominal,
			vals: values{"wall_us_per_op": wall, "allocs_per_op": 7, "sim_iops": 120}})
	}
	if got := res.hostSpeed(); got != 0.5 {
		t.Fatalf("host speed = %v, want 0.5 when the reference kernel takes twice its nominal time", got)
	}
	rows, err := res.table(endToEnd)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows["wall_us_per_op"]; got.Value != 50 || got.Min != 45 {
		t.Errorf("wall_us_per_op = %v (min %v), want 50 (45)", got.Value, got.Min)
	}
	if rows["allocs_per_op"].Value != 7 || rows["sim_iops"].Value != 120 {
		t.Errorf("rows that are not host times moved: %v", rows)
	}
	res.reps[0].ref, res.reps[1].ref, res.reps[2].ref = 0, 0, 0
	if got := res.hostSpeed(); got != 1 {
		t.Errorf("host speed = %v without reference samples, want 1", got)
	}
}
