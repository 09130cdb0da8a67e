package doceph

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"doceph/internal/cluster"
)

// gridExperiments are the entries built from cells + columns; their tables
// contain simulated quantities only, so two runs must render identically.
var gridExperiments = map[string]bool{
	"profile": true, "sweep": true, "read": true, "stability": true, "scale": true,
	"ablation": true, "smallops": true, "mq": true, "streaming": true, "readpath": true,
}

func TestRegistryNamesUniqueAndNonEmpty(t *testing.T) {
	seen := map[string]bool{"all": true, "smoke": true, "list": true} // reserved
	for _, name := range ExperimentNames() {
		if name == "" {
			t.Error("empty experiment name")
		}
		if key := strings.ToLower(name); seen[key] {
			t.Errorf("duplicate or reserved experiment name %q", name)
		} else {
			seen[key] = true
		}
	}
	grids := 0
	for _, e := range registry {
		if e.Doc == "" || e.Run == nil {
			t.Errorf("%s: missing Doc or Run", e.Name)
		}
		if gridExperiments[e.Name] {
			grids++
		}
	}
	if grids != len(gridExperiments) {
		t.Errorf("registry has %d of the %d grid experiments", grids, len(gridExperiments))
	}
}

func TestSelect(t *testing.T) {
	all, err := Select("all")
	if err != nil {
		t.Fatal(err)
	}
	var paper []string
	for _, e := range registry {
		if e.Paper {
			paper = append(paper, e.Name)
		}
	}
	if len(all) != len(paper) {
		t.Fatalf("all selects %d entries, registry has %d Paper entries", len(all), len(paper))
	}
	for i, s := range all {
		if s.Name != paper[i] || s.Only != -1 {
			t.Errorf("all[%d] = %s (only %d), want %s in registry order", i, s.Name, s.Only, paper[i])
		}
	}
	if smoke, err := Select("smoke"); err != nil || len(smoke) != len(registry) {
		t.Errorf("smoke selects %d of %d entries (err %v)", len(smoke), len(registry), err)
	}
	for _, e := range registry {
		if s, err := Select(strings.ToUpper(e.Name)); err != nil || len(s) != 1 || s[0].Name != e.Name || s[0].Only != -1 {
			t.Errorf("Select(%q) = %v, %v", e.Name, s, err)
		}
		for i, sub := range e.Sub {
			if s, err := Select(sub); err != nil || len(s) != 1 || s[0].Name != e.Name || s[0].Only != i {
				t.Errorf("Select(%q) = %v, %v; want table %d of %s", sub, s, err, i, e.Name)
			}
		}
	}
	_, err = Select("nosuch")
	if err == nil {
		t.Fatal("unknown experiment selected something")
	}
	for _, name := range ExperimentNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-experiment error does not list %q: %v", name, err)
		}
	}
}

// TestRegistryEntriesRun drives every entry the way `make smoke` does — at
// its smoke window, to completion, with every engagement check live — only
// lighter still: 4 MB objects, so the 20-30 s fault runs issue few
// ops (their own tests assert the arcs at the real sizes). Entries with Sub
// tables must return exactly those; grid entries run twice and must render
// byte-identical tables at the same seed.
func TestRegistryEntriesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at its smoke window")
	}
	// The fault and scale-out entries are single-goroutine for long
	// stretches; sharing the parallel phase keeps the other core busy.
	t.Parallel()
	tiny := Options{ObjectBytes: 4 << 20}
	smoke, err := Select("smoke")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range smoke {
		t.Run(s.Name, func(t *testing.T) {
			tables, err := s.Run(Smoke, tiny)
			if err != nil {
				t.Fatal(err)
			}
			nonEmpty(t, tables)
			if len(s.Sub) > 0 && len(tables) != len(s.Sub) {
				t.Fatalf("%d tables for Sub %v", len(tables), s.Sub)
			}
			for i := range s.Sub {
				if one := (Selection{s.Experiment, i}).pick(tables); len(one) != 1 || one[0] != tables[i] {
					t.Errorf("Sub %q does not narrow to table %d", s.Sub[i], i)
				}
			}
			if !gridExperiments[s.Name] {
				return
			}
			again, err := s.Run(Smoke, tiny)
			if err != nil {
				t.Fatal(err)
			}
			for i := range tables {
				if a, b := tables[i].String(), again[i].String(); a != b {
					t.Errorf("table %d differs across runs at the same seed:\n%s\n%s", i, a, b)
				}
			}
		})
	}
}

// TestInertCellFailsTheRun registers a deliberately inert arm — it declares
// the batching engagement check but never switches batching on — and expects
// the runner to refuse it, which is what makes `make smoke` fail on a knob
// that silently stopped doing anything.
func TestInertCellFailsTheRun(t *testing.T) {
	opts := Options{Duration: 300 * Millisecond, Warmup: 100 * Millisecond, Threads: 2}
	live := cell{name: "live", mode: DoCeph, size: 64 << 10, mut: batchOn, engaged: batchedEngaged}
	inert := cell{name: "inert", mode: DoCeph, size: 64 << 10, engaged: batchedEngaged}
	if _, err := runCells(opts, []cell{live}); err != nil {
		t.Fatalf("live cell rejected: %v", err)
	}
	_, err := runCells(opts, []cell{live, inert})
	if err == nil || !strings.Contains(err.Error(), "inert") || !strings.Contains(err.Error(), "not engaged") {
		t.Fatalf("inert cell not caught: %v", err)
	}
	// The same through a registry-shaped Run func.
	run := grid(func(Options) []cell { return []cell{inert} }, ablationTables)
	if _, err := run(opts); err == nil {
		t.Fatal("grid() swallowed the engagement failure")
	}
}

// TestSimSweepInertArmsFail is TestInertCellFailsTheRun for the checks that
// live in the runners themselves: the golden degraded cell without its
// scheduled outage, and a scale-out run whose balance-reads knob has no reads
// to balance, must fail rather than be measured under the wrong name.
func TestSimSweepInertArmsFail(t *testing.T) {
	opts := Options{Duration: Second, Warmup: 250 * Millisecond, Threads: 4}.withDefaults()
	var degraded cell
	for _, c := range goldenCells {
		if c.name == "doceph-degraded-4K" {
			degraded = c
		}
	}
	if _, err := runWorkloadCfg(degraded, opts); err != nil {
		t.Fatalf("armed degraded cell rejected: %v", err)
	}
	degraded.arm = nil
	if _, err := runWorkloadCfg(degraded, opts); err == nil || !strings.Contains(err.Error(), "not engaged") {
		t.Errorf("degraded cell without its outage not caught: %v", err)
	}

	tiny := cluster.ScaleOutConfig{Pods: 2, OSDsPerPod: 2, Mode: DoCeph, Seed: 3, Threads: 2, ObjectBytes: 64 << 10,
		ReadPercent: 70, Duration: 200 * Millisecond, Warmup: 50 * Millisecond, BalanceReads: true, CollectImbalance: true}
	if _, err := sweepWorkers(tiny, []int{2}); err != nil {
		t.Fatalf("balanced 70%%-read run rejected: %v", err)
	}
	tiny.ReadPercent = 0
	if _, err := sweepWorkers(tiny, []int{2}); err == nil || !strings.Contains(err.Error(), "not engaged: balance-reads") {
		t.Errorf("balance-reads on a write-only workload not caught: %v", err)
	}
}

func TestParseWorkers(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []int
	}{
		{"1,2,8", []int{1, 2, 8}},
		{" 1, 4 ,8 ", []int{1, 4, 8}},
		{"3", []int{3}},
		{"", nil},
		{"0", nil},
		{"1,,2", nil},
		{"-2", nil},
		{"x", nil},
	} {
		got, err := ParseWorkers(tc.in)
		if tc.want == nil {
			if err == nil || !strings.Contains(err.Error(), "-sim-workers") {
				t.Errorf("ParseWorkers(%q) = %v, %v; want an error naming the flag", tc.in, got, err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseWorkers(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

// TestReadmeExperimentTable keeps README.md's experiment table identical to
// what the registry renders (and `docephbench -exp list` prints).
func TestReadmeExperimentTable(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- experiments:begin -->", "<!-- experiments:end -->"
	readme := string(raw)
	i, j := strings.Index(readme, begin), strings.Index(readme, end)
	if i < 0 || j < i {
		t.Fatalf("README.md lacks the %s / %s markers", begin, end)
	}
	trim := func(s string) string {
		var lines []string
		for _, l := range strings.Split(strings.TrimSpace(s), "\n") {
			lines = append(lines, strings.TrimRight(l, " "))
		}
		return strings.Join(lines, "\n")
	}
	got := trim(strings.Trim(strings.TrimSpace(readme[i+len(begin):j]), "`"))
	if want := trim(ExperimentList().String()); got != want {
		t.Errorf("README.md experiment table is stale; paste `go run ./cmd/docephbench -exp list` between the markers:\n%s", want)
	}
}

// TestParallelRunnerDeterministicOrderedOutput is the race-mode smoke for
// the parallel experiment runner: the multi-queue sweep fans its cells out
// over worker goroutines, and two invocations must produce element-wise
// identical, sweep-ordered results. Run under -race (the CI smoke does)
// this also exercises the runner's only cross-goroutine state.
func TestParallelRunnerDeterministicOrderedOutput(t *testing.T) {
	opts := Options{Duration: 400 * Millisecond, Warmup: 100 * Millisecond,
		Threads: 4, Seed: 42}
	queues := []int{1, 2}
	sizes := []int64{8 << 10}
	a, err := runCells(opts, mqCells(queues, sizes))
	if err != nil {
		t.Fatal(err)
	}
	b, err := runCells(opts, mqCells(queues, sizes))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(queues)*len(sizes) {
		t.Fatalf("got %d cells", len(a))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("cell %d differs across runs:\n 1: %+v\n 2: %+v", i, a[i], b[i])
		}
		if a[i].engQueues != queues[i%len(queues)] || a[i].size != sizes[i/len(queues)] {
			t.Errorf("cell %d out of sweep order: %+v", i, a[i])
		}
		if a[i].bench.IOPS() <= 0 {
			t.Errorf("cell %d empty: %+v", i, a[i])
		}
	}
	if x, y := mqTables(a)[0].String(), mqTables(b)[0].String(); x != y {
		t.Errorf("tables differ across runs:\n%s\n%s", x, y)
	}
}

// TestSelectionRejectsInvalidOptions: options no experiment can run with —
// docephbench's -seconds -1 or -threads -2 among them — fail the selection
// with an error naming the field, on a grid entry and on a fault entry alike,
// before anything runs.
func TestSelectionRejectsInvalidOptions(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   Options
	}{
		{"Duration", Options{Duration: -Second}},
		{"Warmup", Options{Warmup: -Second}},
		{"Threads", Options{Threads: -2}},
		{"ObjectBytes", Options{ObjectBytes: -1}},
	} {
		for _, name := range []string{"mq", "chaos"} {
			s, err := Select(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s[0].Run(Smoke, tc.set); err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("%s with %+v: %v; want an error naming %s", name, tc.set, err, tc.field)
			}
		}
	}
}
