package doceph

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"doceph/internal/cluster"
	"doceph/internal/perf"
)

// TestSimSweepRowsAreTheRecordsRows: the sweep's row names, in order, are the
// keys of BENCH_sim.json's current block — what perf.Guard pairs a fresh run
// with. A renamed or reordered row must come with a regenerated record. (What
// the rows measure is checked from a short run of the whole sweep in
// internal/perf's sweep_test.go.)
func TestSimSweepRowsAreTheRecordsRows(t *testing.T) {
	raw, err := os.ReadFile("BENCH_sim.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec perf.File
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, m := range rec.Current.Scenarios {
		want = append(want, m.Name)
	}
	for _, c := range simSweepCells {
		got = append(got, c.name)
	}
	for _, f := range simSweepFamilies {
		for _, w := range simSweepWorkers {
			got = append(got, workerRow(f.name, w))
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sweep rows\n  %v\nBENCH_sim.json records\n  %v", got, want)
	}
}

// TestSimSweepInertArmsFail is TestInertCellFailsTheRun for the checks the
// sweep brought to the shared runners: a degraded row whose outage was never
// scheduled, and a scale-out run whose balance-reads knob has no reads to
// balance, must fail rather than be measured under the wrong name.
func TestSimSweepInertArmsFail(t *testing.T) {
	opts := Options{Duration: Second, Warmup: 250 * Millisecond, Threads: 4}.withDefaults()
	var degraded cell
	for _, c := range simSweepCells {
		if c.name == "doceph-degraded-4K" {
			degraded = c
		}
	}
	if _, err := runWorkloadCfg(degraded, opts); err != nil {
		t.Fatalf("armed degraded row rejected: %v", err)
	}
	degraded.arm = nil
	if _, err := runWorkloadCfg(degraded, opts); err == nil || !strings.Contains(err.Error(), "not engaged") {
		t.Errorf("degraded row without its outage not caught: %v", err)
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
