package perf

import (
	"strings"
	"testing"

	"doceph/internal/cluster"
)

func tinyScaleOut(name string, workers int) Scenario {
	return Scenario{
		Name: name, Mode: cluster.DoCeph, ObjectBytes: 64 << 10,
		Threads: 2, DurationSec: 1, WarmupSec: 0, Seed: 3,
		ScaleOutPods: 2, OSDsPerPod: 2, SimWorkers: workers,
	}
}

func TestScaleOutScenarioValidate(t *testing.T) {
	if err := tinyScaleOut("so@w2", 2).Validate(); err != nil {
		t.Fatalf("valid scale-out scenario rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Scenario)
		wants  string
	}{
		{"negative pods", func(sc *Scenario) { sc.ScaleOutPods = -1 }, "scale-out knobs"},
		{"workers without pods", func(sc *Scenario) { sc.ScaleOutPods = 0; sc.OSDsPerPod = 0 }, "scaleout_pods"},
		{"transport knobs", func(sc *Scenario) { sc.DMAQueues = 4 }, "default transport"},
		{"degraded", func(sc *Scenario) { sc.Degraded = true }, "default transport"},
	}
	for _, tc := range cases {
		sc := tinyScaleOut("so@w2", 2)
		tc.mutate(&sc)
		err := sc.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.wants) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.wants)
		}
	}
}

func TestRunScenarioScaleOut(t *testing.T) {
	m, err := RunScenario(tinyScaleOut("so@w2", 2))
	if err != nil {
		t.Fatal(err)
	}
	if m.Ops == 0 || m.SimEvents == 0 || m.EventsPerSec <= 0 || m.GroupWindows == 0 {
		t.Fatalf("degenerate measurement: %+v", m)
	}
	if m.AllocsPerOp <= 0 {
		t.Fatalf("allocs/op not attributed: %+v", m)
	}
}

func TestDefaultAndSmokeSweepsCarryScaleOutRows(t *testing.T) {
	for _, sweep := range [][]Scenario{DefaultSweep(), SmokeSweep()} {
		var found []string
		for _, sc := range sweep {
			if err := sc.Validate(); err != nil {
				t.Fatal(err)
			}
			if sc.ScaleOutPods > 0 {
				if n := sc.ScaleOutPods * sc.OSDsPerPod; n != 32 && n != 128 {
					t.Fatalf("%s: %dx%d OSDs, want 32 or 128", sc.Name, sc.ScaleOutPods, sc.OSDsPerPod)
				}
				found = append(found, sc.Name)
			}
		}
		if len(found) < 4 || !strings.HasSuffix(found[0], "@w1") {
			t.Fatalf("scale-out rows missing or unsorted: %v", found)
		}
		var got128 bool
		for _, name := range found {
			if strings.Contains(name, "128osd") {
				got128 = true
			}
		}
		if !got128 {
			t.Fatalf("128-OSD rows missing: %v", found)
		}
	}
}

func TestScaleOutWorkerRows(t *testing.T) {
	rows := ScaleOutWorkerRows(DefaultSweep(), []int{1, 2, 8})
	var got []string
	for _, sc := range rows {
		if sc.ScaleOutPods > 0 {
			got = append(got, sc.Name)
			if sc.SimWorkers != 1 && sc.SimWorkers != 2 && sc.SimWorkers != 8 {
				t.Fatalf("%s: workers=%d", sc.Name, sc.SimWorkers)
			}
		}
	}
	want := []string{
		"doceph-scaleout-32osd@w1", "doceph-scaleout-32osd@w2", "doceph-scaleout-32osd@w8",
		"doceph-scaleout-128osd@w1", "doceph-scaleout-128osd@w2", "doceph-scaleout-128osd@w8",
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("got %v want %v", got, want)
	}
	// Non-scale-out rows pass through in place.
	if rows[0].Name != DefaultSweep()[0].Name {
		t.Fatalf("leading row moved: %s", rows[0].Name)
	}
}

func speedupReport(serialEPS, wideEPS float64, wideWorkers int, events uint64) Report {
	return Report{Scenarios: []Measurement{
		{Name: "so@w1", EventsPerSec: serialEPS, SimEvents: events, Ops: 10},
		{Name: "so@w" + string(rune('0'+wideWorkers)), EventsPerSec: wideEPS, SimEvents: events, Ops: 10},
	}}
}

func TestGuardParallelSpeedup(t *testing.T) {
	// 8 cores, 8 workers: the nominal 3x floor is enforced.
	if sum, err := guardParallelSpeedup(speedupReport(100, 350, 8, 5), 3.0, 8); err != nil {
		t.Fatalf("3.5x at 8 cores failed: %v (%s)", err, sum)
	}
	if _, err := guardParallelSpeedup(speedupReport(100, 120, 8, 5), 3.0, 8); err == nil {
		t.Fatal("1.2x at 8 cores passed a 3x floor")
	}
	// 4 cores: floor scales to 0.45*4 = 1.8x.
	if _, err := guardParallelSpeedup(speedupReport(100, 200, 8, 5), 3.0, 4); err != nil {
		t.Fatal("2.0x at 4 cores should clear the scaled 1.8x floor")
	}
	if _, err := guardParallelSpeedup(speedupReport(100, 150, 8, 5), 3.0, 4); err == nil {
		t.Fatal("1.5x at 4 cores passed the scaled 1.8x floor")
	}
	// 1 core: unenforceable, skipped with the reason in the summary.
	sum, err := guardParallelSpeedup(speedupReport(100, 101, 8, 5), 3.0, 1)
	if err != nil {
		t.Fatalf("single-core guard errored: %v", err)
	}
	if !strings.Contains(sum, "cannot show parallel speedup") {
		t.Fatalf("skip reason missing: %q", sum)
	}
	// Events per window ride on the summary line whether or not the floor is
	// enforced: the single-core CI runner still shows degenerate windows.
	for _, cores := range []int{1, 8} {
		rep := speedupReport(100, 400, 8, 5000)
		rep.Scenarios[0].GroupWindows, rep.Scenarios[1].GroupWindows = 4, 4
		if sum, _ := guardParallelSpeedup(rep, 3.0, cores); !strings.Contains(sum, "1250 events/window") {
			t.Fatalf("cores=%d: summary %q lacks events per window", cores, sum)
		}
	}
	// No @wN rows at all: nothing to compare.
	if sum, err := guardParallelSpeedup(Report{Scenarios: []Measurement{{Name: "doceph-1M"}}}, 3.0, 8); err != nil || !strings.Contains(sum, "no @wN") {
		t.Fatalf("sum=%q err=%v", sum, err)
	}
}

func TestGuardParallelSpeedupCatchesDeterminismDrift(t *testing.T) {
	rep := speedupReport(100, 400, 8, 5)
	rep.Scenarios[1].SimEvents = 6 // differs from the serial row
	_, err := guardParallelSpeedup(rep, 3.0, 8)
	if err == nil || !strings.Contains(err.Error(), "determinism violation") {
		t.Fatalf("err=%v", err)
	}
	// Even on a single core — determinism is wall-clock independent.
	if _, err := guardParallelSpeedup(rep, 3.0, 1); err == nil {
		t.Fatal("single-core run skipped the determinism cross-check")
	}
}
