package perf

import (
	"strings"
	"testing"
)

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
