package perf_test

import (
	"math"
	"strings"
	"sync"
	"testing"

	"doceph"
	"doceph/internal/perf"
)

// The sweep's rows are defined in the root package; these tests drive it
// through doceph.RunSimSweep and check what arrives in the Report. They keep
// the names they had when this package ran a sweep of its own, so their
// history in the tier-1 record continues; each says which property of the
// one sweep it now pins.

// shortSweep is one run of the whole sweep, every engagement check live, at a
// short window (most of its cost is assembling the 32- and 128-OSD clusters)
// on three kernel worker counts (the simbench -sim-workers knob).
var shortSweep = sync.OnceValues(func() (perf.Report, error) {
	return doceph.RunSimSweep(doceph.Options{
		Duration: 300 * doceph.Millisecond, Warmup: 250 * doceph.Millisecond, Threads: 4, Workers: []int{1, 2, 8}})
})

func sweepRows(t *testing.T) perf.Report {
	t.Helper()
	rep, err := shortSweep()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func family(rep perf.Report, base string) []perf.Measurement {
	var rows []perf.Measurement
	for _, m := range rep.Scenarios {
		if strings.HasPrefix(m.Name, base+"@w") {
			rows = append(rows, m)
		}
	}
	return rows
}

// TestRunScenarioAccumulates: every row arrives with every field populated
// and the rates consistent with the raw counts.
func TestRunScenarioAccumulates(t *testing.T) {
	for _, m := range sweepRows(t).Scenarios {
		if m.Ops <= 0 || m.SimEvents == 0 || m.WallNs <= 0 || m.AllocsPerOp <= 0 || m.BytesPerOp <= 0 {
			t.Errorf("%s: empty measurement: %+v", m.Name, m)
			continue
		}
		if want := float64(m.WallNs) / float64(m.Ops); math.Abs(m.NsPerOp-want) > 1e-9*want {
			t.Errorf("%s: ns/op = %v, want %v", m.Name, m.NsPerOp, want)
		}
		if want := float64(m.SimEvents) / (float64(m.WallNs) / 1e9); math.Abs(m.EventsPerSec-want) > 1e-9*want {
			t.Errorf("%s: events/s = %v, want %v", m.Name, m.EventsPerSec, want)
		}
	}
}

// TestRunScenarioDegraded: the sweep returned at all, so the degraded row's
// engagement check saw degraded writes and real backfill (the root package's
// TestSimSweepInertArmsFail shows it failing); the row itself completed ops.
func TestRunScenarioDegraded(t *testing.T) {
	for _, m := range sweepRows(t).Scenarios {
		if m.Name == "doceph-degraded-4K" {
			if m.Ops <= 0 {
				t.Fatalf("no ops completed under the degraded schedule: %+v", m)
			}
			return
		}
	}
	t.Fatal("the sweep has no doceph-degraded-4K row")
}

// TestRunScenarioScaleOut: scale-out rows carry the partitioned kernel's
// window count and their own allocations.
func TestRunScenarioScaleOut(t *testing.T) {
	rep := sweepRows(t)
	for _, base := range []string{"doceph-scaleout-32osd", "doceph-scaleout-128osd"} {
		for _, m := range family(rep, base) {
			if m.GroupWindows == 0 || m.AllocsPerOp <= 0 {
				t.Errorf("degenerate scale-out measurement: %+v", m)
			}
		}
	}
}

// TestRunSweepAggregation recomputes the sweep totals from the rows to pin
// the aggregation arithmetic.
func TestRunSweepAggregation(t *testing.T) {
	rep := sweepRows(t)
	var events uint64
	var wallNs, ops int64
	var allocs float64
	for _, m := range rep.Scenarios {
		events += m.SimEvents
		wallNs += m.WallNs
		ops += m.Ops
		allocs += m.AllocsPerOp * float64(m.Ops)
	}
	approx := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9*math.Abs(want) }
	if !approx(rep.EventsPerSec, float64(events)/(float64(wallNs)/1e9)) {
		t.Errorf("events/s = %v", rep.EventsPerSec)
	}
	if !approx(rep.NsPerOp, float64(wallNs)/float64(ops)) {
		t.Errorf("ns/op = %v", rep.NsPerOp)
	}
	if !approx(rep.AllocsPerOp, allocs/float64(ops)) {
		t.Errorf("allocs/op = %v", rep.AllocsPerOp)
	}
}

// TestRunSweepStopsOnError is the regression for the bench gate: a sweep with
// a failing row — here a window too short for the degraded row to see a
// degraded write — must return an error and no partial report for simbench to
// write.
func TestRunSweepStopsOnError(t *testing.T) {
	rep, err := doceph.RunSimSweep(doceph.Options{Duration: doceph.Microsecond, Warmup: doceph.Microsecond, Threads: 1})
	if err == nil {
		t.Fatal("sweep with a failing row returned nil error")
	}
	if len(rep.Scenarios) != 0 {
		t.Errorf("failed sweep returned %d rows", len(rep.Scenarios))
	}
}

// TestDefaultAndSmokeSweepsCarryScaleOutRows: the one sweep carries both
// scale-out families, serial row first.
func TestDefaultAndSmokeSweepsCarryScaleOutRows(t *testing.T) {
	rep := sweepRows(t)
	for _, base := range []string{"doceph-scaleout-32osd", "doceph-scaleout-128osd"} {
		if rows := family(rep, base); len(rows) < 2 || !strings.HasSuffix(rows[0].Name, "@w1") {
			t.Errorf("%s rows missing or unsorted: %+v", base, rows)
		}
	}
}

// TestScaleOutWorkerRows: an explicit worker list becomes one @wN row per
// family and count, in order, after the single-cluster rows.
func TestScaleOutWorkerRows(t *testing.T) {
	rep := sweepRows(t)
	var got []string
	for _, m := range rep.Scenarios {
		if strings.Contains(m.Name, "@w") {
			got = append(got, m.Name)
		}
	}
	want := []string{
		"doceph-scaleout-32osd@w1", "doceph-scaleout-32osd@w2", "doceph-scaleout-32osd@w8",
		"doceph-scaleout-128osd@w1", "doceph-scaleout-128osd@w2", "doceph-scaleout-128osd@w8",
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("got %v want %v", got, want)
	}
	if rep.Scenarios[0].Name != "baseline-1M" || strings.Contains(rep.Scenarios[len(rep.Scenarios)-len(want)-1].Name, "@w") {
		t.Errorf("single-cluster rows do not lead the report: %+v", rep.Scenarios)
	}
}

// TestRunSweepParallelMatchesSerial: the rows a family ran on a parallel
// kernel carry exactly its serial row's simulated counts — only the wall
// clock may move with the worker count.
func TestRunSweepParallelMatchesSerial(t *testing.T) {
	rep := sweepRows(t)
	for _, base := range []string{"doceph-scaleout-32osd", "doceph-scaleout-128osd"} {
		rows := family(rep, base)
		if len(rows) < 2 {
			t.Fatalf("%s: %d rows, want a serial and a parallel one", base, len(rows))
		}
		for _, m := range rows[1:] {
			if s := rows[0]; m.Ops != s.Ops || m.SimEvents != s.SimEvents || m.GroupWindows != s.GroupWindows {
				t.Errorf("%s: %d ops / %d events / %d windows, serial row %d / %d / %d",
					m.Name, m.Ops, m.SimEvents, m.GroupWindows, s.Ops, s.SimEvents, s.GroupWindows)
			}
		}
	}
}
