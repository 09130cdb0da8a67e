package perf

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestReportJSONRoundTrip(t *testing.T) {
	rep := Report{
		Scenarios: []Measurement{{
			Name: "x", Ops: 10, SimEvents: 1000, WallNs: 5000,
			EventsPerSec: 2e8, NsPerOp: 500, AllocsPerOp: 1.5, BytesPerOp: 64,
		}},
		EventsPerSec: 2e8, AllocsPerOp: 1.5, NsPerOp: 500,
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rep) {
		t.Errorf("round trip changed the report:\n got  %+v\n want %+v", got, rep)
	}
}

func TestUpdateFileLifecycle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")

	// First run on a missing file: becomes its own baseline, ratios 1.0.
	first := Report{EventsPerSec: 100, AllocsPerOp: 4, NsPerOp: 10}
	f, err := UpdateFile(path, first, false)
	if err != nil {
		t.Fatal(err)
	}
	if f.Baseline == nil || f.Baseline.EventsPerSec != 100 {
		t.Fatalf("first run did not self-baseline: %+v", f)
	}
	if f.SpeedupEventsPerSec != 1 || f.AllocsPerOpRatio != 1 {
		t.Errorf("self-comparison ratios = %v, %v, want 1, 1",
			f.SpeedupEventsPerSec, f.AllocsPerOpRatio)
	}

	// Second run: baseline sticks, current and ratios move.
	second := Report{EventsPerSec: 200, AllocsPerOp: 2, NsPerOp: 5}
	f, err = UpdateFile(path, second, false)
	if err != nil {
		t.Fatal(err)
	}
	if f.Baseline.EventsPerSec != 100 || f.Current.EventsPerSec != 200 {
		t.Fatalf("baseline did not stick: %+v", f)
	}
	if f.SpeedupEventsPerSec != 2 || f.AllocsPerOpRatio != 0.5 {
		t.Errorf("ratios = %v, %v, want 2, 0.5",
			f.SpeedupEventsPerSec, f.AllocsPerOpRatio)
	}

	// Rebaseline: baseline jumps to the new run.
	f, err = UpdateFile(path, second, true)
	if err != nil {
		t.Fatal(err)
	}
	if f.Baseline.EventsPerSec != 200 || f.SpeedupEventsPerSec != 1 {
		t.Errorf("rebaseline did not take: %+v", f)
	}

	// The file must survive a reload round trip.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var reload File
	if err := json.Unmarshal(raw, &reload); err != nil {
		t.Fatal(err)
	}
	if reload.Baseline.EventsPerSec != 200 || reload.Current.EventsPerSec != 200 {
		t.Errorf("reloaded file diverged: %+v", reload)
	}
}

func TestGuard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")

	// Nothing recorded yet: nothing to compare.
	if err := Guard(path, Report{EventsPerSec: 1}, 0.3, 2); err != nil {
		t.Errorf("missing file must pass: %v", err)
	}

	if _, err := UpdateFile(path, Report{EventsPerSec: 1000, AllocsPerOp: 50}, false); err != nil {
		t.Fatal(err)
	}
	if err := Guard(path, Report{EventsPerSec: 400, AllocsPerOp: 60}, 0.3, 2); err != nil {
		t.Errorf("run above the floor rejected: %v", err)
	}
	err := Guard(path, Report{EventsPerSec: 200}, 0.3, 2)
	if err == nil || !strings.Contains(err.Error(), "perf regression") {
		t.Errorf("collapsed run accepted: %v", err)
	}

	// The allocs/op ceiling: events/sec fine, allocations ballooned.
	err = Guard(path, Report{EventsPerSec: 1000, AllocsPerOp: 150}, 0.3, 2)
	if err == nil || !strings.Contains(err.Error(), "alloc regression") {
		t.Errorf("alloc blow-up accepted: %v", err)
	}
	// Ceiling disabled with maxAllocsRatio 0.
	if err := Guard(path, Report{EventsPerSec: 1000, AllocsPerOp: 150}, 0.3, 0); err != nil {
		t.Errorf("disabled alloc ceiling must pass: %v", err)
	}

	// ops and sim_events are simulated: a fresh row must carry exactly the
	// recorded pair, and the error names the row and shows both pairs.
	row := func(name string, ops int64, events uint64) Measurement {
		return Measurement{Name: name, Ops: ops, SimEvents: events, EventsPerSec: 900, AllocsPerOp: 40}
	}
	rec := Report{EventsPerSec: 1000, AllocsPerOp: 50,
		Scenarios: []Measurement{row("doceph-1M", 924, 111908), row("doceph-4M", 330, 54508)}}
	if _, err := UpdateFile(path, rec, false); err != nil {
		t.Fatal(err)
	}
	if err := Guard(path, rec, 0.3, 1.1); err != nil {
		t.Errorf("the recorded run itself rejected: %v", err)
	}
	for _, tc := range []struct {
		name  string
		moved Measurement
		pair  string
	}{
		{"ops moved", row("doceph-4M", 331, 54508), "331 ops / 54508 events"},
		{"events moved", row("doceph-4M", 330, 54510), "330 ops / 54510 events"},
	} {
		fresh := rec
		fresh.Scenarios = []Measurement{rec.Scenarios[0], tc.moved}
		err := Guard(path, fresh, 0.3, 1.1)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		for _, w := range []string{"simulation moved in doceph-4M", tc.pair, "recorded 330 / 54508"} {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q lacks %q", tc.name, err, w)
			}
		}
	}

	if err := os.WriteFile(path, []byte("{bad"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Guard(path, Report{EventsPerSec: 1000}, 0.3, 2); err == nil {
		t.Error("corrupt guard file must error, not silently pass")
	}
}

// TestUpdateFileRefusesCorruptHistory is the no-partial-JSON regression:
// if the existing bench file cannot be parsed, UpdateFile must error and
// leave the file byte-identical instead of overwriting history.
func TestUpdateFileRefusesCorruptHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	corrupt := []byte(`{"baseline": {truncated`)
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := UpdateFile(path, Report{EventsPerSec: 1}, false); err == nil {
		t.Fatal("UpdateFile accepted a corrupt history file")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(corrupt) {
		t.Error("UpdateFile modified the file despite erroring")
	}
}

// TestGuardPerScenario: a collapse confined to one scenario must fail the
// guard even when the aggregate stays healthy, and so must a row that exists
// on one side only.
func TestGuardPerScenario(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	rec := Report{
		EventsPerSec: 1000, AllocsPerOp: 50,
		Scenarios: []Measurement{
			{Name: "big", EventsPerSec: 900, AllocsPerOp: 40},
			{Name: "mq", EventsPerSec: 800, AllocsPerOp: 60},
		},
	}
	if _, err := UpdateFile(path, rec, false); err != nil {
		t.Fatal(err)
	}
	healthy := Report{
		EventsPerSec: 950, AllocsPerOp: 55,
		Scenarios: []Measurement{
			{Name: "big", EventsPerSec: 850, AllocsPerOp: 45},
			{Name: "mq", EventsPerSec: 700, AllocsPerOp: 65},
		},
	}
	if err := Guard(path, healthy, 0.3, 2); err != nil {
		t.Errorf("healthy per-scenario run rejected: %v", err)
	}
	collapsed := healthy
	collapsed.Scenarios = []Measurement{
		{Name: "big", EventsPerSec: 850, AllocsPerOp: 45},
		{Name: "mq", EventsPerSec: 100, AllocsPerOp: 65},
	}
	err := Guard(path, collapsed, 0.3, 2)
	if err == nil || !strings.Contains(err.Error(), "mq") {
		t.Errorf("per-scenario collapse accepted: %v", err)
	}
	bloated := healthy
	bloated.Scenarios = []Measurement{
		{Name: "big", EventsPerSec: 850, AllocsPerOp: 45},
		{Name: "mq", EventsPerSec: 700, AllocsPerOp: 200},
	}
	err = Guard(path, bloated, 0.3, 2)
	if err == nil || !strings.Contains(err.Error(), "mq") {
		t.Errorf("per-scenario alloc blow-up accepted: %v", err)
	}
	// The fresh run and the record are the same sweep: a row on one side
	// only — renamed, added or dropped — has no floor to be held to, and a
	// row whose simulated counts moved is not the recorded run any more.
	// Each is an error that names the row.
	for _, tc := range []struct {
		name  string
		rows  []Measurement
		wants []string
	}{
		{"renamed row", []Measurement{
			{Name: "big", EventsPerSec: 850, AllocsPerOp: 45},
			{Name: "mq-renamed", EventsPerSec: 700, AllocsPerOp: 65}}, []string{"mq-renamed", "not in the record"}},
		{"added row", append(append([]Measurement{}, healthy.Scenarios...),
			Measurement{Name: "new-scenario", EventsPerSec: 1}), []string{"new-scenario", "not in the record"}},
		{"dropped row", healthy.Scenarios[:1], []string{"mq", "was not run"}},
		{"unmeasured allocs are zero, not skipped", []Measurement{
			{Name: "big", EventsPerSec: 850},
			{Name: "mq", EventsPerSec: 700, AllocsPerOp: 65}}, nil},
		{"unmeasured events/s is a collapse", []Measurement{
			{Name: "big", AllocsPerOp: 45},
			{Name: "mq", EventsPerSec: 700, AllocsPerOp: 65}}, []string{"perf regression in big"}},
	} {
		rep := healthy
		rep.Scenarios = tc.rows
		err := Guard(path, rep, 0.3, 2)
		if tc.wants == nil {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		for _, w := range tc.wants {
			if err == nil || !strings.Contains(err.Error(), w) {
				t.Errorf("%s: err = %v, want containing %q", tc.name, err, w)
			}
		}
	}
}
