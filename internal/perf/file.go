package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// File is the on-disk schema of BENCH_sim.json: a pre-optimization
// baseline recorded once, the most recent run, and their ratios.
type File struct {
	// Baseline is the pre-optimization reference (recorded with
	// -rebaseline, then left alone so speedups stay comparable).
	Baseline *Report `json:"baseline,omitempty"`
	// Current is the most recent run.
	Current *Report `json:"current,omitempty"`

	// SpeedupEventsPerSec is Current/Baseline events/sec (higher is better).
	SpeedupEventsPerSec float64 `json:"speedup_events_per_sec,omitempty"`
	// AllocsPerOpRatio is Current/Baseline allocs/op (lower is better).
	AllocsPerOpRatio float64 `json:"allocs_per_op_ratio,omitempty"`
}

// load reads the bench file at path; a missing file is an empty record.
func load(path string) (File, error) {
	var f File
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return f, nil
	}
	if err == nil {
		if err = json.Unmarshal(raw, &f); err != nil {
			err = fmt.Errorf("parse %s: %w", path, err)
		}
	}
	return f, err
}

// Guard compares a fresh (tracing-disabled) run against the recorded
// current numbers in the bench file. Both are the same sweep, so the rows
// must pair up by name and each pair agree on ops and sim_events exactly:
// those are simulated, and a difference means a change moved the simulation
// itself — the error names the row. On the host side it errors if events/sec
// collapsed below minRatio of the record, or — when maxAllocsRatio > 0 — if
// allocs/op grew above maxAllocsRatio times it, in aggregate and then per
// row, so a regression confined to one transport shape (the multi-queue row
// regressing while the big serial transfers hide it in the aggregate) still
// fails. minRatio is loose to absorb machine-to-machine variance: the guard
// is for gross regressions — instrumentation hooks that stopped being free
// when disabled, a queueing layer that reintroduced per-op allocations. A
// missing file or record is not an error (nothing to compare).
func Guard(path string, rep Report, minRatio, maxAllocsRatio float64) error {
	f, err := load(path)
	if err != nil {
		return err
	}
	if f.Current == nil || f.Current.EventsPerSec <= 0 {
		return nil
	}
	if rep.EventsPerSec < f.Current.EventsPerSec*minRatio {
		return fmt.Errorf("perf regression: %.0f events/s is below %.0f%% of the recorded %.0f (see %s)",
			rep.EventsPerSec, minRatio*100, f.Current.EventsPerSec, path)
	}
	if maxAllocsRatio > 0 && f.Current.AllocsPerOp > 0 &&
		rep.AllocsPerOp > f.Current.AllocsPerOp*maxAllocsRatio {
		return fmt.Errorf("alloc regression: %.1f allocs/op is above %.2fx the recorded %.1f (see %s)",
			rep.AllocsPerOp, maxAllocsRatio, f.Current.AllocsPerOp, path)
	}
	recorded := make(map[string]Measurement, len(f.Current.Scenarios))
	for _, m := range f.Current.Scenarios {
		recorded[m.Name] = m
	}
	for _, m := range rep.Scenarios {
		rec, ok := recorded[m.Name]
		if !ok {
			return fmt.Errorf("row %s is not in the record: a new or renamed row has no floor until %s is regenerated", m.Name, path)
		}
		delete(recorded, m.Name)
		if m.Ops != rec.Ops || m.SimEvents != rec.SimEvents {
			return fmt.Errorf("simulation moved in %s: %d ops / %d events, recorded %d / %d (see %s)",
				m.Name, m.Ops, m.SimEvents, rec.Ops, rec.SimEvents, path)
		}
		if m.EventsPerSec < rec.EventsPerSec*minRatio {
			return fmt.Errorf("perf regression in %s: %.0f events/s is below %.0f%% of the recorded %.0f (see %s)",
				m.Name, m.EventsPerSec, minRatio*100, rec.EventsPerSec, path)
		}
		if maxAllocsRatio > 0 && m.AllocsPerOp > rec.AllocsPerOp*maxAllocsRatio {
			return fmt.Errorf("alloc regression in %s: %.1f allocs/op is above %.2fx the recorded %.1f (see %s)",
				m.Name, m.AllocsPerOp, maxAllocsRatio, rec.AllocsPerOp, path)
		}
	}
	for _, rec := range f.Current.Scenarios {
		if _, left := recorded[rec.Name]; left {
			return fmt.Errorf("recorded row %s was not run: a dropped or renamed row loses its floor (see %s)", rec.Name, path)
		}
	}
	return nil
}

// GuardParallelSpeedup checks that the partitioned kernel actually scales:
// for every family of "@wN" rows it compares the serial row (@w1) against the
// widest one and requires events/s(widest) >= floor * events/s(serial). The
// nominal floor (minSpeedup, 3.0 for the 32-OSD acceptance target) is scaled
// down to what the host can physically show: the enforced floor is
// min(minSpeedup, speedupPerLane * min(cores, N)), and below 1.05 — one or
// two cores — it is within measurement noise and only reported, with the
// reason, in the returned summary. Simulated fields must be bit-identical
// across the rows of a family regardless of wall clock; that is enforced
// unconditionally. Every summary line that reports a speedup also reports the
// family's events per partition window, so windows gone degenerate show in
// the log even where the floor cannot be enforced.
func GuardParallelSpeedup(rep Report, minSpeedup float64) (string, error) {
	return guardParallelSpeedup(rep, minSpeedup, runtime.NumCPU())
}

// speedupPerLane is the fraction of linear scaling the guard demands per
// usable hardware lane: generous enough to absorb barrier overhead and
// shared-memory contention, tight enough that a serialized "parallel"
// kernel (speedup ~1.0) always fails on a multi-core host.
const speedupPerLane = 0.45

func guardParallelSpeedup(rep Report, minSpeedup float64, cores int) (string, error) {
	type row struct {
		workers int
		m       Measurement
	}
	families := make(map[string][]row)
	for _, m := range rep.Scenarios {
		i := strings.LastIndex(m.Name, "@w")
		if i < 0 {
			continue
		}
		n, err := strconv.Atoi(m.Name[i+2:])
		if err != nil || n <= 0 {
			continue
		}
		base := m.Name[:i]
		families[base] = append(families[base], row{workers: n, m: m})
	}
	if len(families) == 0 {
		return "parallel-speedup: no @wN scenario rows to compare", nil
	}
	names := make([]string, 0, len(families))
	for base := range families {
		names = append(names, base)
	}
	sort.Strings(names)

	var sum strings.Builder
	for _, base := range names {
		rows := families[base]
		sort.Slice(rows, func(i, j int) bool { return rows[i].workers < rows[j].workers })
		serial, widest := rows[0], rows[len(rows)-1]
		// Worker count must not leak into the simulation itself.
		for _, r := range rows[1:] {
			if r.m.SimEvents != serial.m.SimEvents || r.m.Ops != serial.m.Ops {
				return sum.String(), fmt.Errorf(
					"parallel-speedup: determinism violation in %s: @w%d ran %d events/%d ops, @w%d ran %d/%d — worker count leaked into the simulation",
					base, serial.workers, serial.m.SimEvents, serial.m.Ops,
					r.workers, r.m.SimEvents, r.m.Ops)
			}
		}
		if serial.workers != 1 || widest.workers <= serial.workers {
			fmt.Fprintf(&sum, "parallel-speedup %s: skipped (need @w1 plus a wider row, have %d row(s))\n", base, len(rows))
			continue
		}
		if serial.m.EventsPerSec <= 0 || widest.m.EventsPerSec <= 0 {
			fmt.Fprintf(&sum, "parallel-speedup %s: skipped (missing events/s)\n", base)
			continue
		}
		speedup := widest.m.EventsPerSec / serial.m.EventsPerSec
		perWindow := "no window count"
		if w := serial.m.GroupWindows; w > 0 {
			perWindow = fmt.Sprintf("%.0f events/window", float64(serial.m.SimEvents)/float64(w))
		}
		lanes := cores
		if widest.workers < lanes {
			lanes = widest.workers
		}
		floor := speedupPerLane * float64(lanes)
		if minSpeedup < floor {
			floor = minSpeedup
		}
		if floor < 1.05 {
			fmt.Fprintf(&sum, "parallel-speedup %s: %.2fx at w%d, %s (informational; %d core(s) cannot show parallel speedup, floor %.2f < 1.05 not enforced)\n",
				base, speedup, widest.workers, perWindow, cores, floor)
			continue
		}
		if speedup < floor {
			return sum.String(), fmt.Errorf(
				"parallel-speedup: %s ran %.2fx at w%d vs w1, below the %.2fx floor (nominal %.2fx scaled to %d core(s))",
				base, speedup, widest.workers, floor, minSpeedup, cores)
		}
		fmt.Fprintf(&sum, "parallel-speedup %s: %.2fx at w%d, %s (floor %.2fx on %d core(s)) ok\n",
			base, speedup, widest.workers, perWindow, floor, cores)
	}
	return strings.TrimRight(sum.String(), "\n"), nil
}

// UpdateFile folds rep into the bench file at path and rewrites it. A
// missing file starts fresh (the first run becomes its own baseline); a
// present but unparsable file is an error and the file is left untouched —
// the bench gate must fail loudly rather than silently clobber history
// with a partial record.
func UpdateFile(path string, rep Report, rebaseline bool) (File, error) {
	f, err := load(path)
	if err != nil {
		return File{}, err
	}
	f.Current = &rep
	if rebaseline || f.Baseline == nil {
		f.Baseline = &rep
	}
	if f.Baseline.EventsPerSec > 0 {
		f.SpeedupEventsPerSec = f.Current.EventsPerSec / f.Baseline.EventsPerSec
	}
	if f.Baseline.AllocsPerOp > 0 {
		f.AllocsPerOpRatio = f.Current.AllocsPerOp / f.Baseline.AllocsPerOp
	}
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return File{}, err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return File{}, err
	}
	return f, nil
}
