// Package perf is the bookkeeping side of the simulator-throughput sweep: how
// one run's host cost becomes a Measurement and rows a Report, the
// BENCH_sim.json record and its guards (file.go), and the scale-out load
// imbalance figures (imbalance.go). What the sweep runs is defined once, as
// cells on the experiments' own runner, in the root package
// (doceph.RunSimSweep).
package perf

import "runtime"

// Measurement is the outcome of one row of the sweep.
type Measurement struct {
	Name string `json:"name"`

	// Simulated-side results: a pure function of the row, which Guard holds
	// to the record exactly.
	Ops       int64  `json:"ops"`
	SimEvents uint64 `json:"sim_events"`
	// GroupWindows is the number of partition windows the partitioned
	// kernel dispatched (scale-out rows only): SimEvents/GroupWindows is
	// how much work each barrier synchronization bought.
	GroupWindows uint64 `json:"group_windows,omitempty"`

	// Wall-clock-side results.
	WallNs       int64   `json:"wall_ns"`
	EventsPerSec float64 `json:"events_per_sec"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	BytesPerOp   float64 `json:"bytes_per_op"`
}

// Report aggregates a sweep.
type Report struct {
	Scenarios []Measurement `json:"scenarios"`

	// Aggregates across the sweep: total events over total wall time, and
	// total allocations over total completed ops — the two numbers the
	// acceptance gate compares.
	EventsPerSec float64 `json:"events_per_sec"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	NsPerOp      float64 `json:"ns_per_op"`
}

// Measure executes run — assembly, simulation and teardown of one testbed —
// and completes the row it returns: run fills in the simulated counts and
// WallNs, the host time of the simulation proper; Measure derives the rates.
// Heap counters are process-wide, so callers measure one run at a time. It
// is deliberately coarse (ReadMemStats deltas around the run): the point is
// trajectory tracking, not nanosecond benchmarking.
func Measure(run func() (Measurement, error)) (Measurement, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := run()
	runtime.ReadMemStats(&after)
	if err != nil {
		return Measurement{}, err
	}
	if m.WallNs > 0 {
		m.EventsPerSec = float64(m.SimEvents) / (float64(m.WallNs) / 1e9)
	}
	if m.Ops > 0 {
		m.NsPerOp = float64(m.WallNs) / float64(m.Ops)
		m.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(m.Ops)
		m.BytesPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(m.Ops)
	}
	return m, nil
}

// NewReport aggregates rows: events/s and ns/op over the summed wall time,
// allocs/op as the exact op-weighted mean of the rows.
func NewReport(rows []Measurement) Report {
	rep := Report{Scenarios: rows}
	var events uint64
	var wallNs, ops int64
	var allocs float64
	for _, m := range rows {
		events += m.SimEvents
		wallNs += m.WallNs
		ops += m.Ops
		allocs += m.AllocsPerOp * float64(m.Ops)
	}
	if wallNs > 0 {
		rep.EventsPerSec = float64(events) / (float64(wallNs) / 1e9)
	}
	if ops > 0 {
		rep.AllocsPerOp = allocs / float64(ops)
		rep.NsPerOp = float64(wallNs) / float64(ops)
	}
	return rep
}
