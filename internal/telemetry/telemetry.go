// Package telemetry aggregates measurement data across a simulated cluster:
// merged per-category CPU accounting (the paper's Figure 5/7 and Table 2
// inputs).
package telemetry

import (
	"sort"

	"doceph/internal/sim"
)

// MergedCPU is the union of several CPUs' accounting windows.
type MergedCPU struct {
	BusyByCat     map[string]sim.Duration
	SwitchesByCat map[string]int64
	TotalBusy     sim.Duration
	Window        sim.Duration
	Cores         int
}

// Merge combines stats snapshots (typically one per storage node). Windows
// are assumed aligned (same reset instant), as the harness guarantees.
func Merge(stats ...sim.CPUStats) MergedCPU {
	m := MergedCPU{
		BusyByCat:     make(map[string]sim.Duration),
		SwitchesByCat: make(map[string]int64),
	}
	for _, s := range stats {
		for k, v := range s.BusyByCat {
			m.BusyByCat[k] += v
		}
		for k, v := range s.SwitchesByCat {
			m.SwitchesByCat[k] += v
		}
		m.TotalBusy += s.TotalBusy
		m.Cores += s.Cores
		if w := s.WindowEnd.Sub(s.WindowStart); w > m.Window {
			m.Window = w
		}
	}
	return m
}

// SingleCoreUtilization reports total busy time as a fraction of ONE core's
// time — the paper's normalization ("Ceph CPU usage normalized to a single
// core", Figure 5 right axis; Figure 7 uses the same scale).
func (m MergedCPU) SingleCoreUtilization() float64 {
	if m.Window <= 0 {
		return 0
	}
	return m.TotalBusy.Seconds() / m.Window.Seconds()
}

// CatSingleCoreUtilization is SingleCoreUtilization for one category.
func (m MergedCPU) CatSingleCoreUtilization(cat string) float64 {
	if m.Window <= 0 {
		return 0
	}
	return m.BusyByCat[cat].Seconds() / m.Window.Seconds()
}

// ShareOf returns cat's fraction of total busy time.
func (m MergedCPU) ShareOf(cat string) float64 {
	if m.TotalBusy <= 0 {
		return 0
	}
	return m.BusyByCat[cat].Seconds() / m.TotalBusy.Seconds()
}

// Categories returns the categories present, sorted.
func (m MergedCPU) Categories() []string {
	out := make([]string, 0, len(m.BusyByCat))
	for k := range m.BusyByCat {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
