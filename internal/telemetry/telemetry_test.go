package telemetry

import (
	"math"
	"testing"

	"doceph/internal/sim"
)

func stats(busy map[string]sim.Duration, sw map[string]int64, window sim.Duration, cores int) sim.CPUStats {
	var total sim.Duration
	for _, v := range busy {
		total += v
	}
	return sim.CPUStats{
		WindowStart:   0,
		WindowEnd:     sim.Time(window),
		BusyByCat:     busy,
		SwitchesByCat: sw,
		TotalBusy:     total,
		Cores:         cores,
	}
}

func TestMergeSumsAcrossNodes(t *testing.T) {
	a := stats(map[string]sim.Duration{"msgr-worker": 2 * sim.Second, "bstore": sim.Second},
		map[string]int64{"msgr-worker": 100}, 10*sim.Second, 48)
	b := stats(map[string]sim.Duration{"msgr-worker": 3 * sim.Second},
		map[string]int64{"msgr-worker": 50, "bstore": 7}, 10*sim.Second, 48)
	m := Merge(a, b)
	if m.BusyByCat["msgr-worker"] != 5*sim.Second || m.BusyByCat["bstore"] != sim.Second {
		t.Fatalf("busy=%v", m.BusyByCat)
	}
	if m.SwitchesByCat["msgr-worker"] != 150 || m.SwitchesByCat["bstore"] != 7 {
		t.Fatalf("switches=%v", m.SwitchesByCat)
	}
	if m.TotalBusy != 6*sim.Second || m.Cores != 96 || m.Window != 10*sim.Second {
		t.Fatalf("total=%v cores=%d window=%v", m.TotalBusy, m.Cores, m.Window)
	}
}

func TestSingleCoreUtilization(t *testing.T) {
	a := stats(map[string]sim.Duration{"x": 7 * sim.Second}, nil, 10*sim.Second, 48)
	m := Merge(a)
	if math.Abs(m.SingleCoreUtilization()-0.7) > 1e-9 {
		t.Fatalf("util=%v", m.SingleCoreUtilization())
	}
	if math.Abs(m.CatSingleCoreUtilization("x")-0.7) > 1e-9 {
		t.Fatalf("cat util=%v", m.CatSingleCoreUtilization("x"))
	}
	if math.Abs(m.ShareOf("x")-1.0) > 1e-9 {
		t.Fatalf("share=%v", m.ShareOf("x"))
	}
}

func TestMergeEmpty(t *testing.T) {
	m := Merge()
	if m.SingleCoreUtilization() != 0 || m.ShareOf("x") != 0 {
		t.Fatal("empty merge should be zero")
	}
	if len(m.Categories()) != 0 {
		t.Fatal("categories non-empty")
	}
}

func TestCategoriesSorted(t *testing.T) {
	a := stats(map[string]sim.Duration{"z": 1, "a": 1, "m": 1}, nil, sim.Second, 1)
	cats := Merge(a).Categories()
	if len(cats) != 3 || cats[0] != "a" || cats[1] != "m" || cats[2] != "z" {
		t.Fatalf("cats=%v", cats)
	}
}
