package doceph

// One benchmark per table and figure of the paper's evaluation section.
// Each regenerates its experiment from a fresh simulated cluster and
// reports the headline quantities as custom benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. The runs use QuickOptions (8 s measured
// window instead of the paper's 60 s); cmd/docephbench without -quick runs
// the full-length methodology.

import (
	"sync"
	"testing"
)

// The size-sweep experiments (Figures 7-10, Table 3) share one sweep per
// bench binary invocation; recomputing it five times would only re-measure
// the same deterministic simulation.
var (
	sweepOnce sync.Once
	sweepRows [][]runResult // per size: Baseline, DoCeph
	sweepErr  error
)

func sweep(b *testing.B) [][]runResult {
	b.Helper()
	sweepOnce.Do(func() {
		var rs []runResult
		rs, sweepErr = runCells(QuickOptions(), versus(PaperSizes, BenchConfig{}))
		sweepRows = groups(rs, 2)
	})
	if sweepErr != nil {
		b.Fatal(sweepErr)
	}
	return sweepRows
}

var (
	profOnce sync.Once
	prof     []runResult // 1 Gbps, 100 Gbps
	profErr  error
)

func profile(b *testing.B) (oneG, hundredG runResult) {
	b.Helper()
	profOnce.Do(func() {
		prof, profErr = runCells(QuickOptions(), profileCells)
	})
	if profErr != nil {
		b.Fatal(profErr)
	}
	return prof[0], prof[1]
}

func BenchmarkFig5_CPUBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		oneG, hundredG := profile(b)
		b.ReportMetric(hundredG.msgrShare*100, "msgr-share-%")
		b.ReportMetric(hundredG.hostUtil*100, "ceph-cpu-100G-%")
		b.ReportMetric(oneG.hostUtil*100, "ceph-cpu-1G-%")
	}
}

func BenchmarkFig6_ThroughputByLink(b *testing.B) {
	for i := 0; i < b.N; i++ {
		oneG, hundredG := profile(b)
		b.ReportMetric(oneG.mbps(), "MBps-1G")
		b.ReportMetric(hundredG.mbps(), "MBps-100G")
	}
}

func BenchmarkTable2_ContextSwitches(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, p := profile(b)
		ratio := 0.0
		if p.objSw > 0 {
			ratio = float64(p.msgrSw) / float64(p.objSw)
		}
		b.ReportMetric(ratio, "msgr/objstore-switch-ratio")
	}
}

func BenchmarkFig7_HostCPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := sweep(b)
		last := rows[len(rows)-1]
		b.ReportMetric(rows[0][0].hostUtil*100, "baseline-1MB-%")
		b.ReportMetric(rows[0][1].hostUtil*100, "doceph-1MB-%")
		b.ReportMetric(pctUnder(last[1].hostUtil, last[0].hostUtil), "saving-16MB-%")
	}
}

func BenchmarkFig8_Latency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := sweep(b)
		b.ReportMetric(rows[0][0].bench.AvgLatency.Seconds(), "baseline-1MB-s")
		b.ReportMetric(rows[0][1].bench.AvgLatency.Seconds(), "doceph-1MB-s")
		b.ReportMetric(rows[len(rows)-1][1].bench.AvgLatency.Seconds(), "doceph-16MB-s")
	}
}

func BenchmarkTable3_LatencyBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := sweep(b)
		hostWrite, dma, dmaWait, _, _ := rows[0][1].phases()
		b.ReportMetric(dmaWait.Seconds(), "dmawait-1MB-s")
		b.ReportMetric(hostWrite.Seconds(), "hostwrite-1MB-s")
		b.ReportMetric(dma.Seconds(), "dma-1MB-s")
	}
}

func BenchmarkFig9_NormalizedBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := sweep(b)
		_, _, firstWait, _, firstTotal := rows[0][1].phases()
		_, _, lastWait, _, lastTotal := rows[len(rows)-1][1].phases()
		b.ReportMetric(firstWait.Seconds()/firstTotal.Seconds()*100, "dmawait-share-1MB-%")
		b.ReportMetric(lastWait.Seconds()/lastTotal.Seconds()*100, "dmawait-share-16MB-%")
	}
}

func BenchmarkFig10_IOPS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := sweep(b)
		b.ReportMetric(rows[0][0].bench.IOPS(), "baseline-1MB-iops")
		b.ReportMetric(rows[0][1].bench.IOPS(), "doceph-1MB-iops")
		b.ReportMetric(rows[len(rows)-1][1].bench.IOPS(), "doceph-16MB-iops")
	}
}

func BenchmarkExtension_ReadPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := runCells(QuickOptions(), readCells(QuickOptions().Threads, []int64{4 << 20}))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rs[0].bench.IOPS(), "baseline-read-iops")
		b.ReportMetric(rs[1].bench.IOPS(), "doceph-read-iops")
	}
}

func BenchmarkAblation_DesignChoices(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := runCells(QuickOptions(), ablationCells())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rs {
			switch r.name {
			case "doceph (full design)":
				b.ReportMetric(r.bench.AvgLatency.Seconds(), "full-lat-s")
			case "no pipelining":
				b.ReportMetric(r.bench.AvgLatency.Seconds(), "nopipe-lat-s")
			case "no MR cache":
				b.ReportMetric(r.bench.AvgLatency.Seconds(), "nomrcache-lat-s")
			}
		}
	}
}

// BenchmarkSimulatorOpsRate measures the simulator itself: virtual-seconds
// of DoCeph cluster time simulated per wall second at 4 MB load — the
// doceph-4M golden cell.
func BenchmarkSimulatorOpsRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := runWorkloadCfg(goldenCell("doceph-4M"), goldenOpts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.bench.Ops), "sim-ops")
	}
}

func BenchmarkStability_PerSecondThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := runCells(QuickOptions(), versus([]int64{4 << 20}, BenchConfig{}))
		if err != nil {
			b.Fatal(err)
		}
		_, _, baseCV := rs[0].perSecond()
		_, _, dcCV := rs[1].perSecond()
		b.ReportMetric(baseCV, "baseline-cv-%")
		b.ReportMetric(dcCV, "doceph-cv-%")
	}
}

func BenchmarkExtension_ScaleOut(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := runCells(QuickOptions(), scaleCells(QuickOptions().Threads, []int{2, 4}))
		if err != nil {
			b.Fatal(err)
		}
		base, dc := rs[len(rs)-2], rs[len(rs)-1]
		b.ReportMetric(pctUnder(dc.hostUtilPerNode(), base.hostUtilPerNode()), "saving-at-scale-%")
		b.ReportMetric(dc.mbps(), "doceph-MBps-at-scale")
	}
}
