package doceph

import (
	"reflect"
	"testing"

	"doceph/internal/report"
	"doceph/internal/sim"
	"doceph/internal/wire"
)

// tinyOpts keeps the experiment API tests fast while preserving shapes.
func tinyOpts() Options {
	return Options{Duration: 3 * Second, Warmup: Second, Threads: 8, Seed: 42}
}

// nonEmpty asserts that tables render without panicking and carry rows.
func nonEmpty(t *testing.T, tables []*report.Table) {
	t.Helper()
	if len(tables) == 0 {
		t.Fatal("no tables")
	}
	for _, tb := range tables {
		if len(tb.Rows) == 0 || len(tb.String()) == 0 {
			t.Fatalf("empty table %q", tb.Title)
		}
	}
}

func TestPublicQuickstartFlow(t *testing.T) {
	cl := NewCluster(ClusterConfig{Mode: DoCeph})
	defer cl.Shutdown()
	done := false
	cl.Env.Spawn("t", func(p *sim.Proc) {
		p.SetThread(sim.NewThread("t", "client"))
		data := wire.FromBytes(make([]byte, 1<<20))
		if err := cl.Client.Write(p, "o", data); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		got, err := cl.Client.Read(p, "o", 0, 0)
		if err != nil || got.Length() != 1<<20 {
			t.Errorf("read: %v", err)
			return
		}
		done = true
	})
	if err := cl.Env.RunUntil(sim.Time(60 * sim.Second)); err != nil || !done {
		t.Fatalf("err=%v done=%v", err, done)
	}
}

func TestRunBenchResetsStatsAtWarmup(t *testing.T) {
	cl := NewCluster(ClusterConfig{Mode: Baseline})
	defer cl.Shutdown()
	res, err := RunBench(cl, BenchConfig{
		Threads: 4, ObjectBytes: 1 << 20,
		Duration: 2 * Second, Warmup: Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no ops")
	}
	m := cl.HostCPUMerged()
	// The accounting window must cover only the measured phase.
	if w := m.Window; w < 2*Second-Millisecond || w > 2*Second+Second {
		t.Fatalf("window=%v", w)
	}
}

func TestSizeSweepPaperShape(t *testing.T) {
	rs, err := runCells(tinyOpts(), versus([]int64{1 << 20, 8 << 20}, BenchConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	rows := groups(rs, 2)
	if len(rows) != 2 {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, g := range rows {
		base, dc, mb := g[0], g[1], g[0].size>>20
		// The headline claim: order-of-magnitude host CPU savings.
		if dc.hostUtil > base.hostUtil/4 {
			t.Fatalf("%dMB: DoCeph %.3f vs baseline %.3f", mb, dc.hostUtil, base.hostUtil)
		}
		if saving := pctUnder(dc.hostUtil, base.hostUtil); saving < 75 {
			t.Fatalf("%dMB saving=%.1f%%", mb, saving)
		}
		if base.bench.IOPS() <= 0 || dc.bench.IOPS() <= 0 {
			t.Fatalf("iops=%v/%v", base.bench.IOPS(), dc.bench.IOPS())
		}
		hostWrite, dma, dmaWait, _, total := dc.phases()
		if total <= 0 || hostWrite <= 0 || dma <= 0 {
			t.Fatalf("breakdown=%v/%v/%v of %v", hostWrite, dma, dmaWait, total)
		}
		if hostWrite+dma+dmaWait > total {
			t.Fatalf("%dMB phases exceed total: %v+%v+%v > %v", mb, hostWrite, dma, dmaWait, total)
		}
	}
	// 1 MB pays a larger relative penalty than 8 MB (pipelining).
	small, large := rows[0], rows[1]
	smallGap := 1 - small[1].bench.IOPS()/small[0].bench.IOPS()
	largeGap := 1 - large[1].bench.IOPS()/large[0].bench.IOPS()
	if smallGap <= largeGap {
		t.Fatalf("gap did not shrink with size: 1MB %.2f vs 8MB %.2f", smallGap, largeGap)
	}
	// Baseline CPU falls with size; DoCeph stays flat(ish).
	if small[0].hostUtil <= large[0].hostUtil {
		t.Fatalf("baseline util should fall with size: %.3f -> %.3f",
			small[0].hostUtil, large[0].hostUtil)
	}
}

func TestMessengerProfilePaperShape(t *testing.T) {
	rs, err := runCells(tinyOpts(), profileCells)
	if err != nil {
		t.Fatal(err)
	}
	oneG, hundredG := rs[0], rs[1]
	for _, lp := range rs {
		if lp.msgrShare < 0.6 {
			t.Fatalf("%s messenger share=%.2f, must dominate", lp.name, lp.msgrShare)
		}
	}
	// 100G moves much more data yet the messenger share stays ~constant —
	// the paper's CPU-bound (not link-bound) argument.
	if hundredG.mbps() < 3*oneG.mbps() {
		t.Fatalf("throughputs %v vs %v", oneG.mbps(), hundredG.mbps())
	}
	diff := hundredG.msgrShare - oneG.msgrShare
	if diff < -0.1 || diff > 0.1 {
		t.Fatalf("messenger share not link-invariant: %.2f vs %.2f",
			oneG.msgrShare, hundredG.msgrShare)
	}
	if hundredG.msgrSw < 4*hundredG.objSw {
		t.Fatalf("switch ratio too small: %d vs %d", hundredG.msgrSw, hundredG.objSw)
	}
	if tables := profileTables(rs); len(tables) != 3 {
		t.Fatalf("want Figure 5, Figure 6 and Table 2, got %d tables", len(tables))
	} else {
		nonEmpty(t, tables)
	}
}

func TestReadSweepConverges(t *testing.T) {
	rs, err := runCells(tinyOpts(), readCells(tinyOpts().Threads, []int64{1 << 20, 8 << 20}))
	if err != nil {
		t.Fatal(err)
	}
	smallGap := 1 - rs[1].bench.IOPS()/rs[0].bench.IOPS()
	largeGap := 1 - rs[3].bench.IOPS()/rs[2].bench.IOPS()
	if smallGap <= largeGap {
		t.Fatalf("read gap did not shrink: %.2f -> %.2f", smallGap, largeGap)
	}
	nonEmpty(t, readTables(rs))
}

func TestSweepTablesRender(t *testing.T) {
	rs, err := runCells(tinyOpts(), versus([]int64{1 << 20}, BenchConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if tables := sweepTables(rs); len(tables) != 5 {
		t.Fatalf("want Figures 7-10 and Table 3, got %d tables", len(tables))
	} else {
		nonEmpty(t, tables)
	}
}

// TestDeterministicAcrossRuns: one cell run twice at one seed yields the same
// record, every field of it.
func TestDeterministicAcrossRuns(t *testing.T) {
	c := cell{name: "doceph 4MB", mode: DoCeph, size: 4 << 20}
	rs, err := runCells(Options{Duration: 2 * Second, Warmup: Second, Threads: 8, Seed: 7}, []cell{c, c})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs[0], rs[1]) {
		t.Fatalf("non-deterministic:\n 1: %+v\n 2: %+v", rs[0], rs[1])
	}
}

func TestStabilityLowVariance(t *testing.T) {
	rs, err := runCells(Options{Duration: 5 * Second, Warmup: Second, Threads: 16},
		versus([]int64{4 << 20}, BenchConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	base, _, baseCV := rs[0].perSecond()
	dc, _, dcCV := rs[1].perSecond()
	if len(base) < 4 || len(dc) < 4 {
		t.Fatalf("series too short: %d/%d", len(base), len(dc))
	}
	// The abstract's claim: stable throughput. Coefficient of variation
	// under 10% for both deployments.
	if baseCV > 10 || dcCV > 10 {
		t.Fatalf("unstable: baseline cv=%.1f%% doceph cv=%.1f%%", baseCV, dcCV)
	}
	nonEmpty(t, stabilityTables(rs))
}

func TestScaleSweepSavingsPersist(t *testing.T) {
	rs, err := runCells(Options{Duration: 3 * Second, Warmup: Second, Threads: 8},
		scaleCells(8, []int{2, 4}))
	if err != nil {
		t.Fatal(err)
	}
	rows := groups(rs, 2)
	for _, g := range rows {
		if saving := pctUnder(g[1].hostUtilPerNode(), g[0].hostUtilPerNode()); saving < 75 {
			t.Fatalf("%d nodes: saving=%.1f%%", g[0].nodes, saving)
		}
	}
	// Aggregate throughput grows with the cluster.
	if rows[1][1].mbps() < rows[0][1].mbps()*1.3 {
		t.Fatalf("throughput did not scale: %v -> %v", rows[0][1].mbps(), rows[1][1].mbps())
	}
	nonEmpty(t, scaleTables(rs))
}

// TestConclusionRobustToCalibration: the headline result (order-of-magnitude
// host CPU saving) must not depend on the exact calibration constants.
// Perturb the dominant messenger costs by +-30% and re-check.
func TestConclusionRobustToCalibration(t *testing.T) {
	scales := []float64{0.7, 1.3}
	var cells []cell
	for _, scale := range scales {
		for _, c := range versus([]int64{4 << 20}, BenchConfig{}) {
			c.mut = func(cfg *ClusterConfig) {
				cfg.Messenger.TxCopyCyclesPerByte = 1.05 * scale
				cfg.Messenger.RxCopyCyclesPerByte = 1.05 * scale
				cfg.Messenger.EncodeCycles = int64(120_000 * scale)
				cfg.Messenger.DecodeCycles = int64(100_000 * scale)
			}
			cells = append(cells, c)
		}
	}
	rs, err := runCells(Options{Duration: 3 * Second, Warmup: Second, Threads: 16, Seed: 42}, cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range groups(rs, 2) {
		if saving := pctUnder(g[1].hostUtil, g[0].hostUtil); saving < 80 {
			t.Fatalf("scale %.1f: saving fell to %.1f%%", scales[i], saving)
		}
	}
}

// TestSeedSensitivity: different seeds must give closely agreeing results
// (the jittered DMA engine is the only stochastic element).
func TestSeedSensitivity(t *testing.T) {
	var iops []float64
	for _, seed := range []int64{1, 999, 123456} {
		rs, err := runCells(Options{Duration: 4 * Second, Warmup: Second, Threads: 16, Seed: seed},
			[]cell{{name: "doceph 4MB", mode: DoCeph, size: 4 << 20}})
		if err != nil {
			t.Fatal(err)
		}
		iops = append(iops, rs[0].bench.IOPS())
	}
	mean := (iops[0] + iops[1] + iops[2]) / 3
	for _, v := range iops {
		if v < mean*0.95 || v > mean*1.05 {
			t.Fatalf("seed variance too high: %v", iops)
		}
	}
}

// TestStreamingBoundsPeakStaging pins the headline memory claim: with
// store-and-forward the DPU stages a large object's segments roughly at
// object granularity, while streaming keeps the staging high-water mark
// bounded by the credit window (window x chunk per stream), far below the
// object size.
func TestStreamingBoundsPeakStaging(t *testing.T) {
	// One closed-loop writer, so the per-node high-water mark reflects one
	// stream's staging, not cross-op concurrency.
	const size = 16 << 20
	run := func(stream bool) (peak, streamed int64) {
		cfg := ClusterConfig{Mode: DoCeph, Seed: 42}
		cfg.Messenger.Stream.Enable = stream
		cfg.Messenger.Stream.Window = 2
		cl := NewCluster(cfg)
		defer cl.Shutdown()
		res, err := RunBench(cl, BenchConfig{Threads: 1, ObjectBytes: size, OpsPerThread: 4})
		if err != nil {
			t.Fatal(err)
		}
		r := measure(cl, res)
		return r.peakStaging, r.streamWrites
	}
	offPeak, offStreamed := run(false)
	onPeak, onStreamed := run(true)
	if offPeak == 0 || onPeak == 0 {
		t.Fatalf("staging high-water not recorded: off=%d on=%d", offPeak, onPeak)
	}
	if offStreamed != 0 {
		t.Fatalf("store-and-forward arm streamed %d writes", offStreamed)
	}
	if onStreamed == 0 {
		t.Fatal("streaming did not engage")
	}
	// Store-and-forward must stage roughly a whole object's worth of
	// segments; streaming must stay bounded by the credit window — far
	// below the object size.
	if offPeak < size/2 {
		t.Errorf("store-and-forward peak staging %d suspiciously low for %d-byte objects",
			offPeak, size)
	}
	if onPeak >= size/2 {
		t.Errorf("streaming peak staging %d not bounded (object %d bytes)", onPeak, size)
	}
	if onPeak >= offPeak {
		t.Errorf("streaming peak staging %d did not improve on store-and-forward %d",
			onPeak, offPeak)
	}
	t.Logf("peak staging: store-and-forward %d, streaming %d (object %d)",
		offPeak, onPeak, size)
}
