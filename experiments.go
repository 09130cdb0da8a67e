package doceph

import (
	"fmt"
	"math"

	"doceph/internal/radosbench"
	"doceph/internal/report"
)

// The grid experiments: each is a cell list (what to run) and a renderer over
// the cells' results (what to print), glued by grid() in the registry.

// ---------------------------------------------------------------------------
// Figure 5 + Figure 6 + Table 2: baseline messenger profile at 1G vs 100G
// (§5.2): 4 MB writes, per-component CPU shares, throughput, context switches.

var profileCells = []cell{
	{name: "1Gbps", mode: Baseline, link: Link1G, size: 4 << 20},
	{name: "100Gbps", mode: Baseline, link: Link100G, size: 4 << 20},
}

func profileTables(rs []runResult) []*report.Table {
	link := col("link", func(r runResult) string { return r.name })
	fig5 := table("Figure 5: CPU usage breakdown by component (Baseline, 4MB writes)", []column{
		link,
		col("Messenger", func(r runResult) string { return report.Pct(r.msgrShare) }),
		col("ObjectStore", func(r runResult) string { return report.Pct(r.objShare) }),
		col("OSD threads", func(r runResult) string { return report.Pct(r.osdShare) }),
		col("total Ceph CPU (1-core norm)", func(r runResult) string { return report.Pct(r.hostUtil) }),
	}, groups(rs, 1), "paper: Messenger 81.05% (1G) / 82.48% (100G); total 24% -> 70.08%")
	fig6 := table("Figure 6: Throughput under 1Gbps vs 100Gbps (Baseline, 4MB writes)", []column{
		link,
		col("throughput MB/s", func(r runResult) string { return report.F2(r.mbps()) }),
	}, groups(rs, 1), "paper shape: 1G link-bound (~110 MB/s), 100G disk-bound (~470 MB/s)")

	p := rs[1]
	ratio := 0.0
	if p.objSw > 0 {
		ratio = float64(p.msgrSw) / float64(p.objSw)
	}
	table2 := &report.Table{
		Title:  "Table 2: Context switches, Messenger vs ObjectStore (Baseline, 100Gbps)",
		Header: []string{"component", "context switches", "ratio"},
		Notes:  []string{"paper: 7475 vs 751 (9.95x)"},
	}
	table2.AddRow("Messenger", fmt.Sprint(p.msgrSw), report.F2(ratio)+"x")
	table2.AddRow("ObjectStore", fmt.Sprint(p.objSw), "1x")
	return []*report.Table{fig5, fig6, table2}
}

// ---------------------------------------------------------------------------
// Figures 7, 8, 10 and Table 3 / Figure 9: baseline vs DoCeph size sweep
// (§5.3/§5.4).

// PaperSizes are the request sizes of §5.1.
var PaperSizes = []int64{1 << 20, 4 << 20, 8 << 20, 16 << 20}

// The comparison tables read a row as g[0] = Baseline, g[1] = DoCeph.
var colSizeOf = column{"size", func(g []runResult) string { return sizeLabel(g[0].size) }}

func sweepTables(rs []runResult) []*report.Table {
	rows := groups(rs, 2)
	fig7 := table("Figure 7: Host CPU usage, Baseline vs DoCeph (1-core norm)", []column{
		colSizeOf,
		{"Baseline", func(g []runResult) string { return report.Pct(g[0].hostUtil) }},
		{"DoCeph", func(g []runResult) string { return report.Pct(g[1].hostUtil) }},
		{"saving", func(g []runResult) string {
			return fmt.Sprintf("%.1f%%", pctUnder(g[1].hostUtil, g[0].hostUtil))
		}},
	}, rows, "paper: baseline 94.2->67.2%, DoCeph flat 5.4-5.8%, savings 91.8-94.2%")
	fig8 := table("Figure 8: Average write latency (s), Baseline vs DoCeph", []column{
		colSizeOf,
		{"Baseline", func(g []runResult) string { return report.F3(g[0].bench.AvgLatency.Seconds()) }},
		{"DoCeph", func(g []runResult) string { return report.F3(g[1].bench.AvgLatency.Seconds()) }},
		{"overhead", func(g []runResult) string {
			return fmt.Sprintf("+%.0f%%", pctOver(g[1].bench.AvgLatency.Seconds(), g[0].bench.AvgLatency.Seconds()))
		}},
	}, rows, "paper: 0.03 vs 0.05 s at 1MB (+67%) narrowing to 0.54 vs 0.57 s at 16MB (+6%)")

	// Table 3 is transposed: one row per phase, one column per size.
	phase := func(r runResult, i int) float64 {
		hw, dma, wait, others, total := r.phases()
		return []Duration{hw, dma, wait, others, total}[i].Seconds()
	}
	table3 := &report.Table{
		Title:  "Table 3: DoCeph average latency breakdown (s)",
		Header: []string{"phase"},
		Notes:  []string{"paper totals: 0.05 / 0.14 / 0.30 / 0.57 s; DMA-wait share 44.8% -> 11.9%"},
	}
	for _, g := range rows {
		table3.Header = append(table3.Header, sizeLabel(g[1].size))
	}
	for i, name := range []string{"Host write", "DMA", "DMA-wait", "Others", "Total Avg.Latency"} {
		row := []string{name}
		for _, g := range rows {
			row = append(row, report.F4(phase(g[1], i)))
		}
		table3.AddRow(row...)
	}

	share := func(i int) func(g []runResult) string {
		return func(g []runResult) string { return report.Pct(phase(g[1], i) / phase(g[1], 4)) }
	}
	fig9 := table("Figure 9: Normalized latency breakdown (share of total)", []column{
		colSizeOf, {"Host write", share(0)}, {"DMA", share(1)}, {"DMA-wait", share(2)}, {"Others", share(3)},
	}, rows, "paper: DMA-wait falls from 44.8% at 1MB to 11.9% at 16MB (pipelining)")
	fig10 := table("Figure 10: Average throughput (IOPS), Baseline vs DoCeph", []column{
		colSizeOf,
		{"Baseline", func(g []runResult) string { return report.F2(g[0].bench.IOPS()) }},
		{"DoCeph", func(g []runResult) string { return report.F2(g[1].bench.IOPS()) }},
		{"gap", func(g []runResult) string {
			return fmt.Sprintf("-%.0f%%", pctUnder(g[1].bench.IOPS(), g[0].bench.IOPS()))
		}},
	}, rows, "paper: 435/304 at 1MB (-30%) narrowing to 28/27 at 16MB (-4%)")
	return []*report.Table{fig7, fig8, table3, fig9, fig10}
}

// ---------------------------------------------------------------------------
// Extension: read path (§5.5, the paper's future work).

func readCells(threads int, sizes []int64) []cell {
	return versus(sizes, BenchConfig{Op: ReadWorkload, PrepopulateObjects: threads * 4})
}

func readTables(rs []runResult) []*report.Table {
	return []*report.Table{table("Extension (paper §5.5): Read path, Baseline vs DoCeph", []column{
		colSizeOf,
		{"Baseline lat (s)", func(g []runResult) string { return report.F3(g[0].bench.AvgLatency.Seconds()) }},
		{"DoCeph lat (s)", func(g []runResult) string { return report.F3(g[1].bench.AvgLatency.Seconds()) }},
		{"Baseline IOPS", func(g []runResult) string { return report.F2(g[0].bench.IOPS()) }},
		{"DoCeph IOPS", func(g []runResult) string { return report.F2(g[1].bench.IOPS()) }},
	}, groups(rs, 2), "paper predicts convergence at large sizes; reads avoid replication coordination")}
}

// ---------------------------------------------------------------------------
// Stability: the abstract's "sustaining stable throughput" claim — rados
// bench's per-second samples of both deployments under 4 MB writes.

// perSecond returns a run's per-second MB/s series, its mean and its
// coefficient of variation in percent.
func (r runResult) perSecond() (series []float64, mean, cvPct float64) {
	for _, s := range r.bench.PerSecond {
		v := float64(s.Bytes) / 1e6
		series = append(series, v)
		mean += v
	}
	n := float64(len(series))
	if n == 0 {
		return nil, 0, 0
	}
	mean /= n
	var sq float64
	for _, v := range series {
		sq += (v - mean) * (v - mean)
	}
	if n > 1 && mean > 0 {
		cvPct = math.Sqrt(sq/(n-1)) / mean * 100
	}
	return series, mean, cvPct
}

func stabilityTables(rs []runResult) []*report.Table {
	base, baseMean, baseCV := rs[0].perSecond()
	dc, dcMean, dcCV := rs[1].perSecond()
	t := &report.Table{
		Title:  fmt.Sprintf("Stability: per-second throughput, %s writes (MB/s)", sizeLabel(rs[0].size)),
		Header: []string{"second", "Baseline", "", "DoCeph", ""},
	}
	max := 0.0
	for _, v := range append(append([]float64{}, base...), dc...) {
		if v > max {
			max = v
		}
	}
	for i := 0; i < len(base) && i < len(dc); i++ {
		t.AddRow(fmt.Sprint(i),
			report.F2(base[i]), report.Bar(base[i], max, 24),
			report.F2(dc[i]), report.Bar(dc[i], max, 24))
	}
	t.AddNote("baseline mean %.1f MB/s (cv %.1f%%); doceph mean %.1f MB/s (cv %.1f%%)",
		baseMean, baseCV, dcMean, dcCV)
	t.AddNote("abstract claim: DoCeph cuts host CPU \"while sustaining stable throughput\"")
	return []*report.Table{t}
}

// ---------------------------------------------------------------------------
// Extension: grow the cluster beyond the paper's two storage nodes and check
// that the host-CPU savings and throughput scaling persist. Utilization is
// per node so cluster sizes are comparable.

func scaleCells(threads int, nodeCounts []int) []cell {
	var cells []cell
	for _, n := range nodeCounts {
		n := n
		for _, c := range versus([]int64{4 << 20}, BenchConfig{
			Threads: threads * n / 2, // offered load scales with capacity
		}) {
			c.name = fmt.Sprintf("%s %d nodes", c.name, n)
			c.mut = func(cfg *ClusterConfig) { cfg.StorageNodes = n }
			cells = append(cells, c)
		}
	}
	return cells
}

func (r runResult) hostUtilPerNode() float64 { return r.hostUtil / float64(r.nodes) }

func scaleTables(rs []runResult) []*report.Table {
	return []*report.Table{table("Extension: scale-out, 4MB writes (per-node CPU, 1-core norm)", []column{
		{"nodes", func(g []runResult) string { return fmt.Sprint(g[0].nodes) }},
		{"Baseline host", func(g []runResult) string { return report.Pct(g[0].hostUtilPerNode()) }},
		{"DoCeph host", func(g []runResult) string { return report.Pct(g[1].hostUtilPerNode()) }},
		{"saving", func(g []runResult) string {
			return fmt.Sprintf("%.1f%%", pctUnder(g[1].hostUtilPerNode(), g[0].hostUtilPerNode()))
		}},
		{"Baseline MB/s", func(g []runResult) string { return report.F2(g[0].mbps()) }},
		{"DoCeph MB/s", func(g []runResult) string { return report.F2(g[1].mbps()) }},
		{"DoCeph DPU", func(g []runResult) string { return report.Pct(g[1].dpuUtil / float64(g[1].nodes)) }},
	}, groups(rs, 2), "offered load scales with node count (threads = 16*n/2); savings must persist")}
}

// ---------------------------------------------------------------------------
// Ablations: DoCeph with individual mechanisms disabled or stressed.
// Pipeline/MR/staging variants run at 16 MB (where segmentation matters);
// channel variants at 1 MB (where the single engine is the bottleneck, Figure
// 10's -30%); batching variants at 64 KB, where per-op DMA setup dominates.

func ablationCells() []cell {
	const big, small, tiny = int64(16 << 20), int64(1 << 20), int64(64 << 10)
	channels := func(n int) func(*ClusterConfig) {
		return func(c *ClusterConfig) { c.Bridge.Engine.Queues = n }
	}
	staging := func(b int64) func(*ClusterConfig) {
		return func(c *ClusterConfig) { c.DPU.StagingBufferBytes = b }
	}
	cells := []cell{
		{name: "doceph (full design)", size: big},
		{name: "no pipelining", size: big, mut: func(c *ClusterConfig) { c.Bridge.Proxy.DisablePipeline = true }},
		{name: "no MR cache", size: big, mut: func(c *ClusterConfig) { c.Bridge.Proxy.DisableMRCache = true }},
		{name: "1MB staging buffers", size: big, mut: staging(1 << 20)},
		{name: "512KB staging buffers", size: big, mut: staging(512 << 10)},
		{name: "DMA failure every 200 transfers", size: big, arm: failEvery(200), engaged: injectEngaged},
		{name: "1MB writes, 1 DMA channel", size: small},
		{name: "1MB writes, 2 DMA channels", size: small, mut: channels(2)},
		{name: "1MB writes, 4 DMA channels", size: small, mut: channels(4)},
		{name: "64KB writes, no batching", size: tiny},
		{name: "64KB writes, adaptive batching", size: tiny, mut: batchOn, engaged: batchedEngaged},
		// Making the idle gap equal the max-delay budget disables the idle
		// heuristic: flushes come only from bytes or the timer.
		{name: "64KB writes, delay-only batching", size: tiny, engaged: batchedEngaged,
			mut: func(c *ClusterConfig) {
				batchOn(c)
				c.Bridge.Batch.IdleDelay = 400 * Microsecond
				c.Bridge.Batch.MaxDelay = 400 * Microsecond
			}},
		{name: "64KB writes, batching + DMA failure every 200", size: tiny, arm: failEvery(200),
			mut: batchOn, engaged: allOf(batchedEngaged, injectEngaged)},
	}
	for i := range cells {
		cells[i].mode = DoCeph
	}
	return cells
}

func ablationTables(rs []runResult) []*report.Table {
	count := func(header string, f func(runResult) int64) column {
		return col(header, func(r runResult) string { return fmt.Sprint(f(r)) })
	}
	return []*report.Table{table("Ablations: DoCeph design choices", []column{
		colName, colSize, colLat,
		col("IOPS", func(r runResult) string { return report.F2(r.bench.IOPS()) }),
		colCPU,
		count("negotiations", func(r runResult) int64 { return r.negotiations }),
		count("fallbacks", func(r runResult) int64 { return r.fallbacks }),
		count("DMA errors", func(r runResult) int64 { return r.dmaErrors }),
		count("batched txns", func(r runResult) int64 { return r.batchedTxns }),
		count("flushes", func(r runResult) int64 { return r.batchFlushes }),
	}, groups(rs, 1), "pipelining and MR caching are the paper's §3.3 optimizations; fallback rows exercise §4")}
}

// ---------------------------------------------------------------------------
// Extension: small-op IOPS sweep below the paper's 1 MB floor — Baseline,
// DoCeph with per-op DMA (the Figure 10 regime, where ~1.6 ms of setup per
// transfer caps small-op IOPS) and DoCeph with adaptive batching, which
// amortizes one setup across a frame of coalesced ops.

func smallOpsCells() []cell {
	var cells []cell
	for _, size := range []int64{4 << 10, 16 << 10, 64 << 10, 256 << 10} {
		cells = append(cells, versus([]int64{size}, BenchConfig{})...)
		cells = append(cells, cell{name: "batched " + sizeLabel(size), mode: DoCeph, size: size,
			mut: batchOn, engaged: batchedEngaged})
	}
	return cells
}

func smallOpsTables(rs []runResult) []*report.Table {
	arm := func(header string, i int, f func(runResult) string) column {
		return column{header, func(g []runResult) string { return f(g[i]) }}
	}
	iops := func(r runResult) string { return report.F2(r.bench.IOPS()) }
	cpu := func(r runResult) string { return report.Pct(r.hostUtil) }
	return []*report.Table{table("Small-op sweep: IOPS, Baseline vs DoCeph vs DoCeph+batching", []column{
		colSizeOf,
		arm("Baseline IOPS", 0, iops), arm("DoCeph IOPS", 1, iops), arm("batched IOPS", 2, iops),
		{"batch gain", func(g []runResult) string {
			return fmt.Sprintf("%+.0f%%", pctOver(g[2].bench.IOPS(), g[1].bench.IOPS()))
		}},
		arm("avg batch", 2, func(r runResult) string { return report.F2(r.avgBatch()) }),
		arm("Baseline CPU", 0, cpu), arm("DoCeph CPU", 1, cpu), arm("batched CPU", 2, cpu),
	}, groups(rs, 3), "per-op DMA setup (~1.6ms) caps unbatched DoCeph IOPS at small sizes (Fig. 10 gap); batching amortizes one setup+doorbell across a coalesced frame")}
}

// ---------------------------------------------------------------------------
// Extension: multi-queue DMA engine ablation. One serial engine caps frame
// throughput at ~1/setup-time regardless of frame size; this measures batched
// DoCeph with 1/2/4/8 DMA queues, pairing each queue count with the same
// number of OSD op shards and messenger lanes (the QP-per-queue model).

// mqCells lays the grid out size-major, so the cells of one size are adjacent
// and start at the reference queue count.
func mqCells(queues []int, sizes []int64) []cell {
	var cells []cell
	for _, size := range sizes {
		for _, nq := range queues {
			cells = append(cells, cell{
				name: fmt.Sprintf("%s q=%d", sizeLabel(size), nq), mode: DoCeph, size: size,
				mut: multiQueue(nq), engaged: queuesEngaged(nq),
			})
		}
	}
	return cells
}

func mqTables(rs []runResult) []*report.Table {
	// Each row pairs a cell with the first (reference) cell of its size.
	var rows [][]runResult
	for i, r := range rs {
		ref := r
		if i > 0 && rows[i-1][1].size == r.size {
			ref = rows[i-1][1]
		}
		rows = append(rows, []runResult{r, ref})
	}
	return []*report.Table{table("Multi-queue DMA ablation: batched DoCeph, queues = OSD op shards", []column{
		colSize,
		col("queues", func(r runResult) string { return fmt.Sprint(r.engQueues) }),
		col("IOPS", func(r runResult) string { return report.F2(r.bench.IOPS()) }),
		{"gain vs q=1", func(g []runResult) string {
			return fmt.Sprintf("%+.0f%%", pctOver(g[0].bench.IOPS(), g[1].bench.IOPS()))
		}},
		colLat,
		col("avg batch", func(r runResult) string { return report.F2(r.avgBatch()) }),
		colCPU,
		col("engine occupancy", func(r runResult) string { return report.Pct(r.engOccupancy()) }),
	}, rows, "the serial engine (q=1) caps frame throughput at ~1/setup-time; parallel queues overlap setups while copies share CopySlots PCIe bus slots")}
}

// ---------------------------------------------------------------------------
// Streaming ablation: store-and-forward vs flow-controlled chunk pipelining
// for large objects, across credit windows and both deployments.
//
// Store-and-forward (streaming off, the default) moves a large write as one
// monolithic frame: the whole object serializes through the messenger, then
// replication and the BlueStore WAL start, and on DoCeph the DPU proxy
// stages whole-transaction segments. Streaming splits the same write into
// ChunkBytes frames under a credit window: the OSD commits and fans out
// chunk k while chunk k+1 is still on the wire, and DPU staging is bounded
// by window x chunk instead of object size.

func streamingCells(threads int) []cell {
	// Large objects + many closed-loop workers would swamp the fabric and
	// blur the per-op pipelining signal; cap the loop at 4 workers.
	bench := BenchConfig{Threads: min(threads, 4)}
	var cells []cell
	for _, mode := range []Mode{Baseline, DoCeph} {
		for _, size := range []int64{4 << 20, 16 << 20, 64 << 20} {
			cells = append(cells, cell{
				name: fmt.Sprintf("%s %dM store-fwd", mode, size>>20),
				mode: mode, size: size, bench: bench, engaged: streamEngaged(false),
			})
			for _, w := range []int{2, 4, 8} {
				w := w
				cells = append(cells, cell{
					name: fmt.Sprintf("%s %dM stream w=%d", mode, size>>20, w),
					mode: mode, size: size, bench: bench, engaged: streamEngaged(true),
					mut: func(c *ClusterConfig) {
						c.Messenger.Stream.Enable = true
						c.Messenger.Stream.Window = w
					},
				})
			}
		}
	}
	return cells
}

func streamingTables(rs []runResult) []*report.Table {
	return []*report.Table{table("Streaming data plane: store-and-forward vs chunk pipelining (writes)", []column{
		colName,
		col("avg lat (ms)", func(r runResult) string { return report.F2(r.bench.AvgLatency.Seconds() * 1e3) }),
		col("p99 (ms)", func(r runResult) string { return report.F2(r.bench.P99.Seconds() * 1e3) }),
		col("MB/s", func(r runResult) string { return report.F2(r.mbps()) }),
		colCPU,
		col("streamed", func(r runResult) string { return fmt.Sprint(r.streamWrites) }),
		col("peak staging", func(r runResult) string {
			if r.peakStaging == 0 {
				return "-"
			}
			return report.MB(r.peakStaging)
		}),
	}, groups(rs, 1), "stream w=N: 2MiB chunks (one DMA segment each) under an N-chunk credit window (off by default); peak staging = DPU staging-buffer high-water mark — bounded by window x chunk when streaming, by object size when not")}
}

// ---------------------------------------------------------------------------
// Read-path ablation: op mix x replica reads x DPU read cache x deployment,
// on 64 KB objects — small enough that per-op overheads (the DPU read
// cache's target) dominate. Every knob defaults off; the first row of each
// deployment is the unmodified configuration.

func readPathCells() []cell {
	var cells []cell
	for _, mode := range []Mode{Baseline, DoCeph} {
		// add appends one arm; balance / cache flip the knob and declare the
		// matching engagement check.
		add := func(mix string, bench BenchConfig, balance, cache bool) {
			var checks []func(runResult) error
			if balance {
				checks = append(checks, balanceEngaged)
			}
			if cache {
				checks = append(checks, cacheEngaged)
			}
			cells = append(cells, cell{
				name: mode.String() + " " + mix, mode: mode, size: 64 << 10, bench: bench,
				mut: func(cfg *ClusterConfig) {
					cfg.Client.BalanceReads = balance
					cfg.Bridge.ReadCache.Enable = cache
				},
				engaged: allOf(checks...),
			})
		}
		for _, pct := range []int{100, 70, 50} {
			mix := fmt.Sprintf("%dR/%dW", pct, 100-pct)
			bench := BenchConfig{Op: ReadWorkload}
			if pct < 100 {
				bench = BenchConfig{Op: MixedWorkload, ReadPercent: pct}
			}
			add(mix, bench, false, false)
			add(mix+" +balance", bench, true, false)
			if mode == DoCeph {
				add(mix+" +cache", bench, false, true)
				add(mix+" +balance+cache", bench, true, true)
			}
		}
		// Queue-depth arm: the closed loop widened to 4 slots per worker.
		add("100R/0W qd=4", BenchConfig{Op: ReadWorkload, QueueDepth: 4}, false, false)
		// Popularity arms: pure reads under Zipf and hotspot skew, with
		// replica-read balancing as the mitigation and (DoCeph) the read
		// cache — a hot set is exactly what DPU-side DDR can absorb.
		zipf := BenchConfig{Op: ReadWorkload, Popularity: radosbench.Popularity{Kind: radosbench.PopZipf}}
		hot := BenchConfig{Op: ReadWorkload, Popularity: radosbench.Popularity{Kind: radosbench.PopHotspot}}
		add("100R/0W zipf", zipf, false, false)
		add("100R/0W zipf+balance", zipf, true, false)
		add("100R/0W hotspot", hot, false, false)
		if mode == DoCeph {
			add("100R/0W zipf+cache", zipf, false, true)
		}
	}
	return cells
}

func readPathTables(rs []runResult) []*report.Table {
	writes := func(header string, f func(runResult) float64) column {
		return col(header, func(r runResult) string {
			if r.bench.WriteStats.Ops == 0 {
				return "-"
			}
			return report.F2(f(r))
		})
	}
	return []*report.Table{table("Read path: op mix x replica reads x DPU read cache x deployment", []column{
		colName,
		col("read IOPS", func(r runResult) string { return report.F2(r.bench.ReadStats.IOPS(r.bench.Window)) }),
		col("read p99 (ms)", func(r runResult) string { return report.F2(r.bench.ReadStats.P99.Seconds() * 1e3) }),
		writes("write IOPS", func(r runResult) float64 { return r.bench.WriteStats.IOPS(r.bench.Window) }),
		writes("write p99 (ms)", func(r runResult) float64 { return r.bench.WriteStats.P99.Seconds() * 1e3 }),
		colCPU,
		col("balanced", func(r runResult) string { return fmt.Sprint(r.balancedReads) }),
		col("cache hit", func(r runResult) string {
			if r.cacheHits+r.cacheMisses == 0 {
				return "-"
			}
			return report.Pct(float64(r.cacheHits) / float64(r.cacheHits+r.cacheMisses))
		}),
	}, groups(rs, 1), "64KB objects; balance = read-from-secondary hashing, cache = DPU-side object read cache (both default off); zipf/hotspot = skewed read popularity over the prepopulated set (uniform otherwise)")}
}

// runReadPath is the read-path grid followed by the block-device comparison.
func runReadPath(o Options) ([]*report.Table, error) {
	tables, err := grid(func(Options) []cell { return readPathCells() }, readPathTables)(o)
	if err != nil {
		return nil, err
	}
	bd, err := blockDeviceTable(o.Seed)
	if err != nil {
		return nil, err
	}
	return append(tables, bd), nil
}
