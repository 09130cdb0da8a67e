package doceph

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"doceph/internal/bluestore"
	"doceph/internal/core"
	"doceph/internal/messenger"
	"doceph/internal/osd"
	"doceph/internal/report"
	"doceph/internal/trace"
)

// cell is one benchmark run of a grid experiment: a deployment, a request
// size and a workload on a fresh cluster, optionally with mechanism knobs
// flipped. Every grid experiment is a list of cells plus a list of columns.
type cell struct {
	name string
	mode Mode
	link float64 // 0 = 100 Gbps
	size int64
	// bench carries the workload shape (op mix, queue depth, popularity);
	// Threads 0 takes Options.Threads, size and windows are always filled in.
	bench BenchConfig
	// mut flips knobs on an otherwise default testbed.
	mut func(*ClusterConfig)
	// arm prepares the assembled cluster before the workload starts: a fault
	// to inject, an outage to schedule.
	arm func(*Cluster, Options)
	// engaged verifies that the path the cell exists to measure actually
	// ran; a silently inert arm fails the experiment.
	engaged func(runResult) error
}

// runResult is one cell's record: the cell's data — what ran, without the
// funcs that prepared and checked it — and everything measure read off the
// cluster afterwards. Records are plain values, so two compare with
// reflect.DeepEqual.
type runResult struct {
	name string
	mode Mode
	link float64
	size int64
	// workload is the bench config as run: the cell's, with threads, size and
	// windows filled in.
	workload  BenchConfig
	bench     BenchResult
	nodes     int
	hostUtil  float64 // single-core normalization (Fig. 5 right axis)
	dpuUtil   float64
	msgrShare float64
	objShare  float64
	osdShare  float64
	msgrSw    int64
	objSw     int64
	breakdown core.Breakdown
	// events is the kernel's event count when the benchmark returned, which
	// the goldens pin and no -exp table prints.
	events uint64
	// Counters summed over nodes (all zero on Baseline, which has no bridge).
	negotiations int64
	fallbacks    int64 // segments + whole transactions resent over RPC
	dmaErrors    int64
	batchedTxns  int64
	batchFlushes int64
	cacheHits    int64
	cacheMisses  int64
	breakers     int // proxies running a circuit breaker
	// engQueues is the upstream engines' per-node queue count; engBusy their
	// summed busy time over the whole run, warm-up included.
	engQueues int
	engBusy   Duration
	// streamWrites sums the OSDs' streamed-ingest counters; peakStaging is
	// the max per-node DPU staging high-water mark.
	streamWrites  int64
	peakStaging   int64
	balancedReads int64
	// degradedWrites and pgsBackfilled sum the OSDs' self-healing counters.
	degradedWrites int64
	pgsBackfilled  int64
	// spans are a traced run's finished spans (nil untraced), and busy is
	// every CPU's busy time by name: what the spans' CPU is conserved against.
	spans []trace.Span
	busy  map[string]Duration
}

func (r runResult) mbps() float64 { return r.bench.ThroughputBps() / 1e6 }

func (r runResult) avgBatch() float64 {
	if r.batchFlushes == 0 {
		return 0
	}
	return float64(r.batchedTxns) / float64(r.batchFlushes)
}

// engOccupancy is the fraction of the upstream engines' total queue capacity
// they spent servicing transfers (zero on Baseline, which has none).
func (r runResult) engOccupancy() float64 {
	den := float64(r.engQueues) * float64(r.nodes) * float64(r.workload.Duration+r.workload.Warmup)
	if den <= 0 {
		return 0
	}
	return float64(r.engBusy) / den
}

// phases is Table 3's decomposition of the average latency.
func (r runResult) phases() (hostWrite, dma, dmaWait, others, total Duration) {
	hostWrite, dma, dmaWait = r.breakdown.Avg()
	total = r.bench.AvgLatency
	if others = total - hostWrite - dma - dmaWait; others < 0 {
		others = 0
	}
	return
}

// checkTrace holds a traced run's spans to what every trace must satisfy:
// they nest inside their parents in virtual time, and no processor's traced
// CPU exceeds its accounted busy time (background daemons are untraced).
func (r runResult) checkTrace() error {
	if err := trace.CheckInvariants(r.spans); err != nil {
		return fmt.Errorf("trace invariants: %w", err)
	}
	if err := trace.CheckCPUConservation(r.spans, r.busy); err != nil {
		return fmt.Errorf("trace cpu conservation: %w", err)
	}
	return nil
}

// pctUnder is how far v sits below ref, in percent: DoCeph's host-CPU saving
// and its IOPS gap against the baseline.
func pctUnder(v, ref float64) float64 {
	if ref <= 0 {
		return 0
	}
	return (1 - v/ref) * 100
}

// pctOver is how far v sits above ref, in percent.
func pctOver(v, ref float64) float64 {
	if ref <= 0 {
		return 0
	}
	return (v/ref - 1) * 100
}

// runWorkloadCfg builds a fresh cluster for c and executes its benchmark: the
// one place a rados-bench run's testbed is assembled, driven, measured,
// checked and torn down.
func runWorkloadCfg(c cell, o Options) (runResult, error) {
	cfg := ClusterConfig{Mode: c.mode, LinkBytesPerSec: c.link, Seed: o.Seed}
	if c.mut != nil {
		c.mut(&cfg)
	}
	cl := NewCluster(cfg)
	defer cl.Shutdown()
	if c.arm != nil {
		c.arm(cl, o)
	}
	op := c.bench
	if op.Threads == 0 {
		op.Threads = o.Threads
	}
	op.ObjectBytes = c.size
	op.Duration = o.Duration
	op.Warmup = o.Warmup
	bench, err := RunBench(cl, op)
	if err != nil {
		return runResult{}, err
	}
	r := measure(cl, bench)
	r.name, r.mode, r.link, r.size, r.workload = c.name, c.mode, c.link, c.size, op
	if err := r.checkTrace(); err != nil {
		return runResult{}, err
	}
	if c.engaged != nil {
		if err := c.engaged(r); err != nil {
			return runResult{}, fmt.Errorf("not engaged: %w", err)
		}
	}
	return r, nil
}

// measure reads a finished bench run's record off its cluster: CPU shares and
// switches, the proxies' phase breakdown, the kernel's event count, every
// node's counters and, on a traced cluster, the spans. It is the one walk over
// the nodes for a bench run; the caller fills in the cell's data.
func measure(cl *Cluster, bench BenchResult) runResult {
	m := cl.HostCPUMerged()
	r := runResult{
		bench:         bench,
		nodes:         len(cl.Nodes),
		events:        cl.Env.Events(),
		hostUtil:      m.SingleCoreUtilization(),
		dpuUtil:       cl.DPUCPUMerged().SingleCoreUtilization(),
		msgrShare:     m.ShareOf(messenger.ThreadCat),
		objShare:      m.ShareOf(bluestore.ThreadCat),
		osdShare:      m.ShareOf(osd.ThreadCat),
		msgrSw:        m.SwitchesByCat[messenger.ThreadCat],
		objSw:         m.SwitchesByCat[bluestore.ThreadCat],
		breakdown:     cl.ProxyBreakdownMerged(),
		balancedReads: cl.Client.Stats().BalancedReads,
		spans:         cl.Tracer.Spans(),
		busy:          map[string]Duration{cl.ClientCPU.Name(): cl.ClientCPU.Stats().TotalBusy},
	}
	for _, n := range cl.Nodes {
		r.busy[n.HostCPU.Name()] = n.HostCPU.Stats().TotalBusy
		ost := n.OSD.Stats()
		r.streamWrites += ost.StreamWrites
		r.degradedWrites += ost.DegradedWrites
		r.pgsBackfilled += ost.PGsBackfilled
		if n.DPU != nil {
			r.busy[n.DPU.CPU.Name()] = n.DPU.CPU.Stats().TotalBusy
		}
		if n.Bridge == nil {
			continue
		}
		st := n.Bridge.Proxy.Stats()
		r.negotiations += n.Bridge.CC.Negotiations()
		r.fallbacks += st.FallbackSegments + st.FallbackTxns
		r.dmaErrors += n.Bridge.EngUp.Stats().Errors
		r.batchedTxns += st.BatchedTxns
		r.batchFlushes += st.BatchFlushes
		r.cacheHits += st.ReadCacheHits
		r.cacheMisses += st.ReadCacheMisses
		if st.PeakStagingBytes > r.peakStaging {
			r.peakStaging = st.PeakStagingBytes
		}
		if n.Bridge.Proxy.Breaker() != nil {
			r.breakers++
		}
		r.engBusy += n.Bridge.EngUp.Stats().Busy
		r.engQueues = n.Bridge.EngUp.NumQueues()
	}
	return r
}

// runCells runs every cell of a grid as an independent parallel simulation
// and returns the results in cell order.
func runCells(o Options, cells []cell) ([]runResult, error) {
	o = o.withDefaults()
	out := make([]runResult, len(cells))
	err := runParallel(len(cells), func(i int) error {
		r, err := runWorkloadCfg(cells[i], o)
		if err != nil {
			return fmt.Errorf("%s: %w", cells[i].name, err)
		}
		out[i] = r
		return nil
	})
	return out, err
}

// grid makes a registry Run func out of a grid experiment's two halves: the
// cells to run and the tables to render from their results.
func grid(cells func(Options) []cell, tables func([]runResult) []*report.Table) func(Options) ([]*report.Table, error) {
	return func(o Options) ([]*report.Table, error) {
		o = o.withDefaults()
		rs, err := runCells(o, cells(o))
		if err != nil {
			return nil, err
		}
		return tables(rs), nil
	}
}

// runParallel executes n independent simulation cells on up to GOMAXPROCS
// OS goroutines. Every cell builds its own cluster (its own sim.Env and
// seeded RNG), so results are bit-identical to the sequential order no
// matter how the host scheduler interleaves them; callers store results by
// index, keeping output ordering deterministic. The lowest-index error is
// returned so failure reporting is deterministic too.
func runParallel(n int, cell func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = cell(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Engagement checks: one per knob a cell can flip.

// expect is nil when ok holds, else the formatted error.
func expect(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}

func batchedEngaged(r runResult) error {
	return expect(r.batchedTxns > 0, "batching enabled but no transaction was batched")
}

func cacheEngaged(r runResult) error {
	return expect(r.cacheHits > 0, "DPU read cache enabled but never hit")
}

func balanceEngaged(r runResult) error {
	return expect(r.balancedReads > 0, "balance-reads enabled but no read went to a secondary")
}

func injectEngaged(r runResult) error {
	return expect(r.dmaErrors > 0 && r.fallbacks > 0,
		"DMA failures injected but errors=%d fallbacks=%d", r.dmaErrors, r.fallbacks)
}

func queuesEngaged(q int) func(runResult) error {
	return func(r runResult) error {
		if r.engQueues != q {
			return fmt.Errorf("asked for %d DMA queues, engines run %d", q, r.engQueues)
		}
		return batchedEngaged(r)
	}
}

func streamEngaged(on bool) func(runResult) error {
	return func(r runResult) error {
		if on {
			return expect(r.streamWrites > 0, "streaming enabled but no streamed writes recorded")
		}
		return expect(r.streamWrites == 0, "store-and-forward arm recorded %d streamed writes", r.streamWrites)
	}
}

// allOf chains engagement checks.
func allOf(checks ...func(runResult) error) func(runResult) error {
	return func(r runResult) error {
		for _, c := range checks {
			if err := c(r); err != nil {
				return err
			}
		}
		return nil
	}
}

func batchOn(c *ClusterConfig) { c.Bridge.Batch.Enable = true }

// multiQueue is batched DoCeph on q DMA queues, pairing each queue with an
// OSD op shard and a messenger lane (the QP-per-queue model).
func multiQueue(q int) func(*ClusterConfig) {
	return func(c *ClusterConfig) {
		batchOn(c)
		c.Bridge.Engine.Queues = q
		c.OSD.OpShards = q
		c.Messenger.Lanes = q
	}
}

// failEvery makes every upstream DMA engine fail each n-th transfer.
func failEvery(n int64) func(*Cluster, Options) {
	return func(cl *Cluster, _ Options) {
		for _, node := range cl.Nodes {
			node.Bridge.EngUp.FailEvery = n
		}
	}
}

// column is one table column: a header and how to render it from a row's
// cells (one cell per row for ablations, one per arm for comparisons).
type column struct {
	header string
	val    func(g []runResult) string
}

// col is a column over single-cell rows.
func col(header string, val func(runResult) string) column {
	return column{header, func(g []runResult) string { return val(g[0]) }}
}

// groups splits a flat cell-ordered result list into rows of n arms.
func groups(rs []runResult, n int) [][]runResult {
	var out [][]runResult
	for ; len(rs) >= n; rs = rs[n:] {
		out = append(out, rs[:n])
	}
	return out
}

// table renders one row per group through cols.
func table(title string, cols []column, rows [][]runResult, notes ...string) *report.Table {
	t := &report.Table{Title: title, Notes: notes}
	for _, c := range cols {
		t.Header = append(t.Header, c.header)
	}
	for _, g := range rows {
		row := make([]string, len(cols))
		for i, c := range cols {
			row[i] = c.val(g)
		}
		t.AddRow(row...)
	}
	return t
}

// Columns shared by several tables.
var (
	colName = col("variant", func(r runResult) string { return r.name })
	colSize = col("size", func(r runResult) string { return sizeLabel(r.size) })
	colLat  = col("avg lat (s)", func(r runResult) string { return report.F3(r.bench.AvgLatency.Seconds()) })
	colCPU  = col("host CPU", func(r runResult) string { return report.Pct(r.hostUtil) })
)

func sizeLabel(b int64) string {
	if b < 1<<20 {
		return report.KB(b)
	}
	return report.MB(b)
}

// versus builds the (size x deployment) grid most comparisons run: per size a
// Baseline cell then a DoCeph cell, both with the same workload.
func versus(sizes []int64, bench BenchConfig) []cell {
	var cells []cell
	for _, size := range sizes {
		cells = append(cells,
			cell{name: "baseline " + sizeLabel(size), mode: Baseline, size: size, bench: bench},
			cell{name: "doceph " + sizeLabel(size), mode: DoCeph, size: size, bench: bench})
	}
	return cells
}
