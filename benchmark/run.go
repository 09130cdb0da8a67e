package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"doceph/internal/bluestore"
	"doceph/internal/cluster"
	"doceph/internal/messenger"
	"doceph/internal/osd"
	"doceph/internal/radosbench"
	"doceph/internal/sim"
	"doceph/internal/telemetry"
	"doceph/internal/trace"
	"doceph/internal/wire"
)

// verifySample is how many written objects each radosbench repetition
// reads back and compares with the payload it wrote.
const verifySample = 64

// repResult is one repetition: what was simulated (must repeat exactly),
// what it cost the host (varies), and what the checks found.
type repResult struct {
	vals values

	// c is the counter delta over the measured window and perOp the ops
	// measured in it. Scale-out has no warm-up hook, so there c covers the
	// whole run and perOp is every client op of the run.
	c     counters
	ops   int64 // measured ops
	perOp float64
	gauges
	delivered uint64

	attempted int64 // measured ops + read-backs
	failed    int64

	// ref is how long the reference kernel took right after this
	// repetition; zero when it was not timed.
	ref time.Duration

	// Traced repetitions only.
	spans []trace.Span
	busy  map[string]sim.Duration
}

// gauges are the non-counter readings of a set of clusters at the end of
// a run: CPU accounting windows (reset at the warm-up boundary by the
// program itself), the staging high-water mark and the assembled shape.
type gauges struct {
	host, dpu telemetry.MergedCPU
	stagingMB float64
	queues    int // DMA queues over both directions of every bridge
	bridges   int
}

func gather(cls ...*cluster.Cluster) gauges {
	var g gauges
	var host, dpu []sim.CPUStats
	var peak int64
	for _, cl := range cls {
		for _, n := range cl.Nodes {
			host = append(host, n.HostCPU.Stats())
			if n.Bridge == nil {
				continue
			}
			dpu = append(dpu, n.DPU.CPU.Stats())
			peak = max(peak, n.Bridge.Proxy.Stats().PeakStagingBytes)
			g.queues += n.Bridge.EngUp.NumQueues() + n.Bridge.EngDown.NumQueues()
			g.bridges++
		}
	}
	g.host, g.dpu = telemetry.Merge(host...), telemetry.Merge(dpu...)
	g.stagingMB = float64(peak) / (1 << 20)
	return g
}

// hostClock reads the process-wide host counters at one instant.
type hostClock struct {
	wall     time.Time
	cpu      time.Duration
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcCPU    float64
}

func readHostClock() hostClock {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	return hostClock{
		wall:     time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:  ms.Mallocs,
		bytes:    ms.TotalAlloc,
		gcCycles: ms.NumGC,
		gcCPU:    gc[0].Value.Float64(),
	}
}

// heapLiveMB forces a collection and returns what survives it.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runRep runs one repetition of w. rec receives the harness's own
// host-clock spans around each call into the program.
func runRep(w workload, traced bool, rec *spanRecorder) (*repResult, error) {
	runtime.GC()
	rep := rec.start(0, w.name)
	defer rec.end(rep)
	var r *repResult
	var err error
	if w.scale != nil {
		r, err = runScaleOutRep(w, rep, rec)
	} else {
		r, err = runBenchRep(w, traced, rep, rec)
	}
	if err != nil {
		return r, fmt.Errorf("%s: %w", w.name, err)
	}
	return r, nil
}

func runBenchRep(w workload, traced bool, rep int, rec *spanRecorder) (*repResult, error) {
	t0 := time.Now()
	sp := rec.start(rep, "setup")
	cfg := w.cluster
	cfg.Trace = traced
	cl := cluster.New(cfg)
	defer cl.Shutdown()
	rec.end(sp)

	var c0 counters
	var h0 hostClock
	bench := w.bench
	sp = rec.start(rep, "prepop+warmup")
	bench.OnWarmupEnd = func() {
		cl.ResetHostStats()
		c0 = snapshot(cl)
		rec.end(sp)
		sp = rec.start(rep, "measured")
		h0 = readHostClock()
	}
	res, err := radosbench.Run(cl.Env, cl.Client, bench)
	h1 := readHostClock()
	rec.end(sp)

	r := &repResult{vals: values{}, ops: res.Ops, perOp: float64(res.Ops), attempted: res.Ops}
	if err != nil {
		r.attempted++
		r.failed++
		return r, err
	}
	if res.Ops == 0 {
		return r, fmt.Errorf("warm-up consumed every op; nothing was measured")
	}
	r.c = snapshot(cl).sub(c0)
	r.gauges = gather(cl)

	v := r.vals
	v["setup_s"] = h0.wall.Sub(t0).Seconds()
	v["sim_iops"] = res.IOPS()
	v["sim_lat_avg_ms"] = ms(res.AvgLatency)
	v["sim_lat_p50_ms"] = ms(res.P50)
	v["sim_lat_p99_ms"] = ms(res.P99)
	r.fill(h0, h1, res.Window, res.Bytes)
	if w.paper != nil {
		// Summed in table order, not map order, so that it repeats exactly.
		sum := 0.0
		for _, m := range endToEnd {
			if paper, ok := w.paper[m.name]; ok {
				sum += math.Abs(v[m.name]-paper) / paper
			}
		}
		v["cluster.paper_err_pct"] = 100 * sum / float64(len(w.paper))
	}
	if traced {
		r.spans = cl.Tracer.Spans()
		r.busy = map[string]sim.Duration{cl.ClientCPU.Name(): cl.ClientCPU.Stats().TotalBusy}
		for _, n := range cl.Nodes {
			r.busy[n.HostCPU.Name()] = n.HostCPU.Stats().TotalBusy
			if n.DPU != nil {
				r.busy[n.DPU.CPU.Name()] = n.DPU.CPU.Stats().TotalBusy
			}
		}
	}

	sp = rec.start(rep, "verify")
	bad, err := readBack(cl, bench)
	rec.end(sp)
	r.attempted += verifySample
	r.failed += bad
	if err != nil {
		return r, err
	}
	v["heap_live_mb"] = heapLiveMB()
	runtime.KeepAlive(cl)
	return r, w.engaged(r)
}

func runScaleOutRep(w workload, rep int, rec *spanRecorder) (*repResult, error) {
	t0 := time.Now()
	sp := rec.start(rep, "setup")
	so := cluster.NewScaleOut(*w.scale)
	defer so.Shutdown()
	rec.end(sp)
	setup := time.Since(t0)

	sp = rec.start(rep, "measured")
	h0 := readHostClock()
	res, err := so.Run(w.workers)
	h1 := readHostClock()
	rec.end(sp)

	r := &repResult{vals: values{}, ops: res.TotalOps, attempted: res.TotalOps, delivered: res.Delivered}
	if err != nil {
		r.attempted++
		r.failed++
		return r, err
	}
	if res.TotalOps == 0 {
		return r, fmt.Errorf("no op completed in the measured window")
	}
	racks := make([]*cluster.Cluster, len(so.Pods))
	for i, pod := range so.Pods {
		racks[i] = pod.Cluster
	}
	r.c = snapshot(racks...)
	r.c[cEvents] = int64(res.Events) // the coordinator's events are the run's too
	r.perOp = float64(r.c[cClientOps])
	r.gauges = gather(racks...)

	v := r.vals
	v["setup_s"] = setup.Seconds()
	v["sim_iops"] = float64(res.TotalOps) / w.scale.Duration.Seconds()
	v["sim_lat_avg_ms"] = ms(res.AvgLatency())
	// ScaleOutResult carries a latency sum, not samples.
	v["sim_lat_p50_ms"], v["sim_lat_p99_ms"] = na, na
	r.fill(h0, h1, w.scale.Duration, res.TotalBytes)
	v["sim.group_windows"] = float64(res.Windows)
	v["sim.group_events_per_window"] = ratio(float64(res.Events), float64(res.Windows))
	v["sim.group_xmsgs_per_window"] = ratio(float64(res.Delivered), float64(res.Windows))

	v["heap_live_mb"] = heapLiveMB()
	runtime.KeepAlive(so)
	return r, w.engaged(r)
}

func ms(d sim.Duration) float64 { return float64(d) / float64(sim.Millisecond) }
func us(d sim.Duration) float64 { return float64(d) / float64(sim.Microsecond) }

// fill derives every row that comes from the host clock over a..b, the
// CPU accounting windows and the Stats() counter deltas. window is the
// measured virtual window and userBytes the payload the clients moved.
func (r *repResult) fill(a, b hostClock, window sim.Duration, userBytes int64) {
	v, c, n := r.vals, r.c, r.perOp
	f := func(id counterID) float64 { return float64(c[id]) }
	ops := float64(r.ops)

	wall, cpu := b.wall.Sub(a.wall), b.cpu-a.cpu
	v["wall_us_per_op"] = float64(wall.Nanoseconds()) / 1e3 / ops
	v["cpu_us_per_op"] = float64(cpu.Nanoseconds()) / 1e3 / ops
	v["allocs_per_op"] = float64(b.mallocs-a.mallocs) / ops
	v["alloc_bytes_per_op"] = float64(b.bytes-a.bytes) / ops
	v["sim.host_ns_per_event"] = float64(wall.Nanoseconds()) / f(cEvents)
	v["runtime.gc_cycles_per_kop"] = float64(b.gcCycles-a.gcCycles) / ops * 1e3
	v["runtime.gc_cpu_pct"] = 100 * ratio(b.gcCPU-a.gcCPU, cpu.Seconds())

	// The paper's Fig. 7 quantity, its Fig. 5 split by thread category, and
	// the DPU cycles that bought the host saving: busy time as a share of
	// one core over the measured window. radosbench drives the kernel on to
	// the next whole virtual second after the last op, so the program's own
	// accounting window has an idle tail of up to a second; dividing by the
	// measured window keeps short workloads comparable, at the price of
	// counting the tail's idle polling and heartbeats (under 0.02 cores).
	util := func(busy sim.Duration) float64 { return 100 * busy.Seconds() / window.Seconds() }
	v["sim_host_cpu_pct"] = util(r.host.TotalBusy)
	v["cluster.host_cpu_msgr_pct"] = util(r.host.BusyByCat[messenger.ThreadCat])
	v["cluster.host_cpu_bstore_pct"] = util(r.host.BusyByCat[bluestore.ThreadCat])
	v["cluster.host_cpu_osd_pct"] = util(r.host.BusyByCat[osd.ThreadCat])
	v["cluster.paper_err_pct"] = na
	var switches int64
	for _, s := range r.host.SwitchesByCat {
		switches += s
	}
	v["sim.ctx_switches_per_op"] = float64(switches) / ops

	v["sim.events_per_op"] = f(cEvents) / n
	v["sim.group_windows"], v["sim.group_events_per_window"], v["sim.group_xmsgs_per_window"] = na, na, na
	v["messenger.msgs_per_op"] = f(cMsgrSent) / n
	v["messenger.bytes_per_op"] = f(cMsgrBytes) / n
	v["messenger.stream_chunks_per_op"] = f(cStreamChunks) / n
	v["messenger.redeliveries"] = f(cRedeliveries)
	v["osd.rep_ops_per_op"] = f(cRepOps) / n
	v["osd.rep_retries"] = f(cRepRetries)
	v["osd.balanced_read_share"] = ratio(f(cBalancedReads), f(cClientReads))
	v["bluestore.txns_per_op"] = f(cStoreTxns) / n
	v["bluestore.txns_per_kvsync"] = ratio(f(cStoreTxns), f(cKVSyncs))
	v["bluestore.deferred_write_share"] = ratio(f(cDeferredWrites), f(cDeferredWrites)+f(cDirectWrites))
	v["bluestore.bytes_written_per_user_byte"] = ratio(f(cStoreBytes), float64(userBytes))

	// The rest exists only where a DPU bridge does.
	dpuRows := map[string]float64{
		"dpu.cpu_pct":                 util(r.dpu.TotalBusy),
		"core.txns_per_op":            f(cProxyTxns) / n,
		"core.fallback_txns":          f(cFallbackTxns),
		"core.peak_staging_mb":        r.stagingMB,
		"core.batch_ops_per_frame":    ratio(f(cBatchedTxns), f(cBatchFlushes)),
		"core.batch_flush_idle_share": ratio(f(cBatchFlushIdle), f(cBatchFlushes)),
		"core.polls_per_segment":      ratio(f(cHostPolls), f(cHostSegments)+f(cHostFrames)),
		"doca.transfers_per_op":       f(cTransfers) / n,
		"doca.bytes_per_transfer":     ratio(f(cTransferBytes), f(cTransfers)),
		"doca.errors":                 f(cTransferErrors),
		"doca.negotiations_per_op":    f(cNegotiations) / n,
		"doca.busy_us_per_op":         f(cEngineBusyNs) / 1e3 / n,
		"doca.wait_us_per_op":         f(cEngineWaitNs) / 1e3 / n,
		"doca.occupancy_pct":          100 * ratio(f(cEngineBusyNs), float64(window)*float64(r.queues)),
	}
	for name, x := range dpuRows {
		if r.bridges == 0 {
			x = na
		}
		v[name] = x
	}
}

// readBack reads a fixed sample of the objects the run wrote through the
// client and compares each with the payload, returning how many differ or
// could not be read.
func readBack(cl *cluster.Cluster, b radosbench.Config) (bad int64, err error) {
	want := radosbench.Payload(b.ObjectBytes).CRC32C()
	done := false
	cl.Env.Spawn("bench-verify", func(p *sim.Proc) {
		defer func() { done = true }()
		for k := 0; k < verifySample; k++ {
			var bl *wire.Bufferlist
			if bl, err = cl.Client.Read(p, sampleObject(b, k), 0, 0); err != nil {
				bad = verifySample - int64(k)
				return
			}
			if bl.CRC32C() != want {
				bad++
			}
		}
	})
	for !done {
		if rerr := cl.Env.RunUntil(cl.Env.Now().Add(sim.Second)); rerr != nil {
			return verifySample, rerr
		}
	}
	if err == nil && bad > 0 {
		err = fmt.Errorf("%d of %d read-backs differ from the payload written", bad, verifySample)
	}
	return bad, err
}

// sampleObject names the k-th read-back target using radosbench's object
// naming: prepopulated objects for mixed runs, otherwise writes spread
// over every worker and the whole index range.
func sampleObject(b radosbench.Config, k int) string {
	if b.Op == radosbench.Mixed {
		return fmt.Sprintf("%s_prepop_%d", b.Prefix, k*b.PrepopulateObjects/verifySample)
	}
	return fmt.Sprintf("%s_w%d_%d", b.Prefix, k%b.Threads, k*b.OpsPerThread/verifySample)
}
