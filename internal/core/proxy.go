package core

import (
	"fmt"

	"doceph/internal/doca"
	"doceph/internal/dpu"
	"doceph/internal/objstore"
	"doceph/internal/rpcchan"
	"doceph/internal/sim"
	"doceph/internal/trace"
	"doceph/internal/wire"
)

// ProxyThreadCat is the accounting category for the DPU-side proxy threads.
const ProxyThreadCat = "proxy"

// ProxyConfig tunes the DPU-side proxy. Zero values take defaults.
type ProxyConfig struct {
	// DisableMRCache renegotiates memory regions per segment instead of
	// reusing established ones (the paper's motivating waste, §3.3); the
	// zero value keeps the cache on.
	DisableMRCache bool
	// DisablePipeline serializes stage->transfer->stage instead of
	// overlapping staging of segment k+1 with the transfer of segment k
	// (ablation); the zero value keeps pipelining on.
	DisablePipeline bool
	// CooldownPeriod is how long DMA stays disabled after a failure.
	CooldownPeriod sim.Duration
}

// DefaultProxyConfig returns the proxy defaults used in the experiments.
func DefaultProxyConfig() ProxyConfig {
	return ProxyConfig{CooldownPeriod: 5 * sim.Second}
}

func (c ProxyConfig) withDefaults() ProxyConfig {
	d := DefaultProxyConfig()
	if c.CooldownPeriod == 0 {
		c.CooldownPeriod = d.CooldownPeriod
	}
	return c
}

// The DPU-side per-byte cost model.
const (
	// serializeCyclesPerByte is charged on the DPU per transaction payload
	// byte when building the data-plane message.
	serializeCyclesPerByte float64 = 0.25
	// proxyStageCyclesPerByte is charged on the DPU per byte memcpy'd into
	// a DMA staging buffer.
	proxyStageCyclesPerByte float64 = 0.5
)

// Breakdown is the per-phase latency accounting behind the paper's Table 3
// and Figure 9, accumulated over all completed write requests.
type Breakdown struct {
	Requests  int64
	HostWrite sim.Duration // host BlueStore submit -> commit
	DMA       sim.Duration // engine copy time across all segments
	DMAWait   sim.Duration // staging-buffer wait + engine queue wait
}

// Avg returns the average per-request phase durations.
func (b Breakdown) Avg() (hostWrite, dma, dmaWait sim.Duration) {
	if b.Requests == 0 {
		return 0, 0, 0
	}
	n := sim.Duration(b.Requests)
	return b.HostWrite / n, b.DMA / n, b.DMAWait / n
}

// ProxyStats counts proxy activity.
type ProxyStats struct {
	DataPlaneTxns    int64
	FallbackTxns     int64 // whole transactions routed over RPC (cooldown)
	FallbackSegments int64 // segments resent over RPC after DMA errors
	ControlCalls     int64
	Reads            int64
	ReadFrameErrors  int64 // read-data segments contradicting their reply's first, dropped
	Probes           int64
	ProbeFailures    int64
	CooldownEntries  int64

	// Batching counters (all zero with batching disabled). Flush reasons
	// partition BatchFlushes: byte threshold, queue-idle gap, max-delay.
	BatchedTxns     int64
	BatchFlushes    int64
	BatchFlushBytes int64
	BatchFlushIdle  int64
	BatchFlushDelay int64

	// Read-cache counters (all zero with the cache disabled).
	ReadCacheHits          int64
	ReadCacheMisses        int64
	ReadCacheInvalidations int64

	// PeakStagingBytes is the high-water mark of payload bytes held in DMA
	// staging buffers at any one instant (per-segment buffers and batch
	// frames alike). With flow-controlled streaming the ceiling tracks
	// window x chunk, not object size — the bounded-memory claim the
	// streaming ablation checks.
	PeakStagingBytes int64
}

// Proxy is the DPU-side ProxyObjectStore. It implements objstore.Store, so
// the unmodified OSD uses it exactly like a local BlueStore (paper §3.1:
// "DoCeph leverages this modularity by overriding the ObjectStore
// interface").
type Proxy struct {
	env   *sim.Env
	dev   *dpu.DPU
	cfg   ProxyConfig
	batch BatchConfig

	rpc     *rpcchan.Endpoint // DPU end of the control channel
	engUp   *doca.Engine      // DPU -> host
	engDown *doca.Engine      // host -> DPU
	cc      *doca.CommChannel
	dpuMR   *doca.MemRegion
	hostMR  *doca.MemRegion

	thProxy *sim.Thread
	// txBody is shipTxn as a func value, made once.
	txBody func(*sim.Proc)
	tr     *trace.Tracer

	nextReq      uint64
	nextTxnSeq   uint64
	pendingTxns  map[uint64]*pendingTxn
	pendingReads map[uint64]*pendingRead

	// Batcher state (live only when batch.Enable; see batch.go).
	thBatch    *sim.Thread
	batchCond  *sim.Cond
	batchQ     []*pendingTxn
	batchBytes int64
	// batchFrames holds a frame on the engine until its proxy-batch-dma proc,
	// which finds it by id, takes it; batchBody is settleBatch as a func
	// value, made once.
	batchFrames map[uint64]*batchFrame
	batchBody   func(*sim.Proc)
	// batchSeq counts arrivals; the flush loop compares it across an
	// IdleDelay sleep to detect a quiet queue.
	batchSeq uint64
	// batchInflight counts batch frames currently on the engine; the flush
	// loop accumulates while it is non-zero (backpressure).
	batchInflight int
	// doneEntries is the array coalesced commit notifications are unpacked
	// into (plain values, so nothing is kept reachable through it).
	doneEntries []txnDoneEntry

	// cooldown state (paper §4): dmaHealthy gates the data plane; after
	// cooldownUntil passes, the next request probes before re-enabling.
	// With the circuit breaker enabled, br supersedes both fields.
	dmaHealthy    bool
	cooldownUntil sim.Time
	br            *dpu.Breaker

	// rcache serves hot reads from DPU DDR (nil with the cache disabled).
	rcache *dpu.ReadCache

	breakdown Breakdown
	stats     ProxyStats
	// stagingBytes is the current occupancy behind stats.PeakStagingBytes.
	stagingBytes int64
}

// noteStage/noteUnstage maintain the staging-buffer high-water mark around
// every Buffers.Acquire/Release pair. Single-threaded per proxy event, so
// plain arithmetic suffices.
func (px *Proxy) noteStage(n int64) {
	px.stagingBytes += n
	if px.stagingBytes > px.stats.PeakStagingBytes {
		px.stats.PeakStagingBytes = px.stagingBytes
	}
}

func (px *Proxy) noteUnstage(n int64) { px.stagingBytes -= n }

// txnMetaBytes is the encoded-transaction metadata a pendingTxn carries
// inline: 45 bytes of fixed fields and length prefixes for a one-op write, and
// 75 of names ("pg.123" and "benchmark_data_w15_12345" fit), which fills the
// record's 384-byte size class. A longer frame grows by append.
const txnMetaBytes = 120

// pendingTxn is everything one in-flight transaction owns on the proxy, in
// one allocation: the Result handed back to the caller, the encoded
// transaction its proxy-tx proc (or the batcher) ships — the proc finds the
// record by its id, so it needs no closure — and the host's commit
// notification that completes it. The caller reads res long after Done: never
// recycle one.
type pendingTxn struct {
	px            *Proxy
	reqID, txnSeq uint64
	res           objstore.Result
	done          sim.Event
	code          uint16
	hostWriteNano int64
	// frame is the encoded transaction, its metadata written over meta and
	// its payload segments shared, until it has shipped: then Init drops
	// what the slots referenced, since the caller keeps pt much longer.
	frame       wire.Inline2
	meta        [txnMetaBytes]byte
	ctx         trace.SpanID
	enq         sim.Time // when the batcher queued it
	useDMA      bool
	streamReuse bool
}

// Run completes the caller's Result; the host's commit notification is in.
func (pt *pendingTxn) Run() {
	px := pt.px
	pt.res.Err = codeToErr(pt.code)
	px.breakdown.Requests++
	px.breakdown.HostWrite += sim.Duration(pt.hostWriteNano)
	delete(px.pendingTxns, pt.reqID)
	pt.res.Done.Fire()
}

// segment is one in-flight DMA segment of a transaction: the engine
// transfer, the tag the host poller reads off it, its view of the frame and
// its trace span. A transaction's segments are allocated together.
type segment struct {
	px   *Proxy
	t    doca.Transfer
	hdr  segHeader
	view wire.Inline2
	span trace.SpanID
}

// Run frees the segment's staging buffer once the engine is done with it.
func (sg *segment) Run() {
	sg.px.tr.Finish(sg.span)
	sg.px.dev.Buffers.Release()
	sg.px.noteUnstage(sg.t.Bytes)
}

// pendingRead is everything one in-flight read owns on the proxy, in one
// allocation: the transfer that carries its descriptor to the host, with the
// tag and the frame, and the table the reply's data segments fill.
type pendingRead struct {
	done sim.Event
	t    doca.Transfer
	hdr  segHeader
	desc readReqFrame
	// segs is sized by the first data segment's total (slot when that is
	// one); have counts the filled slots. have and code share a word, which
	// keeps the record in the 480-byte size class.
	segs []*wire.Bufferlist
	slot [1]*wire.Bufferlist
	have int32
	code uint16
}

// NewProxy builds the DPU-side proxy. rpcEnd is the DPU endpoint of the
// control channel; engUp/engDown are the DMA engines for the two
// directions; dpuMR/hostMR are the staging regions (negotiated lazily via
// cc, or per-segment when the MR cache is disabled). Of cfg it reads Proxy
// and the three off-by-default mechanisms: Batch, Breaker and ReadCache.
func NewProxy(env *sim.Env, dev *dpu.DPU, rpcEnd *rpcchan.Endpoint,
	cc *doca.CommChannel, engUp, engDown *doca.Engine,
	dpuMR, hostMR *doca.MemRegion, cfg BridgeConfig) *Proxy {
	px := &Proxy{
		env: env, dev: dev, cfg: cfg.Proxy.withDefaults(), batch: cfg.Batch.withDefaults(),
		rpc: rpcEnd, engUp: engUp, engDown: engDown, cc: cc,
		dpuMR: dpuMR, hostMR: hostMR,
		thProxy:      sim.NewThread("proxy@"+dev.Name, ProxyThreadCat),
		pendingTxns:  make(map[uint64]*pendingTxn),
		pendingReads: make(map[uint64]*pendingRead),
		dmaHealthy:   true,
	}
	px.txBody = px.shipTxn
	if cfg.Breaker.Enable {
		px.br = dpu.NewBreaker(cfg.Breaker)
	}
	if cfg.ReadCache.Enable {
		px.rcache = dpu.NewReadCache()
	}
	rpcEnd.Handle(opTxnDone, px.onTxnDone)
	rpcEnd.Handle(opReadDone, px.onReadDone)
	rpcEnd.Handle(opTxnDoneBatch, px.onTxnDoneBatch)
	engDown.Completions().Serve("dpu-dma-poll@"+dev.Name,
		sim.NewThread("dpu-dma-poll", ProxyThreadCat), px.harvestRead)
	if px.batch.Enable {
		// Clamp the batch byte cap so a worst-case frame (payload + framing
		// overhead) fits one staging buffer and one engine transfer.
		lim := segLimit(dev.Buffers.BufferBytes(), engUp) - batchFrameOverhead(maxOpsPerFrame)
		if px.batch.MaxBatchBytes > lim {
			px.batch.MaxBatchBytes = lim
		}
		if px.batch.MaxOpBytes > px.batch.MaxBatchBytes {
			px.batch.MaxOpBytes = px.batch.MaxBatchBytes
		}
		px.thBatch = sim.NewThread("proxy-batch@"+dev.Name, ProxyThreadCat)
		px.batchCond = sim.NewCond()
		px.batchFrames = make(map[uint64]*batchFrame)
		px.batchBody = px.settleBatch
		env.SpawnDaemon("proxy-batch@"+dev.Name, func(p *sim.Proc) { px.batchLoop(p) })
	}
	return px
}

// SetTracer attaches an op tracer. Only transactions carrying a TraceCtx
// produce spans; probe traffic and RPC-fallback segments stay untraced.
func (px *Proxy) SetTracer(tr *trace.Tracer) { px.tr = tr }

// Stats returns a copy of the proxy counters.
func (px *Proxy) Stats() ProxyStats {
	s := px.stats
	if px.rcache != nil {
		rs := px.rcache.Stats()
		s.ReadCacheHits = rs.Hits
		s.ReadCacheMisses = rs.Misses
		s.ReadCacheInvalidations = rs.Invalidations
	}
	return s
}

// ReadCache returns the DPU-side read cache, or nil when it is disabled.
func (px *Proxy) ReadCache() *dpu.ReadCache { return px.rcache }

// BreakdownSnapshot returns the accumulated latency breakdown.
func (px *Proxy) BreakdownSnapshot() Breakdown { return px.breakdown }

// ResetBreakdown clears the latency accounting (benchmark warmup).
func (px *Proxy) ResetBreakdown() { px.breakdown = Breakdown{} }

// DMAHealthy reports whether the data plane currently uses DMA.
func (px *Proxy) DMAHealthy() bool {
	if px.br != nil {
		return px.br.State() == dpu.BreakerClosed
	}
	return px.dmaHealthy
}

// Breaker returns the circuit breaker, or nil when it is disabled.
func (px *Proxy) Breaker() *dpu.Breaker { return px.br }

// ensureRegions makes both regions usable for DMA: once per lifetime with
// the MR cache, per call without it.
func (px *Proxy) ensureRegions(p *sim.Proc) {
	if !px.cfg.DisableMRCache && px.dpuMR.Exported() && px.hostMR.Exported() {
		return
	}
	px.cc.Negotiate(p, px.dpuMR)
	px.cc.Negotiate(p, px.hostMR)
}

// dmaAllowed implements the cooldown gate: healthy -> yes; in cooldown ->
// no; cooldown expired -> run a probe transfer and decide. With the circuit
// breaker enabled the decision is delegated to its state machine instead.
func (px *Proxy) dmaAllowed(p *sim.Proc) bool {
	if px.br != nil {
		return px.breakerAllowed(p)
	}
	if px.dmaHealthy {
		return true
	}
	if p.Now() < px.cooldownUntil {
		return false
	}
	if px.probe(p) != nil {
		px.enterCooldown(p)
		return false
	}
	px.dmaHealthy = true
	return true
}

// probeBytes is the size of the post-cooldown health-check transfer.
const probeBytes int64 = 64 << 10

// probe is the health check of paper §4: "a small test DMA transfer to
// determine whether the DMA path can be safely reactivated". A probe the
// engine refuses and one that fails in flight both count as failed.
func (px *Proxy) probe(p *sim.Proc) error {
	px.stats.Probes++
	px.ensureRegions(p)
	t := &doca.Transfer{Bytes: probeBytes, Src: px.dpuMR, Dst: px.hostMR,
		Tag: &segHeader{kind: segProbe}}
	err := px.engUp.Submit(p, px.dev.CPU, t)
	if err == nil {
		t.Done.Wait(p)
		err = t.Err
	}
	if err != nil {
		px.stats.ProbeFailures++
	}
	return err
}

func (px *Proxy) enterCooldown(p *sim.Proc) {
	if px.br != nil {
		// Breaker mode: a single error is a data point, not a verdict —
		// DMA stays on until the failure rate crosses the threshold.
		px.br.RecordFailure(p.Now())
		return
	}
	if px.dmaHealthy {
		px.stats.CooldownEntries++
	}
	px.dmaHealthy = false
	px.cooldownUntil = p.Now().Add(px.cfg.CooldownPeriod)
}

// breakerAllowed asks the breaker what to do with this request, running the
// probe transfer itself when one is admitted (half-open re-enrollment).
func (px *Proxy) breakerAllowed(p *sim.Proc) bool {
	switch px.br.Decide(p.Now()) {
	case dpu.BreakerAllow:
		return true
	case dpu.BreakerProbe:
		ok := px.probe(p) == nil
		px.br.RecordProbe(p.Now(), ok)
		// The probe that completes the success streak closes the breaker
		// and its request rides DMA; earlier probes stay on the fallback.
		return ok && px.br.State() == dpu.BreakerClosed
	default:
		return false
	}
}

// noteDMAWait feeds stall detection: a request whose non-copy wait exceeds
// the breaker's StallThreshold counts toward opening like an error.
func (px *Proxy) noteDMAWait(p *sim.Proc, wait sim.Duration) {
	if px.br == nil {
		return
	}
	if st := px.br.Config().StallThreshold; st > 0 && wait > st {
		px.br.RecordStall(p.Now())
	}
}

// QueueTransaction implements objstore.Store: the write data plane. The
// payload is serialized on the DPU, cut into <=2 MB segments, staged into
// DMA buffers and shipped to the host, where the BlueStore server commits
// it; Done fires only after the host acknowledges durability (preserving
// write-through semantics).
func (px *Proxy) QueueTransaction(p *sim.Proc, txn *objstore.Transaction) *objstore.Result {
	px.invalidateCached(txn)
	ctx := trace.SpanID(txn.TraceCtx)
	if !px.tr.Enabled() {
		ctx = 0
	}
	// Serialize on the submitting DPU thread (tp_osd_tp on the DPU). The
	// frame references payload segments zero-copy; the CPU cost of the
	// memcpy a real implementation would do is still charged below.
	var serSp trace.SpanID
	if ctx != 0 {
		serSp = px.tr.Start(ctx, 0, trace.StageSerialize, px.dev.Name)
	}
	pt := &pendingTxn{px: px, ctx: ctx, streamReuse: txn.StreamReuse}
	payload := pt.frame.Init()
	txn.EncodeBLInto(pt.meta[:], payload)
	serBusy := px.dev.CPU.ExecSelf(p, int64(float64(payload.Length())*serializeCyclesPerByte))
	px.tr.AddCPU(serSp, px.dev.CPU.Name(), serBusy)
	px.tr.AddBytes(serSp, int64(payload.Length()))
	px.tr.Finish(serSp)

	px.nextReq++
	pt.reqID = px.nextReq
	px.nextTxnSeq++
	pt.txnSeq = px.nextTxnSeq
	px.pendingTxns[pt.reqID] = pt

	if px.batch.Enable && int64(payload.Length()) <= px.batch.MaxOpBytes {
		// Small op: hand it to the batcher, which ships it coalesced with
		// its neighbours; completion still arrives per op.
		px.enqueueBatch(p, pt)
		px.env.After(&pt.done, pt)
		return &pt.res
	}

	pt.useDMA = px.dmaAllowed(p)
	if pt.useDMA {
		px.stats.DataPlaneTxns++
	} else {
		px.stats.FallbackTxns++
	}
	px.env.SpawnID("proxy-tx:", pt.reqID, px.txBody)
	return &pt.res
}

// shipTxn is the body of every proxy-tx proc: ship the transaction its id
// names, then complete it once the host has committed.
func (px *Proxy) shipTxn(tp *sim.Proc) {
	pt := px.pendingTxns[tp.ID()]
	tp.SetThread(px.thProxy)
	if pt.useDMA {
		px.shipViaDMA(tp, pt)
	} else {
		px.shipViaRPC(tp, pt.reqID, pt.txnSeq, &pt.frame.Bufferlist)
	}
	pt.frame.Init() // shipped; the caller keeps pt, through res, much longer
	pt.done.Wait(tp)
	pt.Run()
}

// invalidateCached drops read-cache entries for every object txn mutates,
// before the transaction ships — both the per-op and batched paths funnel
// through QueueTransaction, so no mutation can race a stale hit.
func (px *Proxy) invalidateCached(txn *objstore.Transaction) {
	if px.rcache == nil {
		return
	}
	for i := range txn.Ops {
		op := &txn.Ops[i]
		switch op.Code {
		case objstore.OpWrite, objstore.OpZero, objstore.OpTruncate, objstore.OpRemove:
			px.rcache.Invalidate(op.Collection, op.Object)
		case objstore.OpRmColl:
			px.rcache.InvalidateCollection(op.Collection)
		}
	}
}

// segLimit is the largest segment one transfer on eng may carry through a
// staging buffer of bufBytes.
func segLimit(bufBytes int64, eng *doca.Engine) int64 {
	if m := eng.Config().MaxTransferBytes; m < bufBytes {
		return m
	}
	return bufBytes
}

// cut is a payload divided into the segments that cross PCIe one transfer
// (or one fallback RPC) each — the only place that arithmetic lives, so
// every path cuts the same payload into the same pieces.
type cut struct {
	payload  *wire.Bufferlist
	segBytes int64
	total    int
}

// newCut divides payload for eng's staging buffers; an empty payload still
// travels as one (empty) segment.
func newCut(payload *wire.Bufferlist, bufBytes int64, eng *doca.Engine) cut {
	c := cut{payload: payload, segBytes: segLimit(bufBytes, eng)}
	c.total = int((int64(payload.Length()) + c.segBytes - 1) / c.segBytes)
	if c.total == 0 {
		c.total = 1
	}
	return c
}

// size returns the byte count of segment i.
func (c cut) size(i int) int64 {
	n := int64(c.payload.Length()) - int64(i)*c.segBytes
	if n > c.segBytes {
		n = c.segBytes
	}
	return n
}

// view returns segment i as a zero-copy view of the payload.
func (c cut) view(i int) *wire.Bufferlist {
	return c.payload.SubList(i*int(c.segBytes), int(c.size(i)))
}

// viewInto appends segment i's view of the payload to dst.
func (c cut) viewInto(dst *wire.Bufferlist, i int) {
	c.payload.ViewInto(dst, i*int(c.segBytes), int(c.size(i)))
}

// shipViaDMA cuts payload into segments and pipelines stage+transfer. On a
// segment error the completed segments are preserved and the rest falls
// back to RPC (paper §4). ctx, when non-zero, parents per-segment
// dma-stage/dma spans and rides the segment tags to the host. streamReuse
// marks every segment as region-reusing (stream chunks move through the
// same pre-registered staging pool, like consecutive batch frames), so
// back-to-back chunks of a stream pay the amortized setup.
func (px *Proxy) shipViaDMA(p *sim.Proc, pt *pendingTxn) {
	reqID, txnSeq, ctx, streamReuse := pt.reqID, pt.txnSeq, pt.ctx, pt.streamReuse
	c := newCut(&pt.frame.Bufferlist, px.dev.Buffers.BufferBytes(), px.engUp)
	total := c.total
	px.ensureRegions(p)

	segs := make([]segment, total)
	submitted := 0
	// dmaStart..dmaEnd bounds the request's DMA phase on the wall clock;
	// DMA-wait is that span minus the actual copy time (Table 3's "waiting
	// time that occurs due to serial DMA transfers", including staging-
	// buffer waits).
	dmaStart := p.Now()
	var dmaEnd sim.Time
	var copySum sim.Duration
	for i := 0; i < total; i++ {
		n := c.size(i)
		// Staging: wait for a free DMA-capable buffer, then memcpy.
		var stageSp trace.SpanID
		if ctx != 0 {
			stageSp = px.tr.Start(ctx, 0, trace.StageDMAStage, px.dev.Name)
		}
		acq := p.Now()
		px.dev.Buffers.Acquire(p)
		px.noteStage(n)
		px.tr.AddQueueWait(stageSp, p.Now().Sub(acq))
		px.tr.AddCPU(stageSp, px.dev.CPU.Name(),
			px.dev.CPU.Exec(p, px.thProxy, int64(float64(n)*proxyStageCyclesPerByte)))
		if px.cfg.DisableMRCache {
			px.cc.Negotiate(p, px.hostMR)
		}
		px.tr.AddBytes(stageSp, n)
		px.tr.Finish(stageSp)
		var dmaSp trace.SpanID
		if ctx != 0 {
			dmaStage := trace.StageDMA
			if px.engUp.NumQueues() > 1 {
				dmaStage = trace.StageDMAQueue(px.engUp.QueueFor(reqID))
			}
			dmaSp = px.tr.Start(ctx, 0, dmaStage, px.dev.Name)
			px.tr.AddBytes(dmaSp, n)
		}
		sg := &segs[i]
		sg.px, sg.span = px, dmaSp
		sg.hdr = segHeader{kind: segTxn, reqID: reqID, seg: i, total: total,
			txnSeq: txnSeq, traceCtx: uint64(ctx)}
		data := sg.view.Init()
		c.viewInto(data, i)
		sg.t = doca.Transfer{
			ReqID: reqID, Seg: i, TotalSegs: total, Bytes: n, Data: data,
			Src: px.dpuMR, Dst: px.hostMR, TraceCtx: uint64(ctx),
			ReuseSetup: streamReuse, Tag: &sg.hdr,
		}
		if err := px.engUp.Submit(p, px.dev.CPU, &sg.t); err != nil {
			px.tr.Finish(dmaSp)
			px.dev.Buffers.Release()
			px.noteUnstage(n)
			break
		}
		submitted++
		if !px.cfg.DisablePipeline {
			// Release the buffer when the engine finishes with it; keep
			// staging the next segment meanwhile.
			px.env.After(&sg.t.Done, sg)
		} else {
			sg.t.Done.Wait(p)
			sg.Run()
		}
	}
	// Collect completions and account DMA time. A segment was delivered if
	// it was submitted and its transfer finished without error.
	anyErr := submitted < total
	for i := range segs[:submitted] {
		t := &segs[i].t
		t.Done.Wait(p)
		copySum += t.CopyTime()
		if t.CompletedAt > dmaEnd {
			dmaEnd = t.CompletedAt
		}
		if t.Err != nil {
			anyErr = true
		}
	}
	px.breakdown.DMA += copySum
	if wait := dmaEnd.Sub(dmaStart) - copySum; wait > 0 {
		px.breakdown.DMAWait += wait
		if !anyErr {
			px.noteDMAWait(p, wait)
		}
	}
	if anyErr {
		// Preserve completed segments ("previously completed segments are
		// preserved to avoid redundant transmission", §4); resend only the
		// failed and never-attempted ones over RPC, then cool down.
		px.enterCooldown(p)
		for i := 0; i < total; i++ {
			if i >= submitted || segs[i].t.Err != nil {
				px.stats.FallbackSegments++
				px.segViaRPC(p, reqID, txnSeq, c, i)
			}
		}
	}
}

// shipViaRPC sends the whole request over the control channel, cut as DMA
// would have cut it (the cooldown path).
func (px *Proxy) shipViaRPC(p *sim.Proc, reqID, txnSeq uint64, payload *wire.Bufferlist) {
	c := newCut(payload, px.dev.Buffers.BufferBytes(), px.engUp)
	for i := 0; i < c.total; i++ {
		px.segViaRPC(p, reqID, txnSeq, c, i)
	}
}

// segViaRPC sends segment i of c over the control channel.
func (px *Proxy) segViaRPC(p *sim.Proc, reqID, txnSeq uint64, c cut, i int) {
	if _, err := px.rpc.Call(p, opSegFallback,
		encodeSegFallback(reqID, txnSeq, i, c.total, c.view(i))); err != nil {
		// The control channel is the last resort; surface loudly.
		panic(fmt.Sprintf("core: RPC fallback failed for req %d: %v", reqID, err))
	}
}

// onTxnDone handles the host's commit notification.
func (px *Proxy) onTxnDone(p *sim.Proc, req rpcchan.Request,
	respond func(*wire.Bufferlist, uint16)) {
	respond(nil, 0) // notify: no-op
	reqID, code, hostNanos, err := decodeTxnDone(req.Payload)
	if err != nil {
		panic("core: corrupt txn-done notification")
	}
	if pt, ok := px.pendingTxns[reqID]; ok {
		pt.code = code
		pt.hostWriteNano = hostNanos
		pt.done.Fire()
	}
}

// Read implements objstore.Store: the symmetric read data plane (§5.5).
// The request descriptor travels to the host via DMA; the host stages the
// object data and DMAs it back in <=2 MB segments which the DPU-side
// poller reassembles.
func (px *Proxy) Read(p *sim.Proc, coll, obj string, off, length uint64) (*wire.Bufferlist, error) {
	if px.rcache != nil {
		if bl, ok := px.rcache.Lookup(coll, obj, off, length); ok {
			// Served entirely from DPU DDR: DPU CPU for the lookup and
			// copy-out, no DMA descriptor, no host involvement at all.
			px.dev.CPU.ExecSelf(p, px.rcache.HitCost(int64(bl.Length())))
			return bl, nil
		}
	}
	px.nextReq++
	reqID := px.nextReq
	pr := &pendingRead{}
	px.pendingReads[reqID] = pr
	defer delete(px.pendingReads, reqID)

	desc := pr.desc.encode(&readReq{ReqID: reqID, Coll: coll, Object: obj, Off: off, Length: length})
	if px.dmaAllowed(p) {
		px.stats.Reads++
		px.ensureRegions(p)
		pr.hdr = segHeader{kind: segReadReq, reqID: reqID, total: 1}
		t := &pr.t
		*t = doca.Transfer{
			ReqID: reqID, TotalSegs: 1, Bytes: int64(desc.Length()), Data: desc,
			Src: px.dpuMR, Dst: px.hostMR, Tag: &pr.hdr,
		}
		if err := px.engUp.Submit(p, px.dev.CPU, t); err != nil {
			return nil, err
		}
		t.Done.Wait(p)
		if t.Err != nil {
			px.enterCooldown(p)
			return px.readViaRPC(p, desc)
		}
		pr.done.Wait(p)
		if err := codeToErr(pr.code); err != nil {
			return nil, err
		}
		out := wire.Concat(pr.segs)
		px.cacheRead(coll, obj, off, length, out)
		return out, nil
	}
	bl, err := px.readViaRPC(p, desc)
	if err == nil {
		px.cacheRead(coll, obj, off, length, bl)
	}
	return bl, err
}

// cacheRead populates the read cache after a successful read. Only
// full-object reads (offset 0, length 0 = to EOF) reveal the object's
// complete content, so only those insert; ranged reads still hit against
// a previously cached full object.
func (px *Proxy) cacheRead(coll, obj string, off, length uint64, data *wire.Bufferlist) {
	if px.rcache == nil || off != 0 || length != 0 {
		return
	}
	px.rcache.Insert(coll, obj, data)
}

func (px *Proxy) readViaRPC(p *sim.Proc, desc *wire.Bufferlist) (*wire.Bufferlist, error) {
	return px.call(p, opReadFallback, desc)
}

// harvestRead is one turn of the DPU-side poller consuming host->DPU DMA
// completions (read data segments).
func (px *Proxy) harvestRead(p *sim.Proc, t *doca.Transfer) {
	hdr, ok := t.Tag.(*segHeader)
	if !ok || hdr.kind != segReadData {
		return
	}
	px.dev.CPU.ExecSelf(p, 4_000)
	pr, ok := px.pendingReads[hdr.reqID]
	if !ok {
		return
	}
	if t.Err != nil {
		pr.code = rcIO
		pr.done.Fire()
		return
	}
	if hdr.seg < 0 || hdr.seg >= hdr.total || pr.segs != nil && hdr.total != len(pr.segs) {
		px.stats.ReadFrameErrors++ // disagrees with itself or the reply's first segment
		return
	}
	if pr.segs == nil {
		if pr.segs = pr.slot[:]; hdr.total > len(pr.slot) {
			pr.segs = make([]*wire.Bufferlist, hdr.total)
		}
	}
	if pr.segs[hdr.seg] == nil {
		pr.have++
	}
	pr.segs[hdr.seg] = t.Data
	if int(pr.have) == len(pr.segs) {
		pr.done.Fire()
	}
}

// onReadDone handles the host's read-completion notification (errors and
// zero-length reads, which produce no data segments).
func (px *Proxy) onReadDone(p *sim.Proc, req rpcchan.Request,
	respond func(*wire.Bufferlist, uint16)) {
	respond(nil, 0)
	reqID, code, total, err := decodeReadDone(req.Payload)
	if err != nil {
		panic("core: corrupt read-done notification")
	}
	pr, ok := px.pendingReads[reqID]
	if !ok {
		return
	}
	if code != rcOK || total == 0 {
		pr.code = code
		pr.segs, pr.have = nil, 0
		pr.done.Fire()
	}
}

// call is one RPC to the host; a failure the host reported by code comes
// back as the objstore error that code stands for.
func (px *Proxy) call(p *sim.Proc, op uint16, req *wire.Bufferlist) (*wire.Bufferlist, error) {
	resp, err := px.rpc.Call(p, op, req)
	if ce, ok := err.(rpcchan.CallError); ok { // the only error Call returns, bare
		return nil, codeToErr(ce.Code)
	}
	return resp, err
}

// controlCallCycles is the DPU-side cost of issuing a control RPC.
const controlCallCycles int64 = 10_000

// control is a metadata call on the control plane: the DPU-side cost of
// issuing it, then the call.
func (px *Proxy) control(p *sim.Proc, op uint16, req *wire.Bufferlist) (*wire.Bufferlist, error) {
	px.stats.ControlCalls++
	px.dev.CPU.ExecSelf(p, controlCallCycles)
	return px.call(p, op, req)
}

// Stat implements objstore.Store over the control plane.
func (px *Proxy) Stat(p *sim.Proc, coll, obj string) (objstore.StatInfo, error) {
	resp, err := px.control(p, opStat, encodeObjRef(coll, obj))
	if err != nil {
		return objstore.StatInfo{}, err
	}
	return decodeStatResp(resp)
}

// Exists implements objstore.Store over the control plane.
func (px *Proxy) Exists(p *sim.Proc, coll, obj string) bool {
	resp, err := px.control(p, opExists, encodeObjRef(coll, obj))
	return err == nil && resp.Length() == 1 && resp.Bytes()[0] == 1
}

// List implements objstore.Store over the control plane.
func (px *Proxy) List(p *sim.Proc, coll string) ([]string, error) {
	resp, err := px.control(p, opList, encodeObjRef(coll, ""))
	if err != nil {
		return nil, err
	}
	return decodeList(resp)
}
