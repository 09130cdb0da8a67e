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
	poll    readPoll
	tr      *trace.Tracer

	nextReq      uint64
	nextTxnSeq   uint64
	pendingTxns  map[uint64]*pendingTxn
	pendingReads map[uint64]*pendingRead
	// The partition's free lists (sim.Local) of the crossing records the
	// proxy makes. A record goes back at the one point after which nothing
	// reads it, zeroed, so a listed one holds no payload, view or Result.
	reads  *sim.FreeList[pendingRead]
	calls  *sim.FreeList[storeCall]
	ships  *ships
	txns   *sim.FreeList[pendingTxn]
	frames *frames

	// Batcher state (live only when batch.Enable; see batch.go).
	thBatch    *sim.Thread
	batchCond  *sim.Cond
	batchQ     []*pendingTxn
	batchBytes int64
	// batchSeq counts arrivals; the batcher compares it across an IdleDelay
	// wait to detect a quiet queue.
	batchSeq uint64
	// batchInflight counts batch frames currently on the engine; the batcher
	// accumulates while every DMA queue has one (backpressure).
	batchInflight int
	// doneEntries is the array coalesced commit notifications are unpacked
	// into (plain values, so nothing is kept reachable through it).
	doneEntries []txnDoneEntry

	// cooldown state (paper §4): dmaHealthy gates the data plane; after
	// cooldownUntil passes, the next request probes before re-enabling.
	dmaHealthy    bool
	cooldownUntil sim.Time

	breakdown Breakdown
	stats     ProxyStats
	// stagingBytes is the current occupancy behind stats.PeakStagingBytes.
	stagingBytes int64
}

// noteStage/noteUnstage maintain the staging-buffer high-water mark around
// every Buffers.AcquireThen/Release pair. Single-threaded per proxy event, so
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
// record's 320-byte size class. A longer frame grows by append.
const txnMetaBytes = 120

// pendingTxn is everything one in-flight transaction owns on the proxy, in
// one record from the partition's free list: a pointer to the caller's Result,
// the encoded transaction its shipment (or the batcher) ships, and the host's
// commit notification that completes it. The Result lives in a record of the
// caller's, so pt goes back once it has completed it (Run) and, for a batched
// op, once its frame has been encoded, whichever is later.
type pendingTxn struct {
	px            *Proxy
	reqID, txnSeq uint64
	res           *objstore.Result
	done          sim.Event
	code          uint16
	useDMA        bool
	streamReuse   bool
	// refs counts the readers still to come: Run, and the encode of a batched
	// op's frame. fr is that frame, which Run tells the op has completed.
	refs          int8
	fr            *batchFrame
	hostWriteNano int64
	// frame is the encoded transaction, its metadata written over meta and
	// its payload segments shared, until it has shipped: then Init drops
	// what the slots referenced.
	frame wire.Inline2
	meta  [txnMetaBytes]byte
	ctx   trace.SpanID
	enq   sim.Time // when the batcher queued it
}

// Run completes the caller's Result; the host's commit notification is in.
// Nothing of pt may be touched after it.
func (pt *pendingTxn) Run() {
	px, res, fr := pt.px, pt.res, pt.fr
	res.Err = codeToErr(pt.code)
	px.breakdown.Requests++
	px.breakdown.HostWrite += sim.Duration(pt.hostWriteNano)
	delete(px.pendingTxns, pt.reqID)
	pt.release()
	if fr != nil {
		fr.release()
	}
	res.Done.Fire()
}

// release ends one reader's use of pt; the last puts it back.
func (pt *pendingTxn) release() {
	if pt.refs--; pt.refs == 0 {
		pt.px.txns.Put(pt)
	}
}

// segment is one in-flight DMA segment of a transaction: the engine
// transfer, the tag the host poller reads off it, its view of the frame and
// its trace span. A transaction's segments come as one table from the
// partition's free list.
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
// record from the partition's free list: the transfer that carries its
// descriptor to the host, with the tag and the frame, the table the reply's
// data segments fill, and the state of the task chain that runs the read
// (ReadThen).
type pendingRead struct {
	done sim.Event
	t    doca.Transfer
	hdr  segHeader
	desc readReqFrame
	// segs is sized by the first data segment's total (slot when that is
	// one); have counts the filled slots.
	segs []*wire.Bufferlist
	slot [1]*wire.Bufferlist
	have int32
	code uint16
	// dmaErr reports a failed return segment: the read goes again over RPC.
	dmaErr bool
	// The chain: the caller's record, its thread and continuation, the step,
	// the read's request id, the gate's probe verdict, and the RPC's reply.
	px    *Proxy
	th    *sim.Thread
	c     *objstore.Call
	next  sim.Task
	step  readStep
	ok    bool
	reqID uint64
	reply *rpcchan.Reply
}

// readStep is what a read's next step does.
type readStep uint8

const (
	readStart      readStep = iota // file the read, then the gate
	readProbed                     // the gate's probe is done: DMA or RPC by its verdict
	readDMA                        // negotiate the DPU region, if need be
	readHostRegion                 // the DPU region is negotiated: the host's next
	readSubmit                     // the regions are usable: submit the descriptor
	readCharged                    // the submit cost is paid: enqueue the descriptor
	readSent                       // the descriptor's transfer is done
	readFilled                     // the reply is in, or a data segment failed
	readRPC                        // read over the control plane
	readReplied                    // the RPC's answer is in
)

// NewProxy builds the DPU-side proxy. rpcEnd is the DPU endpoint of the
// control channel; engUp/engDown are the DMA engines for the two
// directions; dpuMR/hostMR are the staging regions (negotiated lazily via
// cc, or per-segment when the MR cache is disabled). Of cfg it reads Proxy
// and the off-by-default mechanism: Batch.
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
		reads:        sim.Local[sim.FreeList[pendingRead]](env),
		calls:        sim.Local[sim.FreeList[storeCall]](env),
		ships:        sim.Local[ships](env),
		txns:         sim.Local[sim.FreeList[pendingTxn]](env),
		frames:       sim.Local[frames](env),
		dmaHealthy:   true,
	}
	rpcEnd.Handle(opTxnDone, px.onTxnDone)
	rpcEnd.Handle(opReadDone, px.onReadDone)
	rpcEnd.Handle(opTxnDoneBatch, px.onTxnDoneBatch)
	px.poll = readPoll{px: px, th: sim.NewThread("dpu-dma-poll", ProxyThreadCat)}
	px.poll.done = engDown.Completions().ServeTask("dpu-dma-poll@"+dev.Name, px.poll.harvest)
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
		env.Delay(0, &batcher{px: px}) // the chain starts in an event of its own, as a thread spawned now would
	}
	return px
}

// SetTracer attaches an op tracer. Only transactions carrying a TraceCtx
// produce spans; probe traffic and RPC-fallback segments stay untraced.
func (px *Proxy) SetTracer(tr *trace.Tracer) { px.tr = tr }

// Stats returns a copy of the proxy counters.
func (px *Proxy) Stats() ProxyStats { return px.stats }

// BreakdownSnapshot returns the accumulated latency breakdown.
func (px *Proxy) BreakdownSnapshot() Breakdown { return px.breakdown }

// ResetBreakdown clears the latency accounting (benchmark warmup).
func (px *Proxy) ResetBreakdown() { px.breakdown = Breakdown{} }

// DMAHealthy reports whether the data plane currently uses DMA.
func (px *Proxy) DMAHealthy() bool { return px.dmaHealthy }

// regionsReady reports whether both regions are usable for DMA without a
// negotiation: after the first with the MR cache, never without it.
func (px *Proxy) regionsReady() bool {
	return !px.cfg.DisableMRCache && px.dpuMR.Exported() && px.hostMR.Exported()
}

// gateVerdict is the gate's answer before any probe.
type gateVerdict uint8

const (
	gateAllow gateVerdict = iota // DMA
	gateDeny                     // the control plane
	gateProbe                    // probe, then decide with probed
)

// gate is the cooldown gate: healthy -> DMA; in cooldown -> the control plane;
// cooldown expired -> probe (probeThen) and decide.
func (px *Proxy) gate(now sim.Time) gateVerdict {
	switch {
	case px.dmaHealthy:
		return gateAllow
	case now < px.cooldownUntil:
		return gateDeny
	}
	return gateProbe
}

// probeBytes is the size of the post-cooldown health-check transfer.
const probeBytes int64 = 64 << 10

// newProbe counts a probe — the health check of paper §4: "a small test DMA
// transfer to determine whether the DMA path can be safely reactivated" — and
// makes its transfer, to be submitted once the regions are usable.
func (px *Proxy) newProbe() *doca.Transfer {
	px.stats.Probes++
	return &doca.Transfer{Bytes: probeBytes, Src: px.dpuMR, Dst: px.hostMR,
		Tag: &segHeader{kind: segProbe}}
}

// prober is a probe in flight: both regions made usable for DMA (once per
// lifetime with the MR cache, per probe without it), the probe transfer
// submitted on th and waited for, and the verdict of probed stored through ok
// before next runs.
type prober struct {
	px   *Proxy
	th   *sim.Thread
	t    *doca.Transfer
	ok   *bool
	next sim.Task
	step probeStep
}

// probeStep is what a prober's next step does.
type probeStep uint8

const (
	probeRegions    probeStep = iota // negotiate the DPU region, if need be
	probeHostRegion                  // the DPU region is negotiated: the host's next
	probeSubmit                      // the regions are usable: submit the probe
	probeCharged                     // the submit cost is paid: enqueue it
	probeDone                        // the probe is done: decide
)

// probeThen runs a probe on th for a task chain that the gate told to probe.
// It reports whether next was registered; if not, the verdict is in *ok and
// the caller goes on at once.
func (px *Proxy) probeThen(th *sim.Thread, ok *bool, next sim.Task) bool {
	return (&prober{px: px, th: th, t: px.newProbe(), ok: ok, next: next}).advance()
}

// advance takes the probe through its steps until one waits, reporting true,
// or the verdict is in.
func (pb *prober) advance() bool {
	px := pb.px
	for {
		switch pb.step {
		case probeRegions:
			pb.step = probeSubmit
			if !px.regionsReady() {
				pb.step = probeHostRegion
				if px.cc.NegotiateThen(pb.th, px.dpuMR, pb) {
					return true
				}
			}
		case probeHostRegion:
			pb.step = probeSubmit
			if px.cc.NegotiateThen(pb.th, px.hostMR, pb) {
				return true
			}
		case probeSubmit:
			if err := px.engUp.Validate(pb.t); err != nil {
				*pb.ok = px.probed(px.env.Now(), err)
				return false
			}
			pb.step = probeCharged
			if px.engUp.ChargeSubmit(px.dev.CPU, pb.th, pb) {
				return true
			}
		case probeCharged:
			px.engUp.Enqueue(pb.t)
			pb.step = probeDone
			if pb.t.Done.WaitThen(px.env, pb) {
				return true
			}
		case probeDone:
			*pb.ok = px.probed(px.env.Now(), pb.t.Err)
			return false
		}
	}
}

// Run goes on after the step that waited.
func (pb *prober) Run() {
	if !pb.advance() {
		pb.next.Run()
	}
}

// String names the probe in deadlock reports.
func (pb *prober) String() string { return "probe@" + pb.px.dev.Name }

// probed settles a probe that ended with err and reports whether the request
// it gated rides DMA: a failed probe restarts the cooldown and a good one
// re-enables DMA.
func (px *Proxy) probed(now sim.Time, err error) bool {
	if err != nil {
		px.stats.ProbeFailures++
		px.enterCooldown(now)
		return false
	}
	px.dmaHealthy = true
	return true
}

// enterCooldown turns DMA off for CooldownPeriod from now (paper §4).
func (px *Proxy) enterCooldown(now sim.Time) {
	if px.dmaHealthy {
		px.stats.CooldownEntries++
	}
	px.dmaHealthy = false
	px.cooldownUntil = now.Add(px.cfg.CooldownPeriod)
}

// QueueTransaction implements objstore.Store: QueueTransactionThen awaited
// by p, into a new Result the caller owns.
func (px *Proxy) QueueTransaction(p *sim.Proc, txn *objstore.Transaction) *objstore.Result {
	res := new(objstore.Result)
	objstore.Queue(p, px, txn, res)
	return res
}

// encodeTxn is the first step of QueueTransactionThen: the transaction is
// encoded into a pendingTxn from the free list that will complete res, under
// a serialize span (zero when untraced). The frame references payload
// segments zero-copy; the CPU cost of the memcpy a real implementation would
// do is still charged, on the submitting DPU thread (tp_osd_tp on the DPU),
// before serialized.
func (px *Proxy) encodeTxn(txn *objstore.Transaction, res *objstore.Result) (*pendingTxn, trace.SpanID) {
	ctx := trace.SpanID(txn.TraceCtx)
	if !px.tr.Enabled() {
		ctx = 0
	}
	var serSp trace.SpanID
	if ctx != 0 {
		serSp = px.tr.Start(ctx, 0, trace.StageSerialize, px.dev.Name)
	}
	pt := px.txns.Get()
	pt.px, pt.res, pt.ctx, pt.streamReuse, pt.refs = px, res, ctx, txn.StreamReuse, 1
	txn.EncodeBLInto(pt.meta[:], pt.frame.Init())
	return pt, serSp
}

// serializeCycles is the serialize charge of pt's frame.
func serializeCycles(pt *pendingTxn) int64 {
	return int64(float64(pt.frame.Length()) * serializeCyclesPerByte)
}

// serialized files pt once its serialize charge, busy, is paid. A small op
// goes to the batcher, which ships it coalesced with its neighbours
// (completion still arrives per op); serialized reports whether pt ships on
// its own instead, once the gate has decided how (launch).
func (px *Proxy) serialized(pt *pendingTxn, serSp trace.SpanID, busy sim.Duration) bool {
	px.tr.AddCPU(serSp, px.dev.CPU.Name(), busy)
	px.tr.AddBytes(serSp, int64(pt.frame.Length()))
	px.tr.Finish(serSp)

	px.nextReq++
	pt.reqID = px.nextReq
	px.nextTxnSeq++
	pt.txnSeq = px.nextTxnSeq
	px.pendingTxns[pt.reqID] = pt

	if px.batch.Enable && int64(pt.frame.Length()) <= px.batch.MaxOpBytes {
		pt.refs++ // the frame's encode
		px.enqueueBatch(pt)
		px.env.After(&pt.done, pt)
		return false
	}
	return true
}

// launch starts pt's shipment, by DMA or, when the gate said no, over RPC.
func (px *Proxy) launch(pt *pendingTxn, useDMA bool) {
	pt.useDMA = useDMA
	if useDMA {
		px.stats.DataPlaneTxns++
	} else {
		px.stats.FallbackTxns++
	}
	sh := px.ships.Get()
	sh.px, sh.pt = px, pt
	px.env.Delay(0, sh) // the chain starts in an event of its own, as a thread spawned now would
}

// QueueTransactionThen implements objstore.Store: the write data plane, a
// task chain on th. The payload is serialized on the DPU, then, for a
// transaction that ships on its own, gated (and probed), cut into <=2 MB
// segments, staged into DMA buffers and shipped to the host, where the
// BlueStore server commits it; c.Result's Done fires only after the host
// acknowledges durability (preserving write-through semantics).
func (px *Proxy) QueueTransactionThen(th *sim.Thread, c *objstore.Call, next sim.Task) bool {
	r := px.newCall(th, c, next, callSerialized)
	r.pt, r.serSp = px.encodeTxn(c.Txn, c.Result)
	return r.charge(serializeCycles(r.pt), &r.busy)
}

// StatThen implements objstore.Store over the control plane.
func (px *Proxy) StatThen(th *sim.Thread, c *objstore.Call, next sim.Task) bool {
	return px.controlThen(th, c, next, opStat)
}

// ExistsThen implements objstore.Store over the control plane.
func (px *Proxy) ExistsThen(th *sim.Thread, c *objstore.Call, next sim.Task) bool {
	return px.controlThen(th, c, next, opExists)
}

// ListThen implements objstore.Store over the control plane.
func (px *Proxy) ListThen(th *sim.Thread, c *objstore.Call, next sim.Task) bool {
	return px.controlThen(th, c, next, opList)
}

// controlThen is a metadata call on the control plane, a task chain on th: the
// DPU-side cost of issuing it, then the call (CallTask), whose answer lands in
// c.
func (px *Proxy) controlThen(th *sim.Thread, c *objstore.Call, next sim.Task, op uint16) bool {
	r := px.newCall(th, c, next, callCharged)
	r.op, r.req = op, encodeObjRef(c.Coll, c.Object)
	px.stats.ControlCalls++
	return r.charge(controlCallCycles, nil)
}

// storeCall is one of the proxy's QueueTransactionThen, StatThen, ExistsThen
// and ListThen calls in flight, a record from the partition's free list put
// back as the call ends: the caller's record, its thread and continuation, and
// what a step hands the next.
type storeCall struct {
	px   *Proxy
	th   *sim.Thread
	c    *objstore.Call
	next sim.Task
	step callStep
	// ok is the gate's probe verdict, busy the serialize charge.
	ok   bool
	busy sim.Duration
	// QueueTransactionThen's transaction and its serialize span.
	pt    *pendingTxn
	serSp trace.SpanID
	// The control-plane call: its op and request, then its reply.
	op    uint16
	req   *wire.Bufferlist
	reply *rpcchan.Reply
}

// callStep is what a storeCall's next step does.
type callStep uint8

const (
	callSerialized callStep = iota // the serialize charge is paid: file the transaction, gate it
	callProbed                     // the gate's probe is done: launch by its verdict
	callCharged                    // the control call's cost is paid: send it
	callAnswered                   // the control call's answer is in
)

// newCall takes a record for a call of c on th that goes on to step.
func (px *Proxy) newCall(th *sim.Thread, c *objstore.Call, next sim.Task, step callStep) *storeCall {
	r := px.calls.Get()
	r.px, r.th, r.c, r.next, r.step = px, th, c, next, step
	return r
}

// charge runs the call's first charge on th and its steps after it; it
// reports whether next was registered, as the task forms do.
func (r *storeCall) charge(cycles int64, busy *sim.Duration) bool {
	if r.px.dev.CPU.ExecThen(r.th, cycles, busy, r) || r.advance() {
		return true
	}
	r.px.calls.Put(r)
	return false
}

// Run goes on after the step that waited; once the call is done, its
// continuation runs.
func (r *storeCall) Run() {
	if r.advance() {
		return
	}
	next := r.next
	r.px.calls.Put(r)
	next.Run()
}

// advance takes the call through its steps until one waits, reporting true,
// or the results are in c.
func (r *storeCall) advance() bool {
	px, c := r.px, r.c
	switch r.step {
	case callSerialized:
		if px.serialized(r.pt, r.serSp, r.busy) {
			switch px.gate(px.env.Now()) {
			case gateAllow:
				px.launch(r.pt, true)
			case gateDeny:
				px.launch(r.pt, false)
			default:
				r.step = callProbed
				if px.probeThen(r.th, &r.ok, r) {
					return true
				}
				px.launch(r.pt, r.ok)
			}
		}
	case callProbed:
		px.launch(r.pt, r.ok)
	case callCharged:
		r.step = callAnswered
		r.reply = px.rpc.CallTask(r.op, r.req, r)
		return true
	case callAnswered:
		resp, err := callResult(r.reply.Result())
		switch {
		case r.op == opExists:
			c.Exists = err == nil && resp.Length() == 1 && resp.Bytes()[0] == 1
		case err != nil:
			c.Stat, c.Names, c.Err = objstore.StatInfo{}, nil, err
		case r.op == opList:
			c.Names, c.Err = decodeList(resp)
		default:
			c.Stat, c.Err = decodeStatResp(resp)
		}
	}
	return false
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

// shipment is one transaction's way to the host on the DPU, a task chain on
// the proxy thread. The payload is cut into segments, each staged into a DMA
// buffer and submitted, pipelined with the transfer of the one before; the
// transfers are collected and the DMA phase accounted. Segments that failed or
// never went are resent over RPC, the completed ones preserved ("previously
// completed segments are preserved to avoid redundant transmission", §4), and
// DMA cools down; in cooldown the whole transaction goes over RPC, cut as DMA
// would have cut it. Last, the chain waits for the host's commit notification
// and completes the caller's Result. Its steps are joined where a proc doing
// the same blocked, each by the task form of that wait, so it runs the proc's
// events in the same order. It is a record from the partition's free list,
// put back as the chain ends, with its segment table; the pendingTxn it ships
// is the caller's.
type shipment struct {
	px   *Proxy
	pt   *pendingTxn
	step shipStep
	c    cut
	// segs is the segment table, kept with the record (ships); i is the
	// segment the step is at, submitted the number that went to the engine.
	segs         []segment
	i, submitted int
	// dmaStart..dmaEnd bounds the request's DMA phase on the wall clock;
	// DMA-wait is that span minus the actual copy time, copySum (Table 3's
	// "waiting time that occurs due to serial DMA transfers", including
	// staging-buffer waits). failed is set once a transfer failed or was
	// refused.
	dmaStart, dmaEnd sim.Time
	copySum          sim.Duration
	failed           bool
	// acq is when segment i began to wait for a staging buffer, stageSp is
	// its staging span and busy the staging memcpy's charge.
	acq     sim.Time
	stageSp trace.SpanID
	busy    sim.Duration
	// reply is the fallback call in flight.
	reply *rpcchan.Reply
}

// ships is the free list of shipments: a listed one keeps its segment table's
// array, cleared. One whose transfer failed or was refused is left to the GC.
type ships struct{ sim.FreeList[shipment] }

// put clears sh's segment table and lists sh, with the table's array.
func (l *ships) put(sh *shipment) {
	segs := sh.segs[:cap(sh.segs)]
	clear(segs)
	l.Put(sh)
	sh.segs = segs[:0]
}

// shipStep is what a shipment's next step does.
type shipStep uint8

const (
	shipStart       shipStep = iota // cut the payload; negotiate the regions if need be
	shipRegion                      // the DPU region is negotiated: the host's next
	shipRegions                     // the regions are usable: take a segment table
	shipStage                       // wait for a staging buffer for segment i
	shipBuffered                    // a buffer is held: the memcpy
	shipStaged                      // the memcpy is paid for: renegotiate without the MR cache
	shipNegotiated                  // submit segment i
	shipSubmitted                   // the submit cost is paid: enqueue the transfer
	shipTransferred                 // without pipelining: segment i's transfer is done
	shipCollect                     // wait for the transfer of segment i
	shipCollected                   // segment i's transfer is done
	shipFallback                    // send the next segment due over RPC
	shipSent                        // the host has received the segment
	shipShipped                     // wait for the host's commit
	shipCommitted                   // the host has committed
)

// Run is the shipment's next step. The transaction's ctx, when non-zero,
// parents per-segment dma-stage/dma spans and rides the segment tags to the
// host. Its streamReuse marks every segment as region-reusing (stream chunks
// move through the same pre-registered staging pool, like consecutive batch
// frames), so back-to-back chunks of a stream pay the amortized setup.
func (sh *shipment) Run() {
	px, pt := sh.px, sh.pt
	for {
		switch sh.step {
		case shipStart:
			sh.c = newCut(&pt.frame.Bufferlist, px.dev.Buffers.BufferBytes(), px.engUp)
			if !pt.useDMA {
				sh.step = shipFallback
				continue
			}
			sh.step = shipRegions
			if !px.regionsReady() {
				sh.step = shipRegion
				if px.cc.NegotiateThen(px.thProxy, px.dpuMR, sh) {
					return
				}
			}
		case shipRegion:
			sh.step = shipRegions
			if px.cc.NegotiateThen(px.thProxy, px.hostMR, sh) {
				return
			}
		case shipRegions:
			if cap(sh.segs) < sh.c.total {
				sh.segs = make([]segment, sh.c.total)
			}
			sh.segs = sh.segs[:sh.c.total]
			sh.dmaStart = px.env.Now()
			sh.step = shipStage
		case shipStage:
			if sh.i == sh.c.total {
				sh.i, sh.step = 0, shipCollect
				continue
			}
			if pt.ctx != 0 {
				sh.stageSp = px.tr.Start(pt.ctx, 0, trace.StageDMAStage, px.dev.Name)
			}
			sh.acq = px.env.Now()
			sh.step = shipBuffered
			if px.dev.Buffers.AcquireThen(sh) {
				return
			}
		case shipBuffered:
			n := sh.c.size(sh.i)
			px.noteStage(n)
			px.tr.AddQueueWait(sh.stageSp, px.env.Now().Sub(sh.acq))
			sh.step = shipStaged
			if px.dev.CPU.ExecThen(px.thProxy, int64(float64(n)*proxyStageCyclesPerByte), &sh.busy, sh) {
				return
			}
		case shipStaged:
			px.tr.AddCPU(sh.stageSp, px.dev.CPU.Name(), sh.busy)
			sh.step = shipNegotiated
			if px.cfg.DisableMRCache && px.cc.NegotiateThen(px.thProxy, px.hostMR, sh) {
				return
			}
		case shipNegotiated:
			if sh.submit() {
				return
			}
		case shipSubmitted:
			sg := &sh.segs[sh.i]
			px.engUp.Enqueue(&sg.t)
			sh.submitted++
			if !px.cfg.DisablePipeline {
				// Release the buffer when the engine finishes with it; keep
				// staging the next segment meanwhile.
				px.env.After(&sg.t.Done, sg)
				sh.i, sh.step = sh.i+1, shipStage
				continue
			}
			sh.step = shipTransferred
			if sg.t.Done.WaitThen(px.env, sh) {
				return
			}
		case shipTransferred:
			sh.segs[sh.i].Run()
			sh.i, sh.step = sh.i+1, shipStage
		case shipCollect:
			if sh.i == sh.submitted {
				sh.account()
				continue
			}
			sh.step = shipCollected
			if sh.segs[sh.i].t.Done.WaitThen(px.env, sh) {
				return
			}
		case shipCollected:
			// A segment was delivered if it was submitted and its transfer
			// finished without error.
			t := &sh.segs[sh.i].t
			sh.copySum += t.CopyTime()
			if t.CompletedAt > sh.dmaEnd {
				sh.dmaEnd = t.CompletedAt
			}
			if t.Err != nil {
				sh.failed = true
			}
			sh.i, sh.step = sh.i+1, shipCollect
		case shipFallback:
			if sh.fallback() {
				return
			}
		case shipSent:
			if _, err := sh.reply.Result(); err != nil {
				// The control channel is the last resort; surface loudly.
				panic(fmt.Sprintf("core: RPC fallback failed for req %d: %v", pt.reqID, err))
			}
			sh.reply = nil
			sh.i, sh.step = sh.i+1, shipFallback
		case shipShipped:
			pt.frame.Init() // shipped: the slots keep no payload while the commit is awaited
			sh.step = shipCommitted
			if pt.done.WaitThen(px.env, sh) {
				return
			}
		case shipCommitted:
			pt.Run() // puts pt back
			if sh.failed {
				// The host's poller may still read a tag in the table.
				px.ships.Abandon(sim.Fallback)
				return
			}
			// The host has assembled and committed: no poller reads a tag or
			// a view of the table any more.
			px.ships.put(sh)
			return
		}
	}
}

// submit hands staged segment i to the engine and pays the submit cost; it
// reports whether the chain goes on in an event. A transfer the engine
// refuses gives its buffer back and ends the staging: what is left goes over
// RPC.
func (sh *shipment) submit() bool {
	px, pt, i := sh.px, sh.pt, sh.i
	n := sh.c.size(i)
	px.tr.AddBytes(sh.stageSp, n)
	px.tr.Finish(sh.stageSp)
	sh.stageSp = 0
	var dmaSp trace.SpanID
	if pt.ctx != 0 {
		dmaStage := trace.StageDMA
		if px.engUp.NumQueues() > 1 {
			dmaStage = trace.StageDMAQueue(px.engUp.QueueFor(pt.reqID))
		}
		dmaSp = px.tr.Start(pt.ctx, 0, dmaStage, px.dev.Name)
		px.tr.AddBytes(dmaSp, n)
	}
	sg := &sh.segs[i]
	sg.px, sg.span = px, dmaSp
	sg.hdr = segHeader{kind: segTxn, reqID: pt.reqID, seg: i, total: sh.c.total,
		txnSeq: pt.txnSeq, traceCtx: uint64(pt.ctx)}
	data := sg.view.Init()
	sh.c.viewInto(data, i)
	sg.t = doca.Transfer{
		ReqID: pt.reqID, Seg: i, TotalSegs: sh.c.total, Bytes: n, Data: data,
		Src: px.dpuMR, Dst: px.hostMR, TraceCtx: uint64(pt.ctx),
		ReuseSetup: pt.streamReuse, Tag: &sg.hdr,
	}
	if err := px.engUp.Validate(&sg.t); err != nil {
		px.tr.Finish(dmaSp)
		px.dev.Buffers.Release()
		px.noteUnstage(n)
		sh.i, sh.step = 0, shipCollect
		return false
	}
	sh.step = shipSubmitted
	return px.engUp.ChargeSubmit(px.dev.CPU, px.thProxy, sh)
}

// account books the DMA phase once every transfer is in, and goes on to the
// wait for the commit, or after an error to the fallback.
func (sh *shipment) account() {
	px := sh.px
	anyErr := sh.failed || sh.submitted < sh.c.total
	px.breakdown.DMA += sh.copySum
	if wait := sh.dmaEnd.Sub(sh.dmaStart) - sh.copySum; wait > 0 {
		px.breakdown.DMAWait += wait
	}
	if !anyErr {
		sh.step = shipShipped
		return
	}
	sh.failed = true
	px.enterCooldown(px.env.Now())
	sh.i, sh.step = 0, shipFallback
}

// fallback sends the next segment due over the control channel: in cooldown
// every one, after a DMA error the failed and never-attempted ones. It
// reports whether the chain goes on in an event. Once none is left it goes on
// to the wait for the commit.
func (sh *shipment) fallback() bool {
	px, pt := sh.px, sh.pt
	if pt.useDMA {
		for sh.i < sh.submitted && sh.segs[sh.i].t.Err == nil {
			sh.i++
		}
	}
	if sh.i == sh.c.total {
		sh.step = shipShipped
		return false
	}
	if pt.useDMA {
		px.stats.FallbackSegments++
	}
	sh.step = shipSent
	sh.reply = px.rpc.CallTask(opSegFallback,
		encodeSegFallback(pt.reqID, pt.txnSeq, sh.i, sh.c.total, sh.c.view(sh.i)), sh)
	return true
}

// String names the shipment in deadlock reports.
func (sh *shipment) String() string { return fmt.Sprintf("proxy-tx:%d", sh.pt.reqID) }

// onTxnDone handles the host's commit notification.
func (px *Proxy) onTxnDone(req rpcchan.Request, respond func(*wire.Bufferlist, uint16)) {
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

// fileRead files the read of pr under a new request id and encodes its
// descriptor.
func (px *Proxy) fileRead(pr *pendingRead, coll, obj string, off, length uint64) {
	px.nextReq++
	pr.reqID = px.nextReq
	px.pendingReads[pr.reqID] = pr
	pr.desc.encode(&readReq{ReqID: pr.reqID, Coll: coll, Object: obj, Off: off, Length: length})
}

// readReq makes the transfer that carries pr's descriptor to the host.
func (px *Proxy) readReq(pr *pendingRead) *doca.Transfer {
	desc := &pr.desc.bl.Bufferlist
	pr.hdr = segHeader{kind: segReadReq, reqID: pr.reqID, total: 1}
	pr.t = doca.Transfer{
		ReqID: pr.reqID, TotalSegs: 1, Bytes: int64(desc.Length()), Data: desc,
		Src: px.dpuMR, Dst: px.hostMR, Tag: &pr.hdr,
	}
	return &pr.t
}

// ReadThen implements objstore.Store: the symmetric read data plane (§5.5),
// a task chain on pr, on the caller's thread th. The request descriptor
// travels to the host via DMA; the host stages the object data and DMAs it
// back in <=2 MB segments which the DPU-side poller reassembles.
func (px *Proxy) ReadThen(th *sim.Thread, c *objstore.Call, next sim.Task) bool {
	pr := px.reads.Get()
	pr.px, pr.th, pr.c, pr.next = px, th, c, next
	if pr.advance() {
		return true
	}
	pr.end()
	return false
}

// Run goes on after the step that waited; once the read is done, its
// continuation runs.
func (pr *pendingRead) Run() {
	if pr.advance() {
		return
	}
	next := pr.next
	pr.end()
	next.Run()
}

// end retires the read once its answer is in c. Its record goes back unless
// its descriptor's transfer failed: the host's poller may still be about to
// read that one's tag, so the record is left to the GC. On every other path no
// transfer reaches the record any more — a failed data segment took the read
// out of pendingReads, and the ones after it find nothing.
func (pr *pendingRead) end() {
	delete(pr.px.pendingReads, pr.reqID)
	if pr.t.Err == nil {
		pr.px.reads.Put(pr)
	} else {
		pr.px.reads.Abandon(sim.Fallback)
	}
}

// advance takes the read through its steps until one waits, reporting true,
// or the answer is in c.
func (pr *pendingRead) advance() bool {
	px, c := pr.px, pr.c
	for {
		switch pr.step {
		case readStart:
			px.fileRead(pr, c.Coll, c.Object, c.Off, c.Length)
			switch px.gate(px.env.Now()) {
			case gateAllow:
				pr.step = readDMA
			case gateDeny:
				pr.step = readRPC
			default:
				pr.step = readProbed
				if px.probeThen(pr.th, &pr.ok, pr) {
					return true
				}
			}
		case readProbed:
			pr.step = readDMA
			if !pr.ok {
				pr.step = readRPC
			}
		case readDMA:
			px.stats.Reads++
			pr.step = readSubmit
			if !px.regionsReady() {
				pr.step = readHostRegion
				if px.cc.NegotiateThen(pr.th, px.dpuMR, pr) {
					return true
				}
			}
		case readHostRegion:
			pr.step = readSubmit
			if px.cc.NegotiateThen(pr.th, px.hostMR, pr) {
				return true
			}
		case readSubmit:
			t := px.readReq(pr)
			if err := px.engUp.Validate(t); err != nil {
				c.Data, c.Err = nil, err
				return false
			}
			pr.step = readCharged
			if px.engUp.ChargeSubmit(px.dev.CPU, pr.th, pr) {
				return true
			}
		case readCharged:
			px.engUp.Enqueue(&pr.t)
			pr.step = readSent
			if pr.t.Done.WaitThen(px.env, pr) {
				return true
			}
		case readSent:
			pr.step = readFilled
			if pr.t.Err == nil && pr.done.WaitThen(px.env, pr) {
				return true
			}
		case readFilled:
			if pr.t.Err != nil || pr.dmaErr {
				// The descriptor or a data segment failed on its way.
				px.enterCooldown(px.env.Now())
				pr.step = readRPC
				continue
			}
			// The host has read the descriptor and every data segment is in.
			c.Data, c.Err = nil, codeToErr(pr.code)
			if c.Err == nil {
				c.Data = wire.Concat(pr.segs)
			}
			return false
		case readRPC:
			pr.step = readReplied
			pr.reply = px.rpc.CallTask(opReadFallback, &pr.desc.bl.Bufferlist, pr)
			return true
		case readReplied:
			c.Data, c.Err = callResult(pr.reply.Result())
			return false
		}
	}
}

// String names the read in deadlock reports.
func (pr *pendingRead) String() string { return fmt.Sprintf("proxy-read:%d", pr.reqID) }

// readPoll is the DPU-side poller consuming host->DPU DMA completions (read
// data segments), a task chain: a turn pays for the completion on the DPU CPU,
// then files it.
type readPoll struct {
	px *Proxy
	th *sim.Thread
	// done is the served identity, run when a turn is over; t is the
	// completion of the turn under way.
	done sim.Task
	t    *doca.Transfer
}

// readPollCycles is the DPU-side cost of consuming one read-data completion.
const readPollCycles int64 = 4_000

// harvest starts a turn on t, the served identity's body.
func (rp *readPoll) harvest(t *doca.Transfer) {
	if _, ok := t.Tag.(*readSeg); !ok {
		rp.done.Run()
		return
	}
	rp.t = t
	if !rp.px.dev.CPU.ExecThen(rp.th, readPollCycles, nil, rp) {
		rp.Run()
	}
}

// Run files the completion once it is paid for, and ends the turn.
func (rp *readPoll) Run() {
	t := rp.t
	rp.t = nil
	rp.px.harvestRead(t)
	rp.done.Run()
}

// harvestRead files one read-data segment the engine completed. A consumed
// segment drops its reference to the host's record; a failed one keeps it,
// leaving the record to the GC. The first failed segment of a read, the one
// that finds it filed, abandons the record: the read's later ones find none.
func (px *Proxy) harvestRead(t *doca.Transfer) {
	rs := t.Tag.(*readSeg)
	hdr := &rs.hdr
	pr, ok := px.pendingReads[hdr.reqID]
	if t.Err != nil {
		if ok {
			// Read again over RPC; the reply's later segments find no entry.
			delete(px.pendingReads, hdr.reqID)
			pr.dmaErr = true
			pr.done.Fire()
			rs.hr.hs.hostReads.Abandon(sim.Fallback)
		}
		return
	}
	if ok {
		px.fillRead(pr, hdr, t.Data)
	}
	rs.hr.unref()
}

// fillRead files one data segment of a read's reply.
func (px *Proxy) fillRead(pr *pendingRead, hdr *segHeader, data *wire.Bufferlist) {
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
	pr.segs[hdr.seg] = data
	if int(pr.have) == len(pr.segs) {
		pr.done.Fire()
	}
}

// onReadDone handles the host's read-completion notification (errors and
// zero-length reads, which produce no data segments).
func (px *Proxy) onReadDone(req rpcchan.Request, respond func(*wire.Bufferlist, uint16)) {
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

// callResult is the answer of an RPC to the host: a failure the host reported
// by code comes back as the objstore error that code stands for.
func callResult(resp *wire.Bufferlist, err error) (*wire.Bufferlist, error) {
	if ce, ok := err.(rpcchan.CallError); ok { // the only error a call returns, bare
		return nil, codeToErr(ce.Code)
	}
	return resp, err
}

// controlCallCycles is the DPU-side cost of issuing a control RPC.
const controlCallCycles int64 = 10_000
