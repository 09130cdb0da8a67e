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

// Host-side accounting categories (the only Ceph work left on the host in
// DoCeph, §3.1: "the host runs only a BlueStore server").
const (
	// RPCServerThreadCat tags the control-plane socket listener.
	RPCServerThreadCat = "rpc-server"
	// DMAPollThreadCat tags the background DMA polling thread (§4: "a
	// background thread on the host continuously polls the DOCA DMA
	// engine").
	DMAPollThreadCat = "dma-poll"
)

// HostConfig tunes the host-side server.
type HostConfig struct {
	// PollInterval is the DMA completion polling period.
	PollInterval sim.Duration
	// PollIdleCycles is burned per empty poll iteration (the cost of
	// polling mode).
	PollIdleCycles int64
}

// DefaultHostConfig returns the host-server defaults.
func DefaultHostConfig() HostConfig {
	return HostConfig{
		PollInterval:   50 * sim.Microsecond,
		PollIdleCycles: 2_500,
	}
}

func (c HostConfig) withDefaults() HostConfig {
	d := DefaultHostConfig()
	if c.PollInterval == 0 {
		c.PollInterval = d.PollInterval
	}
	if c.PollIdleCycles == 0 {
		c.PollIdleCycles = d.PollIdleCycles
	}
	return c
}

// The rest of the host-side cost model and the read path's staging pool.
const (
	// completionCycles is charged per harvested DMA completion.
	completionCycles int64 = 3_000
	// assembleCyclesPerByte is charged when decoding an assembled
	// transaction payload before the BlueStore commit.
	assembleCyclesPerByte float64 = 0.02
	// hostStageCyclesPerByte is charged per byte staged into a host read
	// buffer before the return DMA.
	hostStageCyclesPerByte float64 = 0.5
	// readStagingBuffers / readStagingBufferBytes size the host-side
	// staging pool used by the read path (§3.3: "during reads, staging
	// buffers are positioned on the host side").
	readStagingBuffers           = 64
	readStagingBufferBytes int64 = 2 << 20
)

// HostStats counts host-server activity.
type HostStats struct {
	TxnsCommitted   int64
	SegmentsViaDMA  int64
	SegmentsViaRPC  int64
	ControlRequests int64
	PollIterations  int64

	// Batching counters (zero with batching disabled). FrameErrors counts
	// batch frames the decoder rejected, and segments whose index or count
	// contradicts the first segment seen of their request.
	BatchFrames   int64
	BatchedOps    int64
	NotifyBatches int64
	FrameErrors   int64
}

// HostServer is the lightweight host-resident service: an event-driven RPC
// listener for the control plane and a polling thread for the DMA data
// plane, both feeding the local BlueStore.
type HostServer struct {
	env   *sim.Env
	cpu   *sim.CPU
	store objstore.Store
	cfg   HostConfig
	batch BatchConfig

	rpc     *rpcchan.Endpoint
	engUp   *doca.Engine
	engDown *doca.Engine
	dpuMR   *doca.MemRegion
	hostMR  *doca.MemRegion
	readBuf *dpu.BufferPool

	thPoll *sim.Thread
	tr     *trace.Tracer

	asm map[uint64]*hostTxn
	// Commit ordering: assembled transactions apply to BlueStore strictly
	// in the proxy's submission order (txnSeq), restoring the per-PG
	// ordering a local ObjectStore gives the baseline for free even when
	// DMA and RPC-fallback deliveries race.
	nextCommit uint64
	readyTxns  map[uint64]*hostTxn
	// notifying holds a committed transaction until its host-notify proc,
	// which finds it by id, has sent the notification; notifyBody is
	// sendTxnDone as a func value, made once. reads holds a read until its
	// host-read proc, which finds it by id, takes it; readBody is serveRead
	// as a func value, made once. names are the last ones decoded.
	notifying  map[uint64]*hostTxn
	notifyBody func(*sim.Proc)
	reads      map[uint64]*hostRead
	readBody   func(*sim.Proc)
	names      objstore.Names
	// unpacked is the poller's array for the entries of the batch frame it is
	// dispatching, cleared after each.
	unpacked []batchEntry
	stats    HostStats

	// Notify coalescers (live only when batch.Enable; see batch.go):
	// queued commit notifications awaiting a coalesced opTxnDoneBatch RPC,
	// one shard per DMA queue so the parallel completion streams don't
	// funnel through a single batcher.
	notify []*notifyShard
}

// notifyShard is one commit-notification coalescer (per DMA queue).
type notifyShard struct {
	cond *sim.Cond
	q    []txnDoneEntry
}

// hostTxn is one transaction on the host: its segments while they arrive
// (hs.asm), the transaction they decode into, its turn in the ordered commit
// queue (hs.readyTxns), and the task that reports its commit.
type hostTxn struct {
	hs    *HostServer
	reqID uint64
	// segs has one slot per segment of the request (in slot for up to three);
	// have counts the filled ones.
	segs []*wire.Bufferlist
	slot [3]*wire.Bufferlist
	have int
	// traceCtx is the first non-zero trace context seen on a segment tag
	// (RPC-fallback segments carry none).
	traceCtx uint64
	// queue is the DMA queue index the transaction's frame rode; its commit
	// notification goes to the matching notify shard.
	queue int
	// dec is the decoded transaction, over op for a one-op frame (empty after
	// a decode error). The data views its ops hold are separate objects:
	// BlueStore's extents keep them for the object's life, and must not pin
	// the record.
	dec objstore.Transaction
	op  [1]objstore.Op
	// silent suppresses the commit notification (the error was already
	// reported; the entry only keeps the sequence moving).
	silent bool
	// span is the host-commit span opened at assembly completion; ready is
	// that instant, so the commit-ordering delay lands as queue wait.
	span  trace.SpanID
	ready sim.Time
	// start is the instant the commit was submitted, res its result.
	start sim.Time
	res   *objstore.Result
	done  txnDoneFrame
}

// hostRead is one read on the host, in one allocation: the request its
// descriptor carried, respond when that came over RPC (nil over DMA), and the
// segments of the return DMA (in slot for one).
type hostRead struct {
	req     readReq
	respond func(*wire.Bufferlist, uint16)
	segs    []readSeg
	slot    [1]readSeg
}

// readSeg is one in-flight segment of a read's return DMA, and the task that
// frees its staging buffer when the engine is done with it.
type readSeg struct {
	t   doca.Transfer
	hdr segHeader
	buf *dpu.BufferPool
}

func (rs *readSeg) Run() { rs.buf.Release() }

// NewHostServer builds the host side. rpcEnd is the host endpoint of the
// control channel; store is the local BlueStore. Of cfg it reads Host, and
// Batch for the coalesced commit notifications.
func NewHostServer(env *sim.Env, hostCPU *sim.CPU, store objstore.Store,
	rpcEnd *rpcchan.Endpoint, engUp, engDown *doca.Engine,
	dpuMR, hostMR *doca.MemRegion, cfg BridgeConfig) *HostServer {
	hs := &HostServer{
		env: env, cpu: hostCPU, store: store,
		cfg: cfg.Host.withDefaults(), batch: cfg.Batch.withDefaults(),
		rpc: rpcEnd, engUp: engUp, engDown: engDown,
		dpuMR: dpuMR, hostMR: hostMR,
		thPoll:     sim.NewThread("host-dma-poll", DMAPollThreadCat),
		asm:        make(map[uint64]*hostTxn),
		nextCommit: 1,
		readyTxns:  make(map[uint64]*hostTxn),
		notifying:  make(map[uint64]*hostTxn),
		reads:      make(map[uint64]*hostRead),
	}
	hs.notifyBody = hs.sendTxnDone
	hs.readBody = hs.serveRead
	hs.readBuf = dpu.NewBufferPool(env, "host-read-staging",
		readStagingBuffers, readStagingBufferBytes)
	rpcEnd.Handle(opStat, hs.onStat)
	rpcEnd.Handle(opExists, hs.onExists)
	rpcEnd.Handle(opList, hs.onList)
	rpcEnd.Handle(opSegFallback, hs.onSegFallback)
	rpcEnd.Handle(opReadFallback, hs.onReadFallback)
	rpcEnd.Handle(opBatchFallback, hs.onBatchFallback)
	if hs.batch.Enable {
		n := engUp.NumQueues()
		for i := 0; i < n; i++ {
			sh := &notifyShard{cond: sim.NewCond()}
			hs.notify = append(hs.notify, sh)
			name := "host-notify-batch"
			if n > 1 {
				name = fmt.Sprintf("host-notify-batch:q%d", i)
			}
			env.SpawnDaemon(name, func(p *sim.Proc) { hs.notifyLoop(p, sh) })
		}
	}
	// The polling thread's idle burn (PollIdleCycles every PollInterval) is
	// accounted analytically as a constant background load on one core.
	idleCores := float64(hs.cfg.PollIdleCycles) /
		(hs.cfg.PollInterval.Seconds() * hostCPU.FreqGHz * 1e9)
	hostCPU.SetBackgroundLoad(DMAPollThreadCat, idleCores)
	engUp.Completions().Serve("host-dma-poll", hs.thPoll, hs.harvest)
	return hs
}

// SetTracer attaches an op tracer. Host-commit spans open only for
// segments whose tags carry a trace context from the DPU side.
func (hs *HostServer) SetTracer(tr *trace.Tracer) { hs.tr = tr }

// Stats returns a copy of the host counters.
func (hs *HostServer) Stats() HostStats { return hs.stats }

// harvest is one turn of the background polling thread of §4: it takes a DMA
// completion and triggers the corresponding BlueStore handler. The thread
// burns a small amount of CPU even when idle (the price of polling mode).
func (hs *HostServer) harvest(p *sim.Proc, t *doca.Transfer) {
	hs.stats.PollIterations++
	hs.cpu.Exec(p, hs.thPoll, completionCycles)
	hdr, isSeg := t.Tag.(*segHeader)
	if !isSeg || t.Err != nil {
		return // probe traffic or failed transfer (DPU handles retry)
	}
	switch hdr.kind {
	case segTxn:
		hs.stats.SegmentsViaDMA++
		hs.addSegment(p, hdr.reqID, hdr.txnSeq, hdr.seg, hdr.total, t.Data, hdr.traceCtx,
			hs.engUp.QueueFor(hdr.reqID))
	case segTxnBatch:
		hs.stats.BatchFrames++
		entries, err := decodeBatchFrame(t.Data, hs.unpacked)
		if err != nil {
			hs.stats.FrameErrors++
			return
		}
		hs.unpacked = entries
		defer clear(entries) // the array stays; the payloads it held do not
		// Unpack and dispatch each op individually: every entry enters
		// the ordered commit queue as its own single-segment request, so
		// OSD/commit semantics are identical to the unbatched path.
		hs.stats.BatchedOps += int64(len(entries))
		// Route every op in the frame to the notify shard of the queue
		// the frame actually rode (JSQ-pinned or hash-steered).
		qidx := t.Queue - 1
		if qidx < 0 {
			qidx = hs.engUp.QueueFor(t.ReqID)
		}
		for i, en := range entries {
			var ctx uint64
			if i < len(hdr.batchCtxs) {
				ctx = hdr.batchCtxs[i]
			}
			hs.addSegment(p, en.reqID, en.txnSeq, 0, 1, en.payload, ctx, qidx)
		}
	case segReadReq:
		if hs.fileRead("host-read:", &hostRead{}, t.Data) != nil {
			panic("core: corrupt read request over DMA")
		}
	case segProbe:
		// Health probe: nothing to do.
	}
}

// addSegment files one transaction segment (from either plane); once the
// request is complete its transaction joins the ordered commit queue.
func (hs *HostServer) addSegment(p *sim.Proc, reqID, txnSeq uint64, seg, total int, data *wire.Bufferlist, traceCtx uint64, queue int) {
	a := hs.asm[reqID]
	if a == nil {
		a = &hostTxn{hs: hs, reqID: reqID, queue: queue}
		if total <= len(a.slot) {
			a.segs = a.slot[:total]
		} else {
			a.segs = make([]*wire.Bufferlist, total)
		}
		hs.asm[reqID] = a
	}
	if seg < 0 || seg >= len(a.segs) || total != len(a.segs) {
		hs.stats.FrameErrors++ // disagrees with the request's first segment
		return
	}
	if a.segs[seg] == nil {
		a.have++
	}
	a.segs[seg] = data
	if a.traceCtx == 0 {
		a.traceCtx = traceCtx
	}
	if a.have < total {
		return
	}
	delete(hs.asm, reqID)
	payload := wire.Concat(a.segs)
	a.segs = nil
	if hs.tr.Enabled() && a.traceCtx != 0 {
		a.span = hs.tr.Start(trace.SpanID(a.traceCtx), 0, trace.StageHostCommit, hs.cpu.Name())
		hs.tr.AddBytes(a.span, int64(payload.Length()))
	}
	hs.tr.AddCPU(a.span, hs.cpu.Name(),
		hs.cpu.ExecSelf(p, int64(float64(payload.Length())*assembleCyclesPerByte)))
	a.dec.Ops = a.op[:0]
	if err := a.dec.DecodeBL(payload, &hs.names); err != nil {
		// Report the failure but keep the commit sequence moving with the
		// empty transaction in this slot.
		hs.notifyTxnDone(a, rcIO, 0)
		a.silent = true
	} else {
		// The host-commit span parents the local BlueStore's aio/kv spans.
		a.dec.TraceCtx = uint64(a.span)
	}
	a.ready = p.Now()
	hs.readyTxns[txnSeq] = a
	for {
		rt, ok := hs.readyTxns[hs.nextCommit]
		if !ok {
			return
		}
		delete(hs.readyTxns, hs.nextCommit)
		hs.nextCommit++
		hs.commit(p, rt)
	}
}

func (hs *HostServer) commit(p *sim.Proc, rt *hostTxn) {
	rt.start = p.Now()
	hs.tr.AddQueueWait(rt.span, p.Now().Sub(rt.ready))
	rt.res = hs.store.QueueTransaction(p, &rt.dec)
	hs.env.After(&rt.res.Done, rt)
}

// Run reports the durable commit to the DPU.
func (rt *hostTxn) Run() {
	hs := rt.hs
	hs.tr.Finish(rt.span)
	if rt.silent {
		return
	}
	hs.stats.TxnsCommitted++
	// Report the backend's pure commit service time when available
	// (Table 3's "Host write"); fall back to the wall duration.
	hostWrite := rt.res.ServiceTime
	if hostWrite <= 0 {
		hostWrite = hs.env.Now().Sub(rt.start)
	}
	hs.notifyTxnDone(rt, errToCode(rt.res.Err), int64(hostWrite))
}

func (hs *HostServer) notifyTxnDone(rt *hostTxn, code uint16, hostWriteNanos int64) {
	if len(hs.notify) > 0 {
		// Batching: queue for the notify coalescer of the DMA queue the
		// request's frame rode, which folds many completions into one
		// opTxnDoneBatch RPC.
		queue := rt.queue
		if queue < 0 || queue >= len(hs.notify) {
			queue = 0
		}
		sh := hs.notify[queue]
		sh.q = append(sh.q, txnDoneEntry{reqID: rt.reqID, code: code, hostNanos: hostWriteNanos})
		sh.cond.Broadcast()
		return
	}
	rt.done.encode(rt.reqID, code, hostWriteNanos)
	hs.notifying[rt.reqID] = rt
	hs.env.SpawnID("host-notify:", rt.reqID, hs.notifyBody)
}

// sendTxnDone is the body of every host-notify proc.
func (hs *HostServer) sendTxnDone(p *sim.Proc) {
	rt := hs.notifying[p.ID()]
	delete(hs.notifying, p.ID())
	p.SetThread(hs.thPoll)
	hs.rpc.Notify(p, opTxnDone, &rt.done.bl.Bufferlist)
}

// onBatchFallback files a whole batch frame arriving over the control plane
// (the batched submit used during cooldown / after a batch DMA error).
func (hs *HostServer) onBatchFallback(p *sim.Proc, req rpcchan.Request,
	respond func(*wire.Bufferlist, uint16)) {
	entries, err := decodeBatchFrame(req.Payload, nil)
	if err != nil {
		hs.stats.FrameErrors++
		respond(nil, rcIO)
		return
	}
	respond(nil, rcOK) // receipt ack; durability is signalled per op
	hs.stats.SegmentsViaRPC += int64(len(entries))
	hs.stats.BatchedOps += int64(len(entries))
	for _, en := range entries {
		hs.addSegment(p, en.reqID, en.txnSeq, 0, 1, en.payload, 0,
			hs.engUp.QueueFor(en.reqID))
	}
}

// fileRead decodes a read descriptor into hr, files the record under its
// request id and spawns the proc, named prefix and the id, that serves it.
func (hs *HostServer) fileRead(prefix string, hr *hostRead, desc *wire.Bufferlist) error {
	if err := hr.req.decode(desc, hs.names.Collection); err != nil {
		return err
	}
	hs.names.Collection = hr.req.Coll
	hs.reads[hr.req.ReqID] = hr
	hs.env.SpawnID(prefix, hr.req.ReqID, hs.readBody)
	return nil
}

// serveRead is the body of every host-read proc: it executes the read its id
// names and answers through respond when the request came over RPC, or DMAs
// the data back to the DPU in <=2 MB segments through host-side staging
// buffers.
func (hs *HostServer) serveRead(p *sim.Proc) {
	hr := hs.reads[p.ID()]
	delete(hs.reads, p.ID())
	p.SetThread(hs.thPoll)
	req := &hr.req
	bl, err := hs.store.Read(p, req.Coll, req.Object, req.Off, req.Length)
	if hr.respond != nil {
		if err != nil {
			hr.respond(nil, errToCode(err))
		} else {
			hr.respond(bl, rcOK)
		}
		return
	}
	if err != nil || bl.Length() == 0 {
		hs.rpc.Notify(p, opReadDone, encodeReadDone(req.ReqID, errToCode(err), 0))
		return
	}
	c := newCut(bl, hs.readBuf.BufferBytes(), hs.engDown)
	if hr.segs = hr.slot[:]; c.total > len(hr.slot) {
		hr.segs = make([]readSeg, c.total)
	}
	for i := range hr.segs {
		n := c.size(i)
		hs.readBuf.Acquire(p)
		hs.cpu.Exec(p, hs.thPoll, int64(float64(n)*hostStageCyclesPerByte))
		data := bl // a one-segment reply is the store's list itself
		if c.total > 1 {
			data = c.view(i)
		}
		rs := &hr.segs[i]
		rs.buf = hs.readBuf
		rs.hdr = segHeader{kind: segReadData, reqID: req.ReqID, seg: i, total: c.total}
		rs.t = doca.Transfer{
			ReqID: req.ReqID, Seg: i, TotalSegs: c.total, Bytes: n, Data: data,
			Src: hs.hostMR, Dst: hs.dpuMR, Tag: &rs.hdr,
		}
		if err := hs.engDown.Submit(p, hs.cpu, &rs.t); err != nil {
			hs.readBuf.Release()
			hs.rpc.Notify(p, opReadDone, encodeReadDone(req.ReqID, rcIO, 0))
			return
		}
		hs.env.After(&rs.t.Done, rs)
	}
}

// Control-plane handlers: quick metadata services on the event-driven RPC
// loop (§3.2).

func (hs *HostServer) onStat(p *sim.Proc, req rpcchan.Request,
	respond func(*wire.Bufferlist, uint16)) {
	hs.stats.ControlRequests++
	coll, obj, err := decodeObjRef(req.Payload)
	if err != nil {
		respond(nil, rcIO)
		return
	}
	st, serr := hs.store.Stat(p, coll, obj)
	if serr != nil {
		respond(nil, errToCode(serr))
		return
	}
	respond(encodeStatResp(st), rcOK)
}

func (hs *HostServer) onExists(p *sim.Proc, req rpcchan.Request,
	respond func(*wire.Bufferlist, uint16)) {
	hs.stats.ControlRequests++
	coll, obj, err := decodeObjRef(req.Payload)
	if err != nil {
		respond(nil, rcIO)
		return
	}
	v := byte(0)
	if hs.store.Exists(p, coll, obj) {
		v = 1
	}
	respond(wire.FromBytes([]byte{v}), rcOK)
}

func (hs *HostServer) onList(p *sim.Proc, req rpcchan.Request,
	respond func(*wire.Bufferlist, uint16)) {
	hs.stats.ControlRequests++
	coll, _, err := decodeObjRef(req.Payload)
	if err != nil {
		respond(nil, rcIO)
		return
	}
	names, lerr := hs.store.List(p, coll)
	if lerr != nil {
		respond(nil, errToCode(lerr))
		return
	}
	respond(encodeList(names), rcOK)
}

// onSegFallback files a transaction segment arriving over the RPC path
// (cooldown or post-error fallback).
func (hs *HostServer) onSegFallback(p *sim.Proc, req rpcchan.Request,
	respond func(*wire.Bufferlist, uint16)) {
	reqID, txnSeq, seg, total, payload, err := decodeSegFallback(req.Payload)
	if err != nil {
		respond(nil, rcIO)
		return
	}
	hs.stats.SegmentsViaRPC++
	respond(nil, rcOK) // receipt ack; durability is signalled via opTxnDone
	hs.addSegment(p, reqID, txnSeq, seg, total, payload, 0,
		hs.engUp.QueueFor(reqID))
}

// onReadFallback serves a whole read over RPC (cooldown path).
func (hs *HostServer) onReadFallback(p *sim.Proc, req rpcchan.Request,
	respond func(*wire.Bufferlist, uint16)) {
	if hs.fileRead("host-read-rpc:", &hostRead{respond: respond}, req.Payload) != nil {
		respond(nil, rcIO)
	}
}
