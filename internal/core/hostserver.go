package core

import (
	"fmt"

	"doceph/internal/bluestore"
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
	store *bluestore.Store
	cfg   HostConfig
	batch BatchConfig

	rpc     *rpcchan.Endpoint
	engUp   *doca.Engine
	engDown *doca.Engine
	dpuMR   *doca.MemRegion
	hostMR  *doca.MemRegion
	readBuf *dpu.BufferPool

	thPoll *sim.Thread
	poll   hostPoll
	tr     *trace.Tracer

	asm map[uint64]*hostTxn
	// Commit ordering: assembled transactions apply to BlueStore strictly
	// in the proxy's submission order (txnSeq), restoring the per-PG
	// ordering a local ObjectStore gives the baseline for free even when
	// DMA and RPC-fallback deliveries race.
	nextCommit uint64
	readyTxns  map[uint64]*hostTxn
	// names are the last ones decoded, and the collections the partition's
	// hosts have seen.
	names objstore.Names
	// unpacked is the poller's array for the entries of the batch frame it is
	// dispatching, cleared after each.
	unpacked []batchEntry
	stats    HostStats
	// recs are the partition's free lists of crossing records.
	recs *records

	// Notify coalescers (live only when batch.Enable; see batch.go):
	// queued commit notifications awaiting a coalesced opTxnDoneBatch RPC,
	// one shard per DMA queue so the parallel completion streams don't
	// funnel through a single batcher.
	notify []*notifyShard
}

// hostTxn is one transaction on the host, a record from the partition's free
// list: its segments while they arrive (hs.asm), the transaction they decode
// into, its turn in the ordered commit queue (hs.readyTxns), the tasks that
// report its commit (txnNotify sends what Run encodes), and the notification
// frame the proxy decodes in place.
// The record goes back once that is done (txnNotified), or, with coalesced
// notifications, which copy what they report, as soon as it has reported.
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
	// start is the instant the commit was submitted, res its result, which
	// BlueStore completes.
	start sim.Time
	res   objstore.Result
	done  txnDoneFrame
	// joined is the assembled payload of a transaction of more than one
	// segment, over joinSlot for up to four pieces, until decode: the ops'
	// data are views of their own.
	joined   wire.Bufferlist
	joinSlot [4][]byte
}

// hostRead is one read on the host, in one allocation, and the task chain
// that serves it: the request its descriptor carried, respond when that came
// over RPC (nil over DMA), the store call, and the segments of the return DMA
// (in slot for one). One whose descriptor came by DMA is from the partition's
// free list.
type hostRead struct {
	hs      *HostServer
	req     readReq
	respond func(*wire.Bufferlist, uint16)
	call    objstore.Call
	step    hostReadStep
	// c cuts the data for the return DMA; i is the segment the chain is at.
	c    cut
	i    int
	segs []readSeg
	slot [1]readSeg
	// refs counts the readers still to come of a reply sent by DMA: the
	// chain, and per return segment the task that frees its staging buffer
	// and the DPU poller that consumes it — the transfer is the tag the
	// poller receives, so the record lives until the other side is done, as a
	// DOCA task does until its completion is consumed. The last reader puts
	// the record back; a failed segment's never comes, which leaves the record
	// to the GC.
	refs int
}

// hostReadStep is what a host read's next step does.
type hostReadStep uint8

const (
	hostReadStart     hostReadStep = iota // read the object from BlueStore
	hostReadDone                          // the data is in: answer, or cut it for the return DMA
	hostReadStage                         // take a staging buffer for segment i
	hostReadBuffered                      // a buffer is held: the staging memcpy
	hostReadStaged                        // the memcpy is paid for: submit segment i
	hostReadSubmitted                     // the submit cost is paid: enqueue segment i
)

// unref ends one reader's use of hr.
func (hr *hostRead) unref() {
	if hr.refs--; hr.refs == 0 {
		hr.hs.recs.hostReads.Put(hr)
	}
}

// readSeg is one in-flight segment of a read's return DMA, the tag the DPU
// poller receives with it, and the task that frees its staging buffer when
// the engine is done with it.
type readSeg struct {
	t   doca.Transfer
	hdr segHeader
	hr  *hostRead
}

func (rs *readSeg) Run() {
	rs.hr.hs.readBuf.Release()
	rs.hr.unref()
}

// NewHostServer builds the host side. rpcEnd is the host endpoint of the
// control channel; store is the local BlueStore. Of cfg it reads Host, and
// Batch for the coalesced commit notifications.
func NewHostServer(env *sim.Env, hostCPU *sim.CPU, store *bluestore.Store,
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
		names:      objstore.Names{Colls: sim.Local[objstore.Colls](env)},
		recs:       sim.Local[records](env),
	}
	hs.readBuf = dpu.NewBufferPool(env, "host-read-staging",
		readStagingBuffers, readStagingBufferBytes)
	rpcEnd.Handle(opStat, hs.onStat)
	rpcEnd.Handle(opExists, hs.onExists)
	rpcEnd.Handle(opList, hs.onList)
	rpcEnd.Handle(opSegFallback, hs.onSegFallback)
	rpcEnd.Handle(opReadFallback, hs.onReadFallback)
	rpcEnd.Handle(opBatchFallback, hs.onBatchFallback)
	if hs.batch.Enable {
		for range engUp.NumQueues() {
			sh := &notifyShard{hs: hs, cond: sim.NewCond()}
			hs.notify = append(hs.notify, sh)
			env.Delay(0, sh) // the chain starts in an event of its own, as a thread spawned now would
		}
	}
	// The polling thread's idle burn (PollIdleCycles every PollInterval) is
	// accounted analytically as a constant background load on one core.
	idleCores := float64(hs.cfg.PollIdleCycles) /
		(hs.cfg.PollInterval.Seconds() * hostCPU.FreqGHz * 1e9)
	hostCPU.SetBackgroundLoad(DMAPollThreadCat, idleCores)
	hs.poll.hs = hs
	hs.poll.done = engUp.Completions().ServeTask("host-dma-poll", hs.poll.harvest)
	return hs
}

// SetTracer attaches an op tracer. Host-commit spans open only for
// segments whose tags carry a trace context from the DPU side.
func (hs *HostServer) SetTracer(tr *trace.Tracer) { hs.tr = tr }

// Stats returns a copy of the host counters.
func (hs *HostServer) Stats() HostStats { return hs.stats }

// hostPoll is the background polling thread of §4 as a task chain over the
// up engine's completions: a turn takes a DMA completion and triggers the
// corresponding BlueStore handler — files the segment, and once its
// transaction is complete, assembles and decodes it and commits whatever is
// next in order. Its steps are joined where the proc form blocked, on the
// CPU, so that it runs the events the proc would, in the same order. The
// thread burns a small amount of CPU even when idle (the price of polling
// mode; see NewHostServer).
type hostPoll struct {
	hs *HostServer
	// done is the served identity, run when a turn is over.
	done sim.Task
	t    *doca.Transfer
	step pollStep
	// batch is set while the entries of a batch frame (hs.unpacked) are
	// dispatched; next is the index of the next one.
	batch bool
	next  int
	// a and payload are the transaction being assembled, txnSeq its turn;
	// rt is the one being committed; busy is the last burst's charge.
	a       *hostTxn
	payload *wire.Bufferlist
	txnSeq  uint64
	rt      *hostTxn
	busy    sim.Duration
}

// pollStep is what the poller's next step does.
type pollStep uint8

const (
	pollHarvested pollStep = iota // the completion is paid for: dispatch it
	pollEntry                     // file the batch frame's next entry
	pollAssembled                 // the assembly is paid for: decode
	pollCommit                    // commit what is next in order
	pollPrepped                   // BlueStore's submit prep is paid for: submit
)

// harvest starts a turn on t, the served identity's body.
func (hp *hostPoll) harvest(t *doca.Transfer) {
	hs := hp.hs
	hs.stats.PollIterations++
	hp.t, hp.step = t, pollHarvested
	if !hs.cpu.ExecThen(hs.thPoll, completionCycles, nil, hp) {
		hp.Run()
	}
}

// Run is the poller's next step.
func (hp *hostPoll) Run() {
	hs := hp.hs
	for {
		switch hp.step {
		case pollHarvested:
			t := hp.t
			hdr, isSeg := t.Tag.(*segHeader)
			if !isSeg || t.Err != nil {
				hp.end() // probe traffic or failed transfer (DPU handles retry)
				return
			}
			switch hdr.kind {
			case segTxn:
				hs.stats.SegmentsViaDMA++
				if hp.file(hdr.reqID, hdr.txnSeq, hdr.seg, hdr.total, t.Data, hdr.traceCtx,
					hs.engUp.QueueFor(hdr.reqID)) {
					return
				}
			case segTxnBatch:
				hs.stats.BatchFrames++
				entries, err := decodeBatchFrame(t.Data, hs.unpacked)
				if err != nil {
					hs.stats.FrameErrors++
					hp.end()
					return
				}
				hs.unpacked = entries
				// Unpack and dispatch each op individually: every entry enters
				// the ordered commit queue as its own single-segment request,
				// so OSD/commit semantics are identical to the unbatched path.
				hs.stats.BatchedOps += int64(len(entries))
				hp.batch, hp.next, hp.step = true, 0, pollEntry
			case segReadReq:
				if hs.fileRead(hs.recs.hostReads.Get(), t.Data) != nil {
					panic("core: corrupt read request over DMA")
				}
				hp.end()
				return
			default: // segProbe, a health probe: nothing to do
				hp.end()
				return
			}
		case pollEntry:
			entries := hs.unpacked
			if hp.next == len(entries) {
				clear(entries) // the array stays; the payloads it held do not
				hp.end()
				return
			}
			// Route every op in the frame to the notify shard of the queue the
			// frame actually rode (JSQ-pinned or hash-steered).
			t, hdr, i := hp.t, hp.t.Tag.(*segHeader), hp.next
			qidx := t.Queue - 1
			if qidx < 0 {
				qidx = hs.engUp.QueueFor(t.ReqID)
			}
			var ctx uint64
			if i < len(hdr.batchCtxs) {
				ctx = hdr.batchCtxs[i]
			}
			hp.next++
			en := &entries[i]
			if hp.file(en.reqID, en.txnSeq, 0, 1, &en.payload, ctx, qidx) {
				return
			}
		case pollAssembled:
			hs.tr.AddCPU(hp.a.span, hs.cpu.Name(), hp.busy)
			hs.decode(hp.a, hp.txnSeq, hp.payload)
			hp.a, hp.payload, hp.step = nil, nil, pollCommit
		case pollCommit:
			rt := hs.nextReady()
			if rt == nil {
				if hp.segmentDone() {
					return
				}
				continue
			}
			hs.queued(rt)
			hp.rt, hp.step = rt, pollPrepped
			if hs.store.Prep(hs.thPoll, &rt.dec, &hp.busy, hp) {
				return
			}
		case pollPrepped:
			rt := hp.rt
			hp.rt, hp.step = nil, pollCommit
			hs.store.Submit(&rt.dec, &rt.res, hp.busy)
			hs.env.After(&rt.res.Done, rt)
		}
	}
}

// file files one segment; once its transaction is complete, the next step
// decodes it after the assembly's CPU charge, and otherwise the segment is
// done. It reports whether Run must return: the chain goes on in an event, or
// the turn is over.
func (hp *hostPoll) file(reqID, txnSeq uint64, seg, total int, data *wire.Bufferlist, traceCtx uint64, queue int) bool {
	hs := hp.hs
	a, payload := hs.fileSegment(reqID, seg, total, data, traceCtx, queue)
	if a == nil {
		return hp.segmentDone()
	}
	hp.a, hp.payload, hp.txnSeq, hp.step = a, payload, txnSeq, pollAssembled
	return hs.cpu.ExecThen(hs.thPoll, assembleCycles(payload), &hp.busy, hp)
}

// segmentDone goes on after a segment and the commits it released: to the
// batch frame's next entry, or to the end of the turn. It reports whether the
// turn is over.
func (hp *hostPoll) segmentDone() bool {
	if hp.batch {
		hp.step = pollEntry
		return false
	}
	hp.end()
	return true
}

// end finishes the turn and hands the identity back; nothing of hp may be
// touched after it, as the next turn may already have begun.
func (hp *hostPoll) end() {
	hp.t, hp.batch, hp.step = nil, false, pollHarvested
	hp.done.Run()
}

// fileViaRPC is the poller's filing, assembly charge, decode, Prep and Submit
// steps for a segment an RPC-fallback handler received, charged to the RPC
// thread: the same pieces, each charge a Charge of the endpoint (the store
// runs on the host CPU, as the endpoint does). next runs once the segment and
// the commits it released are submitted.
func (hs *HostServer) fileViaRPC(reqID, txnSeq uint64, seg, total int, data *wire.Bufferlist, next func()) {
	a, payload := hs.fileSegment(reqID, seg, total, data, 0, hs.engUp.QueueFor(reqID))
	if a == nil {
		next()
		return
	}
	hs.rpc.Charge(assembleCycles(payload), func(busy sim.Duration) {
		hs.tr.AddCPU(a.span, hs.cpu.Name(), busy)
		hs.decode(a, txnSeq, payload)
		hs.commitViaRPC(next)
	})
}

// commitViaRPC submits the transactions whose turn it is, each after its
// preparation charge on the RPC thread, then runs next.
func (hs *HostServer) commitViaRPC(next func()) {
	rt := hs.nextReady()
	if rt == nil {
		next()
		return
	}
	hs.queued(rt)
	hs.rpc.Charge(bluestore.PrepCycles(&rt.dec), func(busy sim.Duration) {
		hs.store.Submit(&rt.dec, &rt.res, busy)
		hs.env.After(&rt.res.Done, rt)
		hs.commitViaRPC(next)
	})
}

// fileSegment files one transaction segment (from either plane). Once the
// request is complete it returns the record and the assembled payload, with
// the host-commit span opened; otherwise nil.
func (hs *HostServer) fileSegment(reqID uint64, seg, total int, data *wire.Bufferlist, traceCtx uint64, queue int) (*hostTxn, *wire.Bufferlist) {
	a := hs.asm[reqID]
	if a == nil {
		a = hs.recs.hostTxns.Get()
		a.hs, a.reqID, a.queue = hs, reqID, queue
		if total <= len(a.slot) {
			a.segs = a.slot[:total]
		} else {
			a.segs = make([]*wire.Bufferlist, total)
		}
		hs.asm[reqID] = a
	}
	if seg < 0 || seg >= len(a.segs) || total != len(a.segs) {
		hs.stats.FrameErrors++ // disagrees with the request's first segment
		return nil, nil
	}
	if a.segs[seg] == nil {
		a.have++
	}
	a.segs[seg] = data
	if a.traceCtx == 0 {
		a.traceCtx = traceCtx
	}
	if a.have < total {
		return nil, nil
	}
	delete(hs.asm, reqID)
	payload := a.join()
	a.segs = nil
	if hs.tr.Enabled() && a.traceCtx != 0 {
		a.span = hs.tr.Start(trace.SpanID(a.traceCtx), 0, trace.StageHostCommit, hs.cpu.Name())
		hs.tr.AddBytes(a.span, int64(payload.Length()))
	}
	return a, payload
}

// join returns one list over a's segments, in order (shared storage): the one
// segment itself, or a's joined list over them.
func (a *hostTxn) join() *wire.Bufferlist {
	if len(a.segs) == 1 {
		return a.segs[0]
	}
	n := 0
	for _, s := range a.segs {
		n += s.Segments()
	}
	table := a.joinSlot[:]
	if n > len(table) {
		table = make([][]byte, n)
	}
	bl := a.joined.InitOn(table)
	for _, s := range a.segs {
		bl.AppendBufferlist(s)
	}
	return bl
}

// assembleCycles is the charge for decoding an assembled payload.
func assembleCycles(payload *wire.Bufferlist) int64 {
	return int64(float64(payload.Length()) * assembleCyclesPerByte)
}

// decode decodes a's assembled payload and files it for its turn, txnSeq, in
// the ordered commit queue.
func (hs *HostServer) decode(a *hostTxn, txnSeq uint64, payload *wire.Bufferlist) {
	a.dec.Ops = a.op[:0]
	err := a.dec.DecodeBL(payload, &hs.names)
	a.joined, a.joinSlot = wire.Bufferlist{}, [4][]byte{} // the joined payload dies here
	if err != nil {
		// Report the failure but keep the commit sequence moving with the
		// empty transaction in this slot.
		hs.notifyTxnDone(a, rcIO, 0)
		a.silent = true
	} else {
		// The host-commit span parents the local BlueStore's aio/kv spans.
		a.dec.TraceCtx = uint64(a.span)
	}
	a.ready = hs.env.Now()
	hs.readyTxns[txnSeq] = a
}

// nextReady takes the transaction whose turn it is to commit, or nil.
func (hs *HostServer) nextReady() *hostTxn {
	rt, ok := hs.readyTxns[hs.nextCommit]
	if !ok {
		return nil
	}
	delete(hs.readyTxns, hs.nextCommit)
	hs.nextCommit++
	return rt
}

// queued notes that rt's commit is being submitted: the commit-ordering delay
// lands as queue wait.
func (hs *HostServer) queued(rt *hostTxn) {
	rt.start = hs.env.Now()
	hs.tr.AddQueueWait(rt.span, rt.start.Sub(rt.ready))
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
	if len(hs.notify) > 0 {
		hs.recs.hostTxns.Put(rt) // the coalescer queued a copy
	}
}

// txnNotified is a hostTxn as the task that runs once the proxy has decoded
// the commit notification the record carries: its last reader.
type txnNotified hostTxn

func (n *txnNotified) Run() {
	rt := (*hostTxn)(n)
	rt.hs.recs.hostTxns.Put(rt)
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
	hs.env.Delay(0, (*txnNotify)(rt))
}

// txnNotify is a hostTxn as the task that sends its commit notification, at
// the slot where a host-notify proc would have started.
type txnNotify hostTxn

func (n *txnNotify) Run() {
	rt := (*hostTxn)(n)
	if rt.silent {
		// A decode error's report: the record still has its commit to
		// finish, so it is left to the GC.
		rt.hs.rpc.NotifyTask(opTxnDone, &rt.done.bl.Bufferlist, nil, nil)
		return
	}
	rt.hs.rpc.NotifyTask(opTxnDone, &rt.done.bl.Bufferlist, (*txnNotified)(rt), nil)
}

// onBatchFallback files a whole batch frame arriving over the control plane
// (the batched submit used during cooldown / after a batch DMA error).
func (hs *HostServer) onBatchFallback(req rpcchan.Request, respond func(*wire.Bufferlist, uint16)) {
	entries, err := decodeBatchFrame(req.Payload, nil)
	if err != nil {
		hs.stats.FrameErrors++
		respond(nil, rcIO)
		return
	}
	respond(nil, rcOK) // receipt ack; durability is signalled per op
	hs.stats.SegmentsViaRPC += int64(len(entries))
	hs.stats.BatchedOps += int64(len(entries))
	hs.fileEntriesViaRPC(entries)
}

// fileEntriesViaRPC files a fallback batch frame's entries in order, each as
// its own single-segment request.
func (hs *HostServer) fileEntriesViaRPC(entries []batchEntry) {
	if len(entries) == 0 {
		return
	}
	en := &entries[0]
	hs.fileViaRPC(en.reqID, en.txnSeq, 0, 1, &en.payload, func() { hs.fileEntriesViaRPC(entries[1:]) })
}

// fileRead decodes a read descriptor into hr and starts the chain that serves
// it, in an event of its own, as a proc spawned now would start.
func (hs *HostServer) fileRead(hr *hostRead, desc *wire.Bufferlist) error {
	if err := hr.req.decode(desc, &hs.names); err != nil {
		return err
	}
	hr.hs = hs
	hs.env.Delay(0, hr)
	return nil
}

// Run is the read's next step, on the polling thread: it executes the read
// and answers through respond when the request came over RPC, or DMAs the
// data back to the DPU in <=2 MB segments through host-side staging buffers.
// Its steps are joined where a proc doing the same blocked, each by the task
// form of that wait, so it runs the proc's events in the same order.
func (hr *hostRead) Run() {
	hs, req := hr.hs, &hr.req
	for {
		switch hr.step {
		case hostReadStart:
			hr.call = objstore.Call{Coll: req.Coll, Object: req.Object, Off: req.Off, Length: req.Length}
			hr.step = hostReadDone
			if hs.store.ReadThen(hs.thPoll, &hr.call, hr) {
				return
			}
		case hostReadDone:
			bl, err := hr.call.Data, hr.call.Err
			hr.call = objstore.Call{}
			if hr.respond != nil {
				if err != nil {
					hr.respond(nil, errToCode(err))
				} else {
					hr.respond(bl, rcOK)
				}
				return
			}
			if err != nil || bl.Length() == 0 {
				hs.rpc.NotifyTask(opReadDone, encodeReadDone(req.ReqID, errToCode(err), 0), nil, nil)
				hs.recs.hostReads.Put(hr)
				return
			}
			hr.c = newCut(bl, hs.readBuf.BufferBytes(), hs.engDown)
			if hr.segs = hr.slot[:]; hr.c.total > len(hr.slot) {
				hr.segs = make([]readSeg, hr.c.total)
			}
			hr.refs, hr.step = 1, hostReadStage
		case hostReadStage:
			if hr.i == len(hr.segs) {
				hr.unref()
				return
			}
			hr.step = hostReadBuffered
			if hs.readBuf.AcquireThen(hr) {
				return
			}
		case hostReadBuffered:
			hr.step = hostReadStaged
			if hs.cpu.ExecThen(hs.thPoll, int64(float64(hr.c.size(hr.i))*hostStageCyclesPerByte), nil, hr) {
				return
			}
		case hostReadStaged:
			i := hr.i
			data := hr.c.payload // a one-segment reply is the store's list itself
			if hr.c.total > 1 {
				data = hr.c.view(i)
			}
			rs := &hr.segs[i]
			rs.hr = hr
			rs.hdr = segHeader{kind: segReadData, reqID: req.ReqID, seg: i, total: hr.c.total}
			rs.t = doca.Transfer{
				ReqID: req.ReqID, Seg: i, TotalSegs: hr.c.total, Bytes: hr.c.size(i), Data: data,
				Src: hs.hostMR, Dst: hs.dpuMR, Tag: rs,
			}
			if err := hs.engDown.Validate(&rs.t); err != nil {
				hs.readBuf.Release()
				hs.rpc.NotifyTask(opReadDone, encodeReadDone(req.ReqID, rcIO, 0), nil, nil)
				return // the segments already sent may still be read: left to the GC
			}
			hr.step = hostReadSubmitted
			if hs.engDown.ChargeSubmit(hs.cpu, hs.thPoll, hr) {
				return
			}
		case hostReadSubmitted:
			rs := &hr.segs[hr.i]
			hs.engDown.Enqueue(&rs.t)
			hr.refs += 2 // the staging task and the DPU poller
			hs.env.After(&rs.t.Done, rs)
			hr.i, hr.step = hr.i+1, hostReadStage
		}
	}
}

// String names the read in deadlock reports, as its proc was named.
func (hr *hostRead) String() string {
	if hr.respond != nil {
		return fmt.Sprintf("host-read-rpc:%d", hr.req.ReqID)
	}
	return fmt.Sprintf("host-read:%d", hr.req.ReqID)
}

// Control-plane handlers: quick metadata services on the event-driven RPC
// loop (§3.2). Each pays BlueStore's lookup charge as an Endpoint.Charge (the
// store runs on the host CPU, as the endpoint does) before it looks.

func (hs *HostServer) onStat(req rpcchan.Request, respond func(*wire.Bufferlist, uint16)) {
	hs.stats.ControlRequests++
	coll, obj, err := decodeObjRef(req.Payload)
	if err != nil {
		respond(nil, rcIO)
		return
	}
	hs.rpc.Charge(bluestore.LookupCycles, func(sim.Duration) {
		st, serr := hs.store.Lookup(coll, obj)
		if serr != nil {
			respond(nil, errToCode(serr))
			return
		}
		respond(encodeStatResp(st), rcOK)
	})
}

func (hs *HostServer) onExists(req rpcchan.Request, respond func(*wire.Bufferlist, uint16)) {
	hs.stats.ControlRequests++
	coll, obj, err := decodeObjRef(req.Payload)
	if err != nil {
		respond(nil, rcIO)
		return
	}
	hs.rpc.Charge(bluestore.LookupCycles, func(sim.Duration) {
		v := byte(0)
		if _, err := hs.store.Lookup(coll, obj); err == nil {
			v = 1
		}
		respond(wire.FromBytes([]byte{v}), rcOK)
	})
}

func (hs *HostServer) onList(req rpcchan.Request, respond func(*wire.Bufferlist, uint16)) {
	hs.stats.ControlRequests++
	coll, _, err := decodeObjRef(req.Payload)
	if err != nil {
		respond(nil, rcIO)
		return
	}
	hs.rpc.Charge(bluestore.LookupCycles, func(sim.Duration) {
		names, lerr := hs.store.Names(coll)
		if lerr != nil {
			respond(nil, errToCode(lerr))
			return
		}
		respond(encodeList(names), rcOK)
	})
}

// onSegFallback files a transaction segment arriving over the RPC path
// (cooldown or post-error fallback).
func (hs *HostServer) onSegFallback(req rpcchan.Request, respond func(*wire.Bufferlist, uint16)) {
	reqID, txnSeq, seg, total, payload, err := decodeSegFallback(req.Payload)
	if err != nil {
		respond(nil, rcIO)
		return
	}
	hs.stats.SegmentsViaRPC++
	respond(nil, rcOK) // receipt ack; durability is signalled via opTxnDone
	hs.fileViaRPC(reqID, txnSeq, seg, total, payload, func() {})
}

// onReadFallback serves a whole read over RPC (cooldown path).
func (hs *HostServer) onReadFallback(req rpcchan.Request, respond func(*wire.Bufferlist, uint16)) {
	if hs.fileRead(&hostRead{respond: respond}, req.Payload) != nil {
		respond(nil, rcIO)
	}
}
