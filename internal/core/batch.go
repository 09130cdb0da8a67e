package core

import (
	"fmt"

	"doceph/internal/doca"
	"doceph/internal/rpcchan"
	"doceph/internal/sim"
	"doceph/internal/trace"
	"doceph/internal/wire"
)

// BatchConfig tunes adaptive small-op batching in the DPU data path. Every
// op pays a fixed DMA cost (descriptor setup + doorbell, ~1.6 ms on the
// emulated engine) and a fixed control-RPC cost for its commit
// notification; at small object sizes these fixed costs dominate and DoCeph
// trails the baseline in IOPS (the paper's Figure 10). Batching amortizes
// them: the proxy coalesces queued outbound transactions into a single DMA
// transfer (one staging pass, one doorbell) and the host coalesces commit
// notifications into batched RPCs.
//
// Off by default: with Enable false no chain is started and no code path
// changes, so existing golden runs stay bit-identical.
type BatchConfig struct {
	// Enable turns batching on. All other fields take defaults when zero.
	Enable bool
	// MaxBatchBytes caps the coalesced payload of one batch frame and is
	// the flush byte threshold. Clamped to fit one staging buffer and one
	// engine transfer (~2 MB) including frame overhead.
	MaxBatchBytes int64
	// MaxOpBytes is the eligibility cutoff: transactions serializing
	// larger than this bypass the batcher and use the segmented per-op
	// path (clamped to MaxBatchBytes).
	MaxOpBytes int64
	// MaxDelay bounds how long the oldest queued op may wait before the
	// batch is force-flushed (virtual-time timer).
	MaxDelay sim.Duration
	// IdleDelay is the adaptive gap: if no new op arrives within it, the
	// queue is considered idle and flushes immediately rather than holding
	// ops for stragglers.
	IdleDelay sim.Duration
}

// DefaultBatchConfig returns the batching defaults used when Enable is set.
func DefaultBatchConfig() BatchConfig {
	return BatchConfig{
		MaxBatchBytes: 1 << 20,
		MaxOpBytes:    256 << 10,
		MaxDelay:      400 * sim.Microsecond,
		IdleDelay:     40 * sim.Microsecond,
	}
}

func (c BatchConfig) withDefaults() BatchConfig {
	if !c.Enable {
		// Disabled: keep the zero value so nothing downstream changes.
		return c
	}
	d := DefaultBatchConfig()
	if c.MaxBatchBytes == 0 {
		c.MaxBatchBytes = d.MaxBatchBytes
	}
	if c.MaxOpBytes == 0 {
		c.MaxOpBytes = d.MaxOpBytes
	}
	if c.MaxDelay == 0 {
		c.MaxDelay = d.MaxDelay
	}
	if c.IdleDelay == 0 {
		c.IdleDelay = d.IdleDelay
	}
	if c.MaxOpBytes > c.MaxBatchBytes {
		c.MaxOpBytes = c.MaxBatchBytes
	}
	return c
}

// enqueueBatch files an eligible transaction with the batcher; the batcher's
// chain ships it. Completion still arrives per op via pendingTxns.
func (px *Proxy) enqueueBatch(op *pendingTxn) {
	op.enq = px.env.Now()
	px.batchQ = append(px.batchQ, op)
	px.batchBytes += int64(op.frame.Length())
	px.batchSeq++
	px.batchCond.Broadcast()
}

// maxOpsPerFrame caps the number of ops coalesced into one frame (the
// decoder's own bound, maxBatchOps, is four times it).
const maxOpsPerFrame = 256

// batcher is the adaptive flush thread (started only when batching is
// enabled) as a task chain on the proxy-batch thread. It accumulates queued
// ops and flushes on the first of: the byte threshold is reached, an
// IdleDelay gap passes with no new arrival, or the oldest op has waited
// MaxDelay. A flush ships the head of the batch queue as one frame: a single
// staging pass into one DMA buffer and a single engine doorbell, with per-op
// batch.stage/batch.dma spans for attribution. During cooldown (or after a
// DMA error) the whole frame rides ONE control-plane call instead of per-op
// RPCs — the batched-submit half of the control-plane coalescing. Its steps
// are joined where the proc form blocked, each by the task form of that wait,
// so it runs the proc's events in the same order.
type batcher struct {
	px   *Proxy
	step batchStep
	// deadline bounds the accumulation under way, before is the arrival count
	// when an idle wait began, and reason the counter of the flush's cause.
	deadline sim.Time
	before   uint64
	reason   *int64
	// fr is the frame being flushed; i is the op its staging is at, sp that
	// op's span and busy its memcpy's charge. after is the step the region
	// negotiations go on to.
	fr    *batchFrame
	i     int
	sp    trace.SpanID
	busy  sim.Duration
	after batchStep
	// probeOK is the verdict of the gate's probe; frame and reply are the
	// fallback call's frame and its reply.
	probeOK bool
	frame   *wire.Bufferlist
	reply   *rpcchan.Reply
}

// batchStep is what the batcher's next step does.
type batchStep uint8

const (
	batchIdle         batchStep = iota // wait for a queued op
	batchGather                        // accumulate: wait out an idle gap, or flush
	batchWaited                        // the idle gap is over: did anything arrive?
	batchBackpressure                  // wait for a free DMA queue, then take the frame
	batchGate                          // the cooldown gate
	batchProbed                        // the gate's probe is done: decide
	batchAcquire                       // take a staging buffer
	batchBuffered                      // a buffer is held: make the regions usable
	batchRegions                       // negotiate the DPU region, if need be
	batchHostRegion                    // the DPU region is negotiated: the host's next
	batchStage                         // the staging memcpy of op i
	batchStaged                        // op i's memcpy is paid for
	batchSubmit                        // frame and submit the transfer
	batchSubmitted                     // the submit cost is paid: enqueue the transfer
	batchFallback                      // send the frame over the control plane
	batchSent                          // the host has received the frame
)

// Run is the batcher's next step.
func (b *batcher) Run() {
	px := b.px
	cfg := px.batch
	for {
		switch b.step {
		case batchIdle:
			if len(px.batchQ) == 0 {
				px.batchCond.WaitThen(px.env, b)
				return
			}
			b.deadline = px.batchQ[0].enq.Add(cfg.MaxDelay)
			b.reason, b.step = &px.stats.BatchFlushBytes, batchGather
		case batchGather:
			b.step = batchBackpressure
			if px.batchBytes >= cfg.MaxBatchBytes || len(px.batchQ) >= maxOpsPerFrame {
				continue
			}
			rem := b.deadline.Sub(px.env.Now())
			if rem <= 0 {
				b.reason = &px.stats.BatchFlushDelay
				continue
			}
			b.before, b.step = px.batchSeq, batchWaited
			if px.env.WaitThen(min(cfg.IdleDelay, rem), b) {
				return
			}
		case batchWaited:
			b.step = batchGather
			if px.batchSeq == b.before {
				b.reason, b.step = &px.stats.BatchFlushIdle, batchBackpressure
			}
		case batchBackpressure:
			// With every DMA queue already serving a frame the engine could
			// not start another anyway, so keep accumulating instead of
			// queueing single-op frames behind them. This is what makes the
			// batch size track the instantaneous queue depth under load; with
			// a multi-queue engine, up to NumQueues frames overlap.
			if px.batchInflight >= px.engUp.NumQueues() {
				px.batchCond.WaitThen(px.env, b)
				return
			}
			*b.reason++
			b.take()
			b.step = batchGate
		case batchGate:
			switch px.gate(px.env.Now()) {
			case gateAllow:
				b.step = batchAcquire
			case gateDeny:
				b.deny()
			default:
				b.step = batchProbed
				if px.probeThen(px.thBatch, &b.probeOK, b) {
					return
				}
			}
		case batchProbed:
			if b.probeOK {
				b.step = batchAcquire
			} else {
				b.deny()
			}
		case batchAcquire:
			px.stats.DataPlaneTxns += int64(len(b.fr.ops))
			// One staging pass: the whole frame is memcpy'd into a single
			// DMA-capable buffer. The per-op copy cost is unchanged (staging
			// is linear in bytes); what the batch removes is the per-op setup.
			b.step = batchBuffered
			if px.dev.Buffers.AcquireThen(b) {
				return
			}
		case batchBuffered:
			px.noteStage(b.fr.bytes)
			b.i, b.after, b.step = 0, batchStage, batchRegions
		case batchRegions:
			b.step = b.after
			if px.regionsReady() {
				continue
			}
			b.step = batchHostRegion
			if px.cc.NegotiateThen(px.thBatch, px.dpuMR, b) {
				return
			}
		case batchHostRegion:
			b.step = b.after
			if px.cc.NegotiateThen(px.thBatch, px.hostMR, b) {
				return
			}
		case batchStage:
			if b.i == len(b.fr.ops) {
				b.step = batchSubmit
				continue
			}
			op := b.fr.ops[b.i]
			n := int64(op.frame.Length())
			b.sp = 0
			if op.ctx != 0 {
				b.sp = px.tr.Start(op.ctx, 0, trace.StageBatchStage, px.dev.Name)
				// Queue wait covers batch-queue residency plus the staging-
				// buffer wait, both inherited from the flush instant.
				px.tr.AddQueueWait(b.sp, px.env.Now().Sub(op.enq))
				px.tr.AddBytes(b.sp, n)
			}
			b.step = batchStaged
			if px.dev.CPU.ExecThen(px.thBatch, int64(float64(n)*proxyStageCyclesPerByte), &b.busy, b) {
				return
			}
		case batchStaged:
			px.tr.AddCPU(b.sp, px.dev.CPU.Name(), b.busy)
			px.tr.Finish(b.sp)
			b.sp, b.i, b.step = 0, b.i+1, batchStage
		case batchSubmit:
			if b.submit() {
				return
			}
		case batchSubmitted:
			// Settle accounting when the engine finishes; the batcher keeps
			// accumulating the next batch meanwhile (staging/transfer
			// overlap).
			fr := b.fr
			px.engUp.Enqueue(&fr.t)
			b.fr, b.step = nil, batchIdle
			px.env.Delay(0, fr) // the chain starts in an event of its own, as a thread spawned now would
		case batchFallback:
			px.frames.Abandon(sim.Fallback) // the call reads the frame's encoding
			b.step = batchSent
			b.reply = px.rpc.CallTask(opBatchFallback, b.frame, b)
			return
		case batchSent:
			if _, err := b.reply.Result(); err != nil {
				panic(fmt.Sprintf("core: batch RPC fallback failed: %v", err))
			}
			b.frame, b.reply, b.step = nil, nil, batchIdle
		}
	}
}

// take takes the head of the batch queue as the frame to flush.
func (b *batcher) take() {
	px := b.px
	k, bytes := 0, int64(0)
	for ; k < len(px.batchQ); k++ {
		n := int64(px.batchQ[k].frame.Length())
		if k > 0 && (bytes+n > px.batch.MaxBatchBytes || k >= maxOpsPerFrame) {
			break
		}
		bytes += n
	}
	b.fr = px.frames.get(k)
	b.fr.px, b.fr.bytes = px, bytes
	copy(b.fr.ops, px.batchQ)
	for _, op := range b.fr.ops {
		op.fr = b.fr
	}
	// Copy the rest down and clear the tail: the queue keeps its array, and
	// the array keeps no shipped op reachable.
	rest := copy(px.batchQ, px.batchQ[k:])
	clear(px.batchQ[rest:])
	px.batchQ = px.batchQ[:rest]
	px.batchBytes -= bytes
	px.stats.BatchFlushes++
	px.stats.BatchedTxns += int64(k)
}

// deny sends the whole frame over the control plane: DMA is cooling down.
func (b *batcher) deny() {
	b.px.stats.FallbackTxns += int64(len(b.fr.ops))
	b.frame, b.fr, b.step = b.fr.encode(), nil, batchFallback
}

// submit frames the staged ops and hands the frame to the engine; it reports
// whether the chain goes on in an event. A frame the engine refuses gives its
// buffer back, cools DMA down and goes over the control plane.
func (b *batcher) submit() bool {
	px, fr := b.px, b.fr
	k := len(fr.ops)
	px.nextReq++
	batchID := px.nextReq
	dmaStage := trace.StageBatchDMA
	qpin := 0
	if px.engUp.NumQueues() > 1 {
		// JSQ: claim the shallowest queue now so the frame never queues
		// behind a busy queue while a sibling sits idle. The reservation
		// also fixes the per-queue trace stage and the notify shard the
		// host will use for this frame's commit notifications.
		qidx := px.engUp.ReserveQueue()
		qpin = qidx + 1
		dmaStage = trace.StageBatchDMAQueue(qidx)
	}
	for i, op := range fr.ops {
		fr.hdr.batchCtxs[i] = uint64(op.ctx)
		if op.ctx != 0 {
			fr.spans[i] = px.tr.Start(op.ctx, 0, dmaStage, px.dev.Name)
			px.tr.AddBytes(fr.spans[i], int64(op.frame.Length()))
		}
	}
	frame := fr.encode()
	// Batch frames always move from the pre-registered staging pool into
	// the fixed host region: consecutive frames on a queue reuse the
	// established MRs/descriptors instead of a full setup (§3.3).
	fr.hdr.kind, fr.hdr.reqID, fr.hdr.total = segTxnBatch, batchID, 1
	t := &fr.t
	*t = doca.Transfer{
		ReqID: batchID, TotalSegs: 1, Bytes: int64(frame.Length()), Data: frame, Ops: k,
		Src: px.dpuMR, Dst: px.hostMR, ReuseSetup: true, Queue: qpin, Tag: &fr.hdr,
	}
	fr.start = px.env.Now()
	px.batchInflight++
	if err := px.engUp.Validate(t); err != nil {
		px.batchInflight--
		for _, sp := range fr.spans {
			px.tr.Finish(sp)
		}
		px.dev.Buffers.Release()
		px.noteUnstage(fr.bytes)
		px.enterCooldown(px.env.Now())
		px.stats.FallbackSegments += int64(k)
		b.frame, b.fr, b.step = frame, nil, batchFallback
		return false
	}
	b.step = batchSubmitted
	return px.engUp.ChargeSubmit(px.dev.CPU, px.thBatch, b)
}

// String names the batcher in deadlock reports.
func (b *batcher) String() string { return b.px.thBatch.Name }

// Daemon marks the batcher as a service loop that waits for work forever
// once the system goes idle.
func (b *batcher) Daemon() {}

// batchFrame is one batch frame in flight, in one record from the
// partition's free list: the ops it carries until it is encoded, with their
// trace contexts and spans, the encoded frame — its list, header bytes and
// segment table — the engine transfer and its tag, and what the frame's
// settle chain settles. A one-op frame, the usual one, has all its tables in
// the slots; a larger one has them in tabs, sized once and kept when the
// record is recycled. The host poller reads the frame and its tag after the
// settle chain is done with them, up to its last op, so the record goes back
// once it has settled and every op it carried has completed; a frame whose
// transfer failed, or that went over the control plane, is abandoned.
type batchFrame struct {
	px *Proxy
	t  doca.Transfer
	// reply is the fallback call of a frame the engine failed.
	reply *rpcchan.Reply
	hdr   segHeader
	// ops are the frame's ops until encode; n counts them, and refs the
	// readers still to come: the settle chain, and each op until it completes.
	ops      []*pendingTxn
	n, refs  int
	spans    []trace.SpanID
	bytes    int64
	start    sim.Time
	frame    wire.Bufferlist
	opSlot   [1]*pendingTxn
	ctxSlot  [1]uint64
	spanSlot [1]trace.SpanID
	hdrSlot  [oneOpFrameOverhead]byte
	// segSlot holds a one-op frame's segments: its header and the op's
	// metadata and payload.
	segSlot [3][]byte
	tabs    frameTables
}

// frameTables are the tables of a frame of more ops than the slots hold.
type frameTables struct {
	ops   []*pendingTxn
	ctxs  []uint64
	spans []trace.SpanID
	hdr   []byte
	segs  [][]byte
}

// frames is the free list of batch frames; a listed frame keeps its tables,
// cleared.
type frames struct{ sim.FreeList[batchFrame] }

// get returns a frame for n ops, its settle chain's reference and one per op
// taken.
func (l *frames) get(n int) *batchFrame {
	fr := l.Get()
	fr.n, fr.refs = n, 1+n
	if n == 1 {
		fr.ops, fr.hdr.batchCtxs, fr.spans = fr.opSlot[:], fr.ctxSlot[:], fr.spanSlot[:]
		return fr
	}
	if t := &fr.tabs; cap(t.ops) < n {
		t.ops, t.ctxs, t.spans = make([]*pendingTxn, n), make([]uint64, n), make([]trace.SpanID, n)
	}
	fr.ops, fr.hdr.batchCtxs, fr.spans = fr.tabs.ops[:n], fr.tabs.ctxs[:n], fr.tabs.spans[:n]
	return fr
}

// put zeroes fr but for its tables, which it clears, and lists it.
func (l *frames) put(fr *batchFrame) {
	t := fr.tabs
	clear(t.ops[:cap(t.ops)])
	clear(t.ctxs[:cap(t.ctxs)])
	clear(t.spans[:cap(t.spans)])
	clear(t.segs[:cap(t.segs)])
	l.Put(fr)
	fr.tabs = t
}

// release ends one reader's use of fr; the last puts it back.
func (fr *batchFrame) release() {
	if fr.refs--; fr.refs == 0 {
		fr.px.frames.put(fr)
	}
}

// encode frames the ops into the record and drops their own frames: the batch
// frame shares their segments from here on (an RPC fallback resends it), and
// keeps a count of its ops, not the ops.
func (fr *batchFrame) encode() *wire.Bufferlist {
	hdr, table := fr.hdrSlot[:], fr.segSlot[:]
	if n := batchFrameOverhead(len(fr.ops)); n > int64(len(hdr)) {
		if int64(cap(fr.tabs.hdr)) < n {
			fr.tabs.hdr = make([]byte, 0, n)
		}
		hdr = fr.tabs.hdr
	}
	segs := 0
	for _, op := range fr.ops {
		segs += 1 + op.frame.Segments()
	}
	if segs > len(table) {
		if cap(fr.tabs.segs) < segs {
			fr.tabs.segs = make([][]byte, segs)
		}
		table = fr.tabs.segs
	}
	frame := encodeBatchFrame(fr.ops, hdr, fr.frame.InitOn(table))
	for _, op := range fr.ops {
		op.frame.Init()
		op.release()
	}
	clear(fr.ops)
	fr.ops = nil
	return frame
}

// Run is the frame's settle chain, started where a proxy-batch-dma proc would
// have been: once the engine is done with the frame, free the staging buffer,
// account the DMA time and, after an error, resend the frame over the control
// plane. Before the resend, the engine's completion is waited for (a no-op
// once it has fired); after it, the call's reply is checked.
func (fr *batchFrame) Run() {
	px, t := fr.px, &fr.t
	if fr.reply != nil {
		if _, err := fr.reply.Result(); err != nil {
			panic(fmt.Sprintf("core: batch RPC fallback failed: %v", err))
		}
		return
	}
	if t.Done.WaitThen(px.env, fr) {
		return
	}
	px.batchInflight--
	px.batchCond.Broadcast()
	for _, s := range fr.spans {
		px.tr.Finish(s)
	}
	px.dev.Buffers.Release()
	px.noteUnstage(fr.bytes)
	px.breakdown.DMA += t.CopyTime()
	if w := t.CompletedAt.Sub(fr.start) - t.CopyTime(); w > 0 {
		px.breakdown.DMAWait += w
	}
	if t.Err != nil {
		px.enterCooldown(px.env.Now())
		px.stats.FallbackSegments += int64(fr.n)
		px.frames.Abandon(sim.Fallback)
		fr.reply = px.rpc.CallTask(opBatchFallback, t.Data, fr)
		return
	}
	fr.release()
}

// String names the frame's chain in deadlock reports.
func (fr *batchFrame) String() string { return fmt.Sprintf("proxy-batch-dma:%d", fr.t.ReqID) }

// onTxnDoneBatch handles a coalesced host commit notification: one RPC
// completing many transactions.
func (px *Proxy) onTxnDoneBatch(req rpcchan.Request, respond func(*wire.Bufferlist, uint16)) {
	respond(nil, 0) // notify: no-op
	entries, err := decodeTxnDoneBatch(req.Payload, px.doneEntries)
	if err != nil {
		panic("core: corrupt batched txn-done notification")
	}
	px.doneEntries = entries
	for _, en := range entries {
		if pt, ok := px.pendingTxns[en.reqID]; ok {
			pt.code = en.code
			pt.hostWriteNano = en.hostNanos
			pt.done.Fire()
		}
	}
}

// notifyMax caps commit notifications coalesced into one host->DPU
// opTxnDoneBatch RPC.
const notifyMax = 32

// notifyShard is one host-side commit-notification coalescer (started only
// when batching is enabled, one per DMA queue) as a task chain: it drains
// queued commit notifications into opTxnDoneBatch RPCs using the same
// adaptive idle/max-delay policy as the proxy batcher. Its steps are joined
// where the proc form blocked, so it runs the proc's events in the same
// order.
type notifyShard struct {
	hs   *HostServer
	cond *sim.Cond
	q    []txnDoneEntry
	// lastN is the size of the previous coalesced RPC. When it was a single
	// entry the shard is in a low-rate regime: waiting IdleDelay for a
	// companion almost never finds one and just adds latency to the commit
	// ack, so flush immediately. The first multi-entry flush (completions
	// arrived back-to-back during the RPC) switches back to accumulating.
	// deadline bounds the accumulation under way, before is len(q) when an
	// idle wait began.
	lastN, before int32
	step          notifyStep
	deadline      sim.Time
}

// notifyStep is what a notify shard's next step does.
type notifyStep uint8

const (
	notifyIdle   notifyStep = iota // wait for a queued notification
	notifyGather                   // accumulate: wait out an idle gap, or flush
	notifyWaited                   // the idle gap is over: did anything arrive?
	notifyFlush                    // send what is queued, up to notifyMax
)

// Run is the shard's next step.
func (sh *notifyShard) Run() {
	hs := sh.hs
	cfg := hs.batch
	for {
		switch sh.step {
		case notifyIdle:
			if len(sh.q) == 0 {
				sh.cond.WaitThen(hs.env, sh)
				return
			}
			sh.deadline, sh.step = hs.env.Now().Add(cfg.MaxDelay), notifyGather
		case notifyGather:
			sh.step = notifyFlush
			if sh.lastN <= 1 || len(sh.q) >= notifyMax {
				continue
			}
			rem := sh.deadline.Sub(hs.env.Now())
			if rem <= 0 {
				continue
			}
			sh.before, sh.step = int32(len(sh.q)), notifyWaited
			if hs.env.WaitThen(min(cfg.IdleDelay, rem), sh) {
				return
			}
		case notifyWaited:
			sh.step = notifyGather
			if len(sh.q) == int(sh.before) {
				sh.step = notifyFlush
			}
		case notifyFlush:
			n := min(len(sh.q), notifyMax)
			sh.lastN = int32(n)
			f := hs.notifies.Get()
			f.list = hs.notifies
			f.bl.Init().Append(encodeTxnDoneBatch(sh.q[:n], f.buf[:0]))
			sh.q = sh.q[:copy(sh.q, sh.q[n:])] // the shard keeps its array
			hs.stats.NotifyBatches++
			sh.step = notifyIdle
			hs.rpc.NotifyTask(opTxnDoneBatch, &f.bl.Bufferlist, f, sh)
			return
		}
	}
}

// notifyFrame is one coalesced commit notification on its way to the proxy, a
// record from the partition's free list: the frame's bytes and the list over
// them. It is its own consumed task: once onTxnDoneBatch has decoded it, it
// goes back. One that no handler takes is never consumed, and the GC takes it.
type notifyFrame struct {
	list *sim.FreeList[notifyFrame]
	bl   wire.Inline1
	buf  [4 + notifyMax*18]byte
}

// Run puts the frame back: the proxy has decoded it.
func (f *notifyFrame) Run() { f.list.Put(f) }

// Daemon marks the shard as a service loop that waits for work forever once
// the system goes idle.
func (sh *notifyShard) Daemon() {}

// String names the shard in deadlock reports, as its proc form was named.
func (sh *notifyShard) String() string {
	if n := len(sh.hs.notify); n > 1 {
		for i, o := range sh.hs.notify {
			if o == sh {
				return fmt.Sprintf("host-notify-batch:q%d", i)
			}
		}
	}
	return "host-notify-batch"
}
