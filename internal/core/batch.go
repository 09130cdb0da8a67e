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
// Off by default: with Enable false no daemon is spawned and no code path
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

// enqueueBatch files an eligible transaction with the batcher; the batch
// daemon ships it. Completion still arrives per op via pendingTxns.
func (px *Proxy) enqueueBatch(p *sim.Proc, op *pendingTxn) {
	op.enq = p.Now()
	px.batchQ = append(px.batchQ, op)
	px.batchBytes += int64(op.frame.Length())
	px.batchSeq++
	px.batchCond.Broadcast()
}

// maxOpsPerFrame caps the number of ops coalesced into one frame (the
// decoder's own bound, maxBatchOps, is four times it).
const maxOpsPerFrame = 256

// batchLoop is the adaptive flush daemon (spawned only when batching is
// enabled). It accumulates queued ops and flushes on the first of: the byte
// threshold is reached, an IdleDelay gap passes with no new arrival, or the
// oldest op has waited MaxDelay.
func (px *Proxy) batchLoop(p *sim.Proc) {
	p.SetThread(px.thBatch)
	cfg := px.batch
	for {
		for len(px.batchQ) == 0 {
			px.batchCond.Wait(p)
		}
		deadline := px.batchQ[0].enq.Add(cfg.MaxDelay)
		reason := &px.stats.BatchFlushBytes
		for px.batchBytes < cfg.MaxBatchBytes && len(px.batchQ) < maxOpsPerFrame {
			rem := deadline.Sub(p.Now())
			if rem <= 0 {
				reason = &px.stats.BatchFlushDelay
				break
			}
			wait := cfg.IdleDelay
			if rem < wait {
				wait = rem
			}
			before := px.batchSeq
			p.Wait(wait)
			if px.batchSeq == before {
				reason = &px.stats.BatchFlushIdle
				break
			}
		}
		// Backpressure: with every DMA queue already serving a frame the
		// engine could not start another anyway, so keep accumulating
		// instead of queueing single-op frames behind them. This is what
		// makes the batch size track the instantaneous queue depth under
		// load; with a multi-queue engine, up to NumQueues frames overlap.
		for px.batchInflight >= px.engUp.NumQueues() {
			px.batchCond.Wait(p)
		}
		*reason++
		px.flushBatch(p)
	}
}

// flushBatch ships the head of the batch queue as one frame: a single
// staging pass into one DMA buffer and a single engine doorbell, with
// per-op batch.stage/batch.dma spans for attribution. During cooldown (or
// after a DMA error) the whole frame rides ONE control-plane call instead
// of per-op RPCs — the batched-submit half of the control-plane coalescing.
func (px *Proxy) flushBatch(p *sim.Proc) {
	cfg := px.batch
	k, bytes := 0, int64(0)
	for ; k < len(px.batchQ); k++ {
		n := int64(px.batchQ[k].frame.Length())
		if k > 0 && (bytes+n > cfg.MaxBatchBytes || k >= maxOpsPerFrame) {
			break
		}
		bytes += n
	}
	fr := newBatchFrame(k)
	copy(fr.ops, px.batchQ)
	// Copy the rest down and clear the tail: the queue keeps its array, and
	// the array keeps no shipped op reachable.
	rest := copy(px.batchQ, px.batchQ[k:])
	clear(px.batchQ[rest:])
	px.batchQ = px.batchQ[:rest]
	px.batchBytes -= bytes
	px.stats.BatchFlushes++
	px.stats.BatchedTxns += int64(k)

	if !px.dmaAllowed(p) {
		px.stats.FallbackTxns += int64(k)
		px.shipBatchViaRPC(p, fr.encode())
		return
	}
	px.stats.DataPlaneTxns += int64(k)

	// One staging pass: the whole frame is memcpy'd into a single
	// DMA-capable buffer. The per-op copy cost is unchanged (staging is
	// linear in bytes); what the batch removes is the per-op setup.
	px.dev.Buffers.Acquire(p)
	px.noteStage(bytes)
	px.ensureRegions(p)
	for _, op := range fr.ops {
		n := int64(op.frame.Length())
		var sp trace.SpanID
		if op.ctx != 0 {
			sp = px.tr.Start(op.ctx, 0, trace.StageBatchStage, px.dev.Name)
			// Queue wait covers batch-queue residency plus the staging-
			// buffer wait, both inherited from the flush instant.
			px.tr.AddQueueWait(sp, p.Now().Sub(op.enq))
			px.tr.AddBytes(sp, n)
		}
		px.tr.AddCPU(sp, px.dev.CPU.Name(),
			px.dev.CPU.Exec(p, px.thBatch, int64(float64(n)*proxyStageCyclesPerByte)))
		px.tr.Finish(sp)
	}
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
	fr.bytes, fr.start = bytes, p.Now()
	px.batchInflight++
	if err := px.engUp.Submit(p, px.dev.CPU, t); err != nil {
		px.batchInflight--
		for _, sp := range fr.spans {
			px.tr.Finish(sp)
		}
		px.dev.Buffers.Release()
		px.noteUnstage(bytes)
		px.enterCooldown(p)
		px.stats.FallbackSegments += int64(k)
		px.shipBatchViaRPC(p, frame)
		return
	}
	// Settle accounting when the engine finishes; the batcher keeps
	// accumulating the next batch meanwhile (staging/transfer overlap).
	px.batchFrames[batchID] = fr
	px.env.SpawnID("proxy-batch-dma:", batchID, px.batchBody)
}

// batchFrame is one batch frame in flight, in one allocation: the ops it
// carries with their trace contexts and spans, the encoded frame — its list,
// header bytes and segment table — the engine transfer and its tag, and what
// the frame's proxy-batch-dma proc, which finds the record by its id,
// settles. A one-op frame, the usual one, has all its tables in the slots;
// a larger one allocates each once, at its size.
type batchFrame struct {
	t        doca.Transfer
	hdr      segHeader
	ops      []*pendingTxn
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
}

func newBatchFrame(n int) *batchFrame {
	fr := &batchFrame{}
	if n == 1 {
		fr.ops, fr.hdr.batchCtxs, fr.spans = fr.opSlot[:], fr.ctxSlot[:], fr.spanSlot[:]
	} else {
		fr.ops, fr.hdr.batchCtxs, fr.spans = make([]*pendingTxn, n), make([]uint64, n), make([]trace.SpanID, n)
	}
	return fr
}

// encode frames the ops into the record and drops their own frames: the batch
// frame shares their segments from here on (an RPC fallback resends it), and
// each op's caller keeps its pendingTxn long after.
func (fr *batchFrame) encode() *wire.Bufferlist {
	hdr, table := fr.hdrSlot[:], fr.segSlot[:]
	if n := batchFrameOverhead(len(fr.ops)); n > int64(len(hdr)) {
		hdr = make([]byte, 0, n)
	}
	segs := 0
	for _, op := range fr.ops {
		segs += 1 + op.frame.Segments()
	}
	if segs > len(table) {
		table = make([][]byte, 0, segs)
	}
	frame := encodeBatchFrame(fr.ops, hdr, fr.frame.InitOn(table))
	for _, op := range fr.ops {
		op.frame.Init()
	}
	return frame
}

// settleBatch is the body of every proxy-batch-dma proc: once the engine is
// done with the frame its id names, free the staging buffer, account the DMA
// time and, after an error, resend the frame over the control plane.
func (px *Proxy) settleBatch(sp *sim.Proc) {
	fr := px.batchFrames[sp.ID()]
	delete(px.batchFrames, sp.ID())
	sp.SetThread(px.thBatch)
	t := &fr.t
	t.Done.Wait(sp)
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
		if t.Err == nil {
			px.noteDMAWait(sp, w)
		}
	}
	if t.Err != nil {
		px.enterCooldown(sp)
		px.stats.FallbackSegments += int64(len(fr.ops))
		px.shipBatchViaRPC(sp, t.Data)
	}
}

// shipBatchViaRPC sends a whole batch frame over the control plane as one
// call (cooldown and post-error fallback).
func (px *Proxy) shipBatchViaRPC(p *sim.Proc, frame *wire.Bufferlist) {
	if _, err := px.rpc.Call(p, opBatchFallback, frame); err != nil {
		panic(fmt.Sprintf("core: batch RPC fallback failed: %v", err))
	}
}

// onTxnDoneBatch handles a coalesced host commit notification: one RPC
// completing many transactions.
func (px *Proxy) onTxnDoneBatch(p *sim.Proc, req rpcchan.Request,
	respond func(*wire.Bufferlist, uint16)) {
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

// notifyLoop is one host-side completion batcher shard (spawned only when
// batching is enabled, one per DMA queue): it drains queued commit
// notifications into opTxnDoneBatch RPCs using the same adaptive
// idle/max-delay policy as the proxy batcher.
func (hs *HostServer) notifyLoop(p *sim.Proc, sh *notifyShard) {
	p.SetThread(hs.thPoll)
	cfg := hs.batch
	// lastN is the size of the previous coalesced RPC. When it was a single
	// entry the shard is in a low-rate regime: waiting IdleDelay for a
	// companion almost never finds one and just adds latency to the commit
	// ack, so flush immediately. The first multi-entry flush (completions
	// arrived back-to-back during the RPC) switches back to accumulating.
	lastN := 0
	for {
		for len(sh.q) == 0 {
			sh.cond.Wait(p)
		}
		deadline := p.Now().Add(cfg.MaxDelay)
		for lastN > 1 && len(sh.q) < notifyMax {
			rem := deadline.Sub(p.Now())
			if rem <= 0 {
				break
			}
			wait := cfg.IdleDelay
			if rem < wait {
				wait = rem
			}
			before := len(sh.q)
			p.Wait(wait)
			if len(sh.q) == before {
				break
			}
		}
		n := len(sh.q)
		if n > notifyMax {
			n = notifyMax
		}
		lastN = n
		frame := encodeTxnDoneBatch(sh.q[:n])
		sh.q = sh.q[:copy(sh.q, sh.q[n:])] // the shard keeps its array
		hs.stats.NotifyBatches++
		hs.rpc.Notify(p, opTxnDoneBatch, frame)
	}
}
