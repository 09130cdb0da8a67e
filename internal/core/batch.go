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

// batchOp is one transaction waiting in the proxy's batch queue.
type batchOp struct {
	reqID   uint64
	txnSeq  uint64
	payload *wire.Bufferlist
	ctx     trace.SpanID
	enq     sim.Time
}

// enqueueBatch files an eligible transaction with the batcher; the batch
// daemon ships it. Completion still arrives per op via pendingTxns.
func (px *Proxy) enqueueBatch(p *sim.Proc, op *batchOp) {
	op.enq = p.Now()
	px.batchQ = append(px.batchQ, op)
	px.batchBytes += int64(op.payload.Length())
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
	take := make([]*batchOp, 0, len(px.batchQ))
	var bytes int64
	for len(px.batchQ) > 0 {
		op := px.batchQ[0]
		n := int64(op.payload.Length())
		if len(take) > 0 && (bytes+n > cfg.MaxBatchBytes || len(take) >= maxOpsPerFrame) {
			break
		}
		take = append(take, op)
		bytes += n
		// Clear the slot before stepping past it, or the backing array keeps
		// every shipped op and its payload view reachable until it regrows.
		px.batchQ[0] = nil
		px.batchQ = px.batchQ[1:]
	}
	px.batchBytes -= bytes
	px.stats.BatchFlushes++
	px.stats.BatchedTxns += int64(len(take))

	if !px.dmaAllowed(p) {
		px.stats.FallbackTxns += int64(len(take))
		px.shipBatchViaRPC(p, take)
		return
	}
	px.stats.DataPlaneTxns += int64(len(take))

	// One staging pass: the whole frame is memcpy'd into a single
	// DMA-capable buffer. The per-op copy cost is unchanged (staging is
	// linear in bytes); what the batch removes is the per-op setup.
	px.dev.Buffers.Acquire(p)
	px.noteStage(bytes)
	px.ensureRegions(p)
	for _, op := range take {
		n := int64(op.payload.Length())
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
	frame := encodeBatchFrame(take)
	wireBytes := int64(frame.Length())
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
	ctxs := make([]uint64, len(take))
	spans := make([]trace.SpanID, len(take))
	for i, op := range take {
		ctxs[i] = uint64(op.ctx)
		if op.ctx != 0 {
			spans[i] = px.tr.Start(op.ctx, 0, dmaStage, px.dev.Name)
			px.tr.AddBytes(spans[i], int64(op.payload.Length()))
		}
	}
	// Batch frames always move from the pre-registered staging pool into
	// the fixed host region: consecutive frames on a queue reuse the
	// established MRs/descriptors instead of a full setup (§3.3).
	t := &doca.Transfer{
		ReqID: batchID, TotalSegs: 1, Bytes: wireBytes, Data: frame, Ops: len(take),
		Src: px.dpuMR, Dst: px.hostMR, ReuseSetup: true, Queue: qpin,
		Tag: &segHeader{kind: segTxnBatch, reqID: batchID, total: 1, batchCtxs: ctxs},
	}
	dmaStart := p.Now()
	px.batchInflight++
	if err := px.engUp.Submit(p, px.dev.CPU, t); err != nil {
		px.batchInflight--
		for _, sp := range spans {
			px.tr.Finish(sp)
		}
		px.dev.Buffers.Release()
		px.noteUnstage(bytes)
		px.enterCooldown(p)
		px.stats.FallbackSegments += int64(len(take))
		px.shipBatchViaRPC(p, take)
		return
	}
	// Settle accounting when the engine finishes; the batcher keeps
	// accumulating the next batch meanwhile (staging/transfer overlap).
	px.env.SpawnID("proxy-batch-dma:", batchID, func(sp *sim.Proc) {
		sp.SetThread(px.thBatch)
		t.Done.Wait(sp)
		px.batchInflight--
		px.batchCond.Broadcast()
		for _, s := range spans {
			px.tr.Finish(s)
		}
		px.dev.Buffers.Release()
		px.noteUnstage(bytes)
		px.breakdown.DMA += t.CopyTime()
		if w := t.CompletedAt.Sub(dmaStart) - t.CopyTime(); w > 0 {
			px.breakdown.DMAWait += w
			if t.Err == nil {
				px.noteDMAWait(sp, w)
			}
		}
		if t.Err != nil {
			px.enterCooldown(sp)
			px.stats.FallbackSegments += int64(len(take))
			px.shipBatchViaRPC(sp, take)
		}
	})
}

// shipBatchViaRPC sends a whole batch frame over the control plane as one
// call (cooldown and post-error fallback).
func (px *Proxy) shipBatchViaRPC(p *sim.Proc, ops []*batchOp) {
	if _, err := px.rpc.Call(p, opBatchFallback, encodeBatchFrame(ops)); err != nil {
		panic(fmt.Sprintf("core: batch RPC fallback failed: %v", err))
	}
}

// onTxnDoneBatch handles a coalesced host commit notification: one RPC
// completing many transactions.
func (px *Proxy) onTxnDoneBatch(p *sim.Proc, req rpcchan.Request,
	respond func(*wire.Bufferlist, uint16)) {
	respond(nil, 0) // notify: no-op
	entries, err := decodeTxnDoneBatch(req.Payload)
	if err != nil {
		panic("core: corrupt batched txn-done notification")
	}
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
		sh.q = sh.q[n:]
		hs.stats.NotifyBatches++
		hs.rpc.Notify(p, opTxnDoneBatch, frame)
	}
}
