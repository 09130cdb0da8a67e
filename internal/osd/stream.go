// Streaming write ingest: the OSD registers as the messenger's StreamSink
// so large writes arrive chunk by chunk instead of as one reassembled
// message. A dedicated ingest process per stream commits each chunk to the
// object store and forwards it down the replica fan-out as it arrives —
// replication and BlueStore ingest start on the first chunk, not after the
// whole object has landed — and flow-control credits are returned only
// when a chunk's local commit is durable, so in-flight data at this hop is
// bounded by the sender's credit window.
//
// Ingest runs on dedicated processes rather than tp_osd_tp workers on
// purpose: a worker blocked on a replica's credit window while that
// replica's own workers wait on credits from us would deadlock the pool;
// per-stream processes keep the worker pool free for regular ops.

package osd

import (
	"doceph/internal/cephmsg"
	"doceph/internal/messenger"
	"doceph/internal/objstore"
	"doceph/internal/sim"
	"doceph/internal/trace"
	"doceph/internal/wire"
)

// OpenStream implements messenger.StreamSink: accept incoming write
// streams (client ops on the primary, rep-ops on replicas) for incremental
// ingest. Anything else falls back to messenger-side reassembly. Runs on a
// msgr-worker thread, so it only spawns and returns.
func (o *OSD) OpenStream(src string, in *messenger.InStream) bool {
	if o.failed {
		return false // reassembly path dispatches into the dead-socket drop
	}
	open := in.Open()
	switch m := open.Inner.(type) {
	case *cephmsg.MOSDOp:
		if m.Op != cephmsg.OpWrite {
			return false
		}
		o.env.SpawnID("stream-ingest:", open.StreamID, func(p *sim.Proc) {
			p.SetThread(sim.NewThread("stream-ingest", ThreadCat))
			o.ingestClientStream(p, src, m, in)
		})
		return true
	case *cephmsg.MRepOp:
		if m.Op != cephmsg.OpWrite {
			return false
		}
		o.env.SpawnID("rep-stream-ingest:", open.StreamID, func(p *sim.Proc) {
			p.SetThread(sim.NewThread("rep-stream-ingest", ThreadCat))
			o.ingestRepStream(p, src, m, in)
		})
		return true
	}
	return false
}

// drainStream consumes and discards the rest of a stream, crediting every
// chunk so the sender finishes promptly (used when the op is rejected
// before ingest starts).
func (o *OSD) drainStream(p *sim.Proc, in *messenger.InStream) {
	for {
		_, done, aborted := in.Next(p)
		if done || aborted {
			return
		}
		in.Credit(1)
	}
}

// ingestChunk commits one arriving chunk: a per-chunk transaction against
// the backing store under the PG lock, with a stream.stage span open until
// the commit is durable, at which point the chunk's flow-control credit
// goes back upstream. Returns the store result for the end-of-stream
// barrier.
func (o *OSD) ingestChunk(p *sim.Proc, in *messenger.InStream, sp trace.SpanID,
	pg uint32, object string, off uint64, chunk *wire.Bufferlist) *objstore.Result {
	n := int64(chunk.Length())
	var csp trace.SpanID
	if sp != 0 {
		csp = o.tr.Start(sp, 0, trace.StageStreamStage, object)
		o.tr.AddBytes(csp, n)
	}
	lock := o.pgLock(pg)
	lock.Acquire(p, 1)
	txn := objstore.NewTransaction().Write(pgColl(pg), object, off, chunk)
	// Chunks of one stream reuse the pre-registered staging regions, so
	// the DPU's DMA engine amortizes descriptor setup across them.
	txn.StreamReuse = true
	o.ensureColl(pg, txn)
	if csp != 0 {
		txn.TraceCtx = uint64(csp)
	}
	res := o.store.QueueTransaction(p, txn)
	lock.Release(1)
	o.env.After(&res.Done, &chunkCommit{tr: o.tr, span: csp, in: in})
	return res
}

// chunkCommit is the task that closes a chunk's stage span and returns its
// credit once the chunk's commit is durable.
type chunkCommit struct {
	tr   *trace.Tracer
	span trace.SpanID
	in   *messenger.InStream
}

func (c *chunkCommit) Run() {
	c.tr.Finish(c.span)
	c.in.Credit(1)
}

// ingestChunks is the loop both stream feeders run: commit each arriving
// chunk, forward it to reps (none on a replica), advance. It returns the
// chunks' store results for the end-of-stream barrier, the bytes ingested and
// whether the sender tore the stream down mid-flight.
func (o *OSD) ingestChunks(p *sim.Proc, in *messenger.InStream, sp trace.SpanID, pg uint32,
	object string, off uint64, reps []*messenger.OutStream) (results []*objstore.Result, total int64, aborted bool) {
	open := in.Open()
	results = make([]*objstore.Result, 0, (open.Total+open.ChunkBytes-1)/open.ChunkBytes)
	for {
		chunk, done, ab := in.Next(p)
		if done || ab {
			return results, total, ab
		}
		results = append(results, o.ingestChunk(p, in, sp, pg, object, off, chunk))
		// Forward before accepting the next chunk; a saturated replica
		// window blocks here, propagating its backpressure to the client.
		for _, r := range reps {
			r.Write(p, chunk)
		}
		n := int64(chunk.Length())
		off += uint64(n)
		total += n
	}
}

// awaitCommits is the end-of-stream barrier: every chunk durable. It reports
// whether any chunk's commit failed.
func awaitCommits(p *sim.Proc, results []*objstore.Result) (anyErr bool) {
	for _, res := range results {
		res.Done.Wait(p)
		if res.Err != nil {
			anyErr = true
		}
	}
	return anyErr
}

// ingestClientStream is the primary's per-stream ingest: the admission gate
// of a whole op, chunk-granular local commit + replica fan-out, and the
// completion tail of a whole op once everything is durable.
func (o *OSD) ingestClientStream(p *sim.Proc, src string, m *cephmsg.MOSDOp,
	in *messenger.InStream) {
	o.ready.Wait(p)
	var sp trace.SpanID
	if o.tr.Enabled() && m.TraceCtx != 0 {
		sp = o.tr.Start(trace.SpanID(m.TraceCtx), 0, trace.StageOSDOp, m.Object)
	}
	o.tr.AddCPU(sp, o.cpu.Name(), o.cpu.ExecSelf(p, o.cfg.OpPrepCycles))
	pg, acting, res := o.admit(m)
	if res != cephmsg.ResOK {
		// Credit the whole stream first, so the client's pump finishes.
		o.drainStream(p, in)
		o.reject(src, m, sp, res)
		return
	}
	o.stats.StreamWrites++

	// Open one forwarding stream per secondary before the first chunk, so
	// replica ingest overlaps the client transfer.
	mu := newMutation(src, m, sp, len(acting)-1)
	if sp != 0 {
		mu.repSp = o.tr.Start(sp, 0, trace.StageReplication, m.Object)
	}
	reps := make([]*messenger.OutStream, 0, len(acting)-1)
	sub := subOp(m, pg, mu.repSp)
	for _, sec := range acting[1:] {
		reps = append(reps, o.msgr.OpenStream(Name(sec), o.registerRep(p, mu, sec, sub, true), in.Open().Total))
	}

	results, total, aborted := o.ingestChunks(p, in, sp, pg, m.Object, m.Offset, reps)
	if aborted {
		for _, r := range reps {
			r.Abort(p)
		}
		for _, tid := range mu.tids {
			o.completeRep(tid)
		}
		o.tr.Finish(mu.repSp)
		o.reject(src, m, sp, cephmsg.ResError)
		return
	}
	for _, r := range reps {
		r.Close(p)
	}
	o.completeMutation(p, mu, awaitCommits(p, results))
	o.stats.ClientWrites++
	o.stats.BytesWritten += total
}

// ingestRepStream is the replica's per-stream ingest: chunk-granular
// commit, one ack once the whole stream is durable.
func (o *OSD) ingestRepStream(p *sim.Proc, src string, m *cephmsg.MRepOp,
	in *messenger.InStream) {
	o.ready.Wait(p)
	var sp trace.SpanID
	if o.tr.Enabled() && m.TraceCtx != 0 {
		sp = o.tr.Start(trace.SpanID(m.TraceCtx), 0, trace.StageRepOp, m.Object)
	}
	o.tr.AddCPU(sp, o.cpu.Name(), o.cpu.ExecSelf(p, o.cfg.OpPrepCycles))
	results, total, aborted := o.ingestChunks(p, in, sp, m.PGID, m.Object, m.Offset, nil)
	awaitCommits(p, results)
	o.stats.RepOpsServed++
	o.stats.BytesWritten += total
	o.tr.AddCPU(sp, o.cpu.Name(), o.cpu.ExecSelf(p, o.cfg.FinishCycles))
	if !aborted {
		// The primary aborts its wait on its own timeout if we never ack.
		o.msgr.Send(src, &cephmsg.MRepOpReply{Tid: m.Tid, PGID: m.PGID,
			TraceCtx: m.TraceCtx})
	}
	o.tr.Finish(sp)
}
