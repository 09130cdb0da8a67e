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

// streamIngest is one incoming write stream on its OSD, in one allocation
// with the messenger's half of it: the InStream and its queue, the chunk
// table, the forwarding streams (in a slot for the one secondary of a
// two-replica write) and a replica's ack. The table is sized from the open
// frame; a stream cut finer than that grows it by append, which leaves the
// entries already handed to the store and the kernel where they are.
type streamIngest struct {
	in      messenger.InStream
	o       *OSD
	chunks  []streamChunk
	reps    []*messenger.OutStream
	repSlot [1]*messenger.OutStream
	reply   cephmsg.MRepOpReply
}

// streamChunk is one chunk of a stream on its OSD: its store transaction over
// its op slot, the result and the credit frame. It is also the task that
// sends that credit once the commit is durable.
type streamChunk struct {
	st     *streamIngest
	span   trace.SpanID
	res    *objstore.Result
	txn    objstore.Transaction
	ops    [1]objstore.Op
	credit cephmsg.MStreamCredit
}

// Run closes the chunk's stage span and returns its credit.
func (c *streamChunk) Run() {
	c.st.o.tr.Finish(c.span)
	c.st.in.Credit(&c.credit)
}

// next appends a table entry and returns it.
func (st *streamIngest) next() *streamChunk {
	st.chunks = append(st.chunks, streamChunk{st: st})
	return &st.chunks[len(st.chunks)-1]
}

// OpenStream implements messenger.StreamSink: accept incoming write
// streams (client ops on the primary, rep-ops on replicas) for incremental
// ingest. Anything else falls back to messenger-side reassembly. Runs on a
// msgr-worker thread, so it only files the record, spawns and returns.
func (o *OSD) OpenStream(src string, open *cephmsg.MStreamOpen) *messenger.InStream {
	if o.failed {
		return nil // reassembly path dispatches into the dead-socket drop
	}
	prefix := "stream-ingest:"
	switch m := open.Inner.(type) {
	case *cephmsg.MOSDOp:
		if m.Op != cephmsg.OpWrite {
			return nil
		}
	case *cephmsg.MRepOp:
		if m.Op != cephmsg.OpWrite {
			return nil
		}
		prefix = "rep-stream-ingest:"
	default:
		return nil
	}
	st := &streamIngest{o: o, chunks: make([]streamChunk, 0, (open.Total+open.ChunkBytes-1)/open.ChunkBytes)}
	if o.streams == nil {
		o.streams, o.ingestBody = make(map[uint64]*streamIngest), o.ingestStream
	}
	o.nextRec++
	o.streams[o.nextRec] = st
	o.env.SpawnID(prefix, o.nextRec, o.ingestBody)
	return &st.in
}

// ingestStream is the body of every stream-ingest proc: it ingests the stream
// its id names on a thread of its own (the CPU tells threads apart by
// pointer, so each stream's is distinct, as its proc is).
func (o *OSD) ingestStream(p *sim.Proc) {
	st := o.streams[p.ID()]
	delete(o.streams, p.ID())
	switch m := st.in.Open().Inner.(type) {
	case *cephmsg.MOSDOp:
		p.SetThread(sim.NewThread("stream-ingest", ThreadCat))
		o.ingestClientStream(p, st, m)
	case *cephmsg.MRepOp:
		p.SetThread(sim.NewThread("rep-stream-ingest", ThreadCat))
		o.ingestRepStream(p, st, m)
	}
}

// drain consumes and discards the rest of a stream, crediting every chunk so
// the sender finishes promptly (used when the op is rejected before ingest
// starts).
func (st *streamIngest) drain(p *sim.Proc) {
	for {
		_, done, aborted := st.in.Next(p)
		if done || aborted {
			return
		}
		st.in.Credit(&st.next().credit)
	}
}

// ingestChunk commits one arriving chunk: a per-chunk transaction against
// the backing store under the PG lock, with a stream.stage span open until
// the commit is durable, at which point the chunk's flow-control credit
// goes back upstream.
func (st *streamIngest) ingestChunk(p *sim.Proc, sp trace.SpanID,
	pg uint32, object string, off uint64, chunk *wire.Bufferlist) {
	o := st.o
	c := st.next()
	if sp != 0 {
		c.span = o.tr.Start(sp, 0, trace.StageStreamStage, object)
		o.tr.AddBytes(c.span, int64(chunk.Length()))
	}
	lock := o.pgLock(pg)
	lock.Acquire(p, 1)
	c.txn.Ops = c.ops[:0]
	c.txn.Write(pgColl(pg), object, off, chunk)
	// Chunks of one stream reuse the pre-registered staging regions, so
	// the DPU's DMA engine amortizes descriptor setup across them.
	c.txn.StreamReuse = true
	o.ensureColl(pg, &c.txn)
	c.txn.TraceCtx = uint64(c.span)
	c.res = o.store.QueueTransaction(p, &c.txn)
	lock.Release(1)
	o.env.After(&c.res.Done, c)
}

// ingestChunks is the loop both stream feeders run: commit each arriving
// chunk, forward it to the record's reps (none on a replica), advance. It
// returns the bytes ingested and whether the sender tore the stream down
// mid-flight.
func (st *streamIngest) ingestChunks(p *sim.Proc, sp trace.SpanID, pg uint32,
	object string, off uint64) (total int64, aborted bool) {
	for {
		chunk, done, ab := st.in.Next(p)
		if done || ab {
			return total, ab
		}
		st.ingestChunk(p, sp, pg, object, off, chunk)
		// Forward before accepting the next chunk; a saturated replica
		// window blocks here, propagating its backpressure to the client.
		for _, r := range st.reps {
			r.Write(p, chunk)
		}
		n := int64(chunk.Length())
		off += uint64(n)
		total += n
	}
}

// awaitCommits is the end-of-stream barrier: every chunk durable. It reports
// whether any chunk's commit failed.
func (st *streamIngest) awaitCommits(p *sim.Proc) (anyErr bool) {
	for i := range st.chunks {
		res := st.chunks[i].res
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
func (o *OSD) ingestClientStream(p *sim.Proc, st *streamIngest, m *cephmsg.MOSDOp) {
	src := st.in.Src()
	o.ready.Wait(p)
	var sp trace.SpanID
	if o.tr.Enabled() && m.TraceCtx != 0 {
		sp = o.tr.Start(trace.SpanID(m.TraceCtx), 0, trace.StageOSDOp, m.Object)
	}
	o.tr.AddCPU(sp, o.cpu.Name(), o.cpu.ExecSelf(p, o.cfg.OpPrepCycles))
	pg, acting, res := o.admit(m)
	if res != cephmsg.ResOK {
		// Credit the whole stream first, so the client's pump finishes.
		st.drain(p)
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
	st.reps = st.repSlot[:0]
	sub := subOp(m, pg, mu.repSp)
	for _, sec := range acting[1:] {
		st.reps = append(st.reps, o.msgr.OpenStream(Name(sec), o.registerRep(p, mu, sec, sub, true), st.in.Open().Total))
	}

	total, aborted := st.ingestChunks(p, sp, pg, m.Object, m.Offset)
	if aborted {
		for _, r := range st.reps {
			r.Abort(p)
		}
		for _, tid := range mu.tids {
			o.completeRep(tid)
		}
		o.tr.Finish(mu.repSp)
		o.reject(src, m, sp, cephmsg.ResError)
		return
	}
	for _, r := range st.reps {
		r.Close(p)
	}
	o.completeMutation(p, mu, st.awaitCommits(p))
	o.stats.ClientWrites++
	o.stats.BytesWritten += total
}

// ingestRepStream is the replica's per-stream ingest: chunk-granular
// commit, one ack once the whole stream is durable.
func (o *OSD) ingestRepStream(p *sim.Proc, st *streamIngest, m *cephmsg.MRepOp) {
	o.ready.Wait(p)
	var sp trace.SpanID
	if o.tr.Enabled() && m.TraceCtx != 0 {
		sp = o.tr.Start(trace.SpanID(m.TraceCtx), 0, trace.StageRepOp, m.Object)
	}
	o.tr.AddCPU(sp, o.cpu.Name(), o.cpu.ExecSelf(p, o.cfg.OpPrepCycles))
	total, aborted := st.ingestChunks(p, sp, m.PGID, m.Object, m.Offset)
	st.awaitCommits(p)
	o.stats.RepOpsServed++
	o.stats.BytesWritten += total
	o.tr.AddCPU(sp, o.cpu.Name(), o.cpu.ExecSelf(p, o.cfg.FinishCycles))
	if !aborted {
		// The primary aborts its wait on its own timeout if we never ack.
		st.reply = cephmsg.MRepOpReply{Tid: m.Tid, PGID: m.PGID, TraceCtx: m.TraceCtx}
		o.msgr.Send(st.in.Src(), &st.reply)
	}
	o.tr.Finish(sp)
}
