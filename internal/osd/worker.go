package osd

import (
	"errors"

	"doceph/internal/cephmsg"
	"doceph/internal/objstore"
	"doceph/internal/sim"
	"doceph/internal/trace"
)

// worker is one tp_osd_tp thread as a task chain over its op-queue shard
// (Queue.ServeTask). A turn takes one item of the shard — a client op, a
// replica's sub-op, a backfill push or a replica's scrub digest request — and
// runs Figure 2's op pipeline on it: the op's preparation charge, the
// admission gate, the PG lock, the store call (objstore.Store's task forms),
// the charges of the replication sub-ops, the lock's release and the hand-off
// to a finisher — or, for a read, a stat or a digest, the reply. Its steps are
// joined where a proc running the same op blocked, each by the task form of
// that wait, so it fires the proc's events in the same order. Workers serve
// once the PG collections exist (Ceph: a PG serves I/O only after
// creation/peering): createPGs registers them.
type worker struct {
	o  *OSD
	th *sim.Thread
	// done is the served identity, run when a turn is over.
	done sim.Task
}

// serve starts a turn on it, the served identity's body, on a record from the
// partition's free list: a worker holds none between turns.
func (w *worker) serve(it opItem) {
	t := w.o.pools.turns.Get()
	t.w, t.it = w, it
	t.Run()
}

// turn is one item on its way through a worker: the item, the step it is at,
// the op's store call and the state a step hands the next.
type turn struct {
	w    *worker
	it   opItem
	step workStep
	// call is the op's store call and busy the last charge.
	call objstore.Call
	busy sim.Duration
	// pg and acting are a client op's placement and lock the PG lock the op
	// takes. A mutation has its record in mu and the index in acting of the
	// secondary whose sub-op is next in rep; a sub-op has its record in ra.
	// reply is a read's, commitSp its commit span.
	pg       uint32
	acting   []int32
	lock     *sim.Semaphore
	mu       *mutation
	rep      int
	ra       *repApply
	reply    *cephmsg.MOSDOpReply
	commitSp trace.SpanID
	// fin is a push's finisher, taken before its store call.
	fin *finisher
}

// workStep is what a worker's next step does.
type workStep uint8

const (
	workStart          workStep = iota // take the item: its charge, or its lock
	workPrepped                        // a client op's preparation is paid for: admit it
	workMutationLocked                 // a mutation holds its PG lock: queue its transaction
	workMutationQueued                 // the transaction is queued: the sub-ops
	workRep                            // charge the next secondary's sub-op, or hand off
	workRepCharged                     // the sub-op is paid for: send it
	workReadLocked                     // a read holds its PG lock: read
	workRead                           // the data is in: charge the finish
	workReadCharged                    // the finish is paid for: answer
	workStat                           // the stat is in: answer
	workSubPrepped                     // a sub-op's preparation is paid for: lock
	workSubLocked                      // the sub-op holds its PG lock: queue its transaction
	workSubQueued                      // the transaction is queued: hand off
	workPushPrepped                    // a push's preparation is paid for: lock
	workPushLocked                     // the push holds its PG lock: is the object there?
	workPushChecked                    // the lookup is answered
	workPushWrite                      // queue the pushed object's transaction
	workPushQueued                     // the transaction is queued: hand off
	workScrubLocked                    // a digest request holds its PG lock: read
	workScrubRead                      // the object is read: answer
)

// Run is the turn's next step.
func (t *turn) Run() {
	o, th := t.w.o, t.w.th
	for {
		switch t.step {
		case workStart:
			if t.it.span != 0 {
				o.tr.AddQueueWait(t.it.span, o.env.Now().Sub(t.it.enq))
			}
			switch m := t.it.msg.(type) {
			case *cephmsg.MOSDOp:
				t.step = workPrepped
				if o.cpu.ExecThen(th, o.cfg.OpPrepCycles, &t.busy, t) {
					return
				}
			case *cephmsg.MRepOp:
				t.step = workSubPrepped
				if o.cpu.ExecThen(th, o.cfg.OpPrepCycles, &t.busy, t) {
					return
				}
			case *cephmsg.MPGPush:
				t.step = workPushPrepped
				if o.cpu.ExecThen(th, o.cfg.OpPrepCycles, nil, t) {
					return
				}
			case *cephmsg.MScrub:
				if t.acquire(m.PGID, workScrubLocked) {
					return
				}
			}
		case workPrepped:
			m := t.it.msg.(*cephmsg.MOSDOp)
			o.tr.AddCPU(t.it.span, o.cpu.Name(), t.busy)
			var res int32
			t.pg, t.acting, res = o.admit(m)
			if res != cephmsg.ResOK {
				o.reject(t.it.src, m, t.it.span, res)
				t.end()
				return
			}
			switch m.Op {
			case cephmsg.OpWrite, cephmsg.OpDelete:
				if t.acquire(t.pg, workMutationLocked) {
					return
				}
			case cephmsg.OpRead:
				if t.acquire(t.pg, workReadLocked) {
					return
				}
			case cephmsg.OpStat:
				t.call.Coll, t.call.Object = pgColl(t.pg), m.Object
				t.step = workStat
				if o.store.StatThen(th, &t.call, t) {
					return
				}
			default:
				t.end()
				return
			}
		case workMutationLocked:
			// The replicated write path of every mutating op (write, delete):
			// local commit via the ObjectStore plus one MRepOp per secondary;
			// the client ack is withheld until every part is durable.
			m, sp := t.it.msg.(*cephmsg.MOSDOp), t.it.span
			mu := newMutation(t.it.src, m, sp, len(t.acting)-1)
			mutationTxn(&mu.txn, pgColl(t.pg), m.Op, m.Object, m.Offset, m.Data)
			if m.Op != cephmsg.OpDelete {
				// A delete creates nothing: in a PG with no collection yet it
				// has to find nothing, not make one.
				o.ensureColl(t.pg, &mu.txn)
			}
			if sp != 0 {
				mu.commitSp = o.tr.Start(sp, 0, trace.StageCommit, m.Object)
				mu.txn.TraceCtx = uint64(mu.commitSp)
				o.tr.AddBytes(mu.commitSp, mu.txn.DataBytes())
			}
			t.mu, t.call.Txn, t.call.Result, t.step = mu, &mu.txn, &mu.res, workMutationQueued
			if o.store.QueueTransactionThen(th, &t.call, t) {
				return
			}
		case workMutationQueued:
			mu, m := t.mu, t.it.msg.(*cephmsg.MOSDOp)
			if t.it.span != 0 {
				mu.repSp = o.tr.Start(t.it.span, 0, trace.StageReplication, m.Object)
			}
			t.rep, t.step = 1, workRep
		case workRep:
			if t.rep < len(t.acting) {
				t.step = workRepCharged
				if o.cpu.ExecThen(th, o.cfg.RepPrepCycles, &t.busy, t) {
					return
				}
				continue
			}
			mu, m := t.mu, t.it.msg.(*cephmsg.MOSDOp)
			t.lock.Release(1)
			if m.Op == cephmsg.OpDelete {
				o.stats.ClientDeletes++
			} else {
				o.stats.ClientWrites++
			}
			if m.Op == cephmsg.OpWrite {
				o.stats.BytesWritten += int64(m.Data.Length())
			}
			o.nextRec++
			o.mutations[o.nextRec] = mu
			o.finish(finisher{id: o.nextRec, res: &mu.res, mu: mu})
			t.end()
			return
		case workRepCharged:
			o.tr.AddCPU(t.mu.repSp, o.cpu.Name(), t.busy)
			sec := t.acting[t.rep]
			o.msgr.Send(Name(sec), o.stampRep(t.mu, sec, subOp(t.it.msg.(*cephmsg.MOSDOp), t.pg, t.mu.repSp), false))
			t.rep, t.step = t.rep+1, workRep
		case workReadLocked:
			m := t.it.msg.(*cephmsg.MOSDOp)
			if t.it.span != 0 {
				t.commitSp = o.tr.Start(t.it.span, 0, trace.StageCommit, m.Object)
			}
			t.call.Coll, t.call.Object, t.call.Off, t.call.Length = pgColl(t.pg), m.Object, m.Offset, m.Length
			t.step = workRead
			if o.store.ReadThen(th, &t.call, t) {
				return
			}
		case workRead:
			m := t.it.msg.(*cephmsg.MOSDOp)
			o.tr.Finish(t.commitSp)
			t.lock.Release(1)
			t.reply = &cephmsg.MOSDOpReply{Tid: m.Tid, Object: m.Object, Op: m.Op, TraceCtx: m.TraceCtx}
			if bl, err := t.call.Data, t.call.Err; err != nil {
				t.reply.Result = missingOrError(err)
			} else {
				t.reply.Data = bl
				o.stats.BytesRead += int64(bl.Length())
				o.tr.AddBytes(t.commitSp, int64(bl.Length()))
			}
			o.stats.ClientReads++
			t.step = workReadCharged
			if o.cpu.ExecThen(th, o.cfg.FinishCycles, &t.busy, t) {
				return
			}
		case workReadCharged:
			o.tr.AddCPU(t.it.span, o.cpu.Name(), t.busy)
			o.msgr.Send(t.it.src, t.reply)
			o.tr.Finish(t.it.span)
			t.end()
			return
		case workStat:
			m := t.it.msg.(*cephmsg.MOSDOp)
			reply := &cephmsg.MOSDOpReply{Tid: m.Tid, Object: m.Object, Op: m.Op, TraceCtx: m.TraceCtx}
			if err := t.call.Err; err != nil {
				reply.Result = missingOrError(err)
			} else {
				reply.Size = t.call.Stat.Size
				reply.Version = t.call.Stat.Version
			}
			o.stats.ClientStats++
			o.msgr.Send(t.it.src, reply)
			o.tr.Finish(t.it.span)
			t.end()
			return
		case workSubPrepped:
			// A replicated sub-op on a secondary: applied, and acked once
			// durable.
			o.tr.AddCPU(t.it.span, o.cpu.Name(), t.busy)
			if t.acquire(t.it.msg.(*cephmsg.MRepOp).PGID, workSubLocked) {
				return
			}
		case workSubLocked:
			m, sp := t.it.msg.(*cephmsg.MRepOp), t.it.span
			ra := &repApply{src: t.it.src, m: m, sp: sp}
			ra.txn.Ops = ra.ops[:0]
			mutationTxn(&ra.txn, pgColl(m.PGID), m.Op, m.Object, m.Offset, m.Data)
			o.ensureColl(m.PGID, &ra.txn)
			if sp != 0 {
				ra.commitSp = o.tr.Start(sp, 0, trace.StageCommit, m.Object)
				ra.txn.TraceCtx = uint64(ra.commitSp)
				o.tr.AddBytes(ra.commitSp, ra.txn.DataBytes())
			}
			t.ra, t.call.Txn, t.call.Result, t.step = ra, &ra.txn, &ra.res, workSubQueued
			if o.store.QueueTransactionThen(th, &t.call, t) {
				return
			}
		case workSubQueued:
			ra := t.ra
			t.lock.Release(1)
			o.stats.RepOpsServed++
			if ra.m.Data != nil {
				o.stats.BytesWritten += int64(ra.m.Data.Length())
			}
			o.nextRec++
			o.repApplies[o.nextRec] = ra
			o.finish(finisher{id: o.nextRec, res: &ra.res, ra: ra})
			t.end()
			return
		case workPushPrepped:
			// A pushed object on the backfill target.
			if t.acquire(t.it.msg.(*cephmsg.MPGPush).PGID, workPushLocked) {
				return
			}
		case workPushLocked:
			m := t.it.msg.(*cephmsg.MPGPush)
			t.step = workPushWrite
			if !m.Force {
				t.call.Coll, t.call.Object = pgColl(m.PGID), m.Object
				t.step = workPushChecked
				if o.store.ExistsThen(th, &t.call, t) {
					return
				}
			}
		case workPushChecked:
			t.step = workPushWrite
			if m := t.it.msg.(*cephmsg.MPGPush); t.call.Exists {
				// A newer copy arrived through the client replication path.
				t.lock.Release(1)
				o.msgr.Send(t.it.src, &cephmsg.MPGPushAck{Tid: m.Tid, PGID: m.PGID, Object: m.Object})
				t.end()
				return
			}
		case workPushWrite:
			m := t.it.msg.(*cephmsg.MPGPush)
			txn := objstore.NewTransaction().Write(pgColl(m.PGID), m.Object, 0, m.Data)
			o.ensureColl(m.PGID, txn)
			// The push's finisher is taken now: its Result is the one the
			// store completes.
			t.fin = o.pools.fins.Get()
			t.fin.res = &t.fin.pushRes
			t.call.Txn, t.call.Result, t.step = txn, t.fin.res, workPushQueued
			if o.store.QueueTransactionThen(th, &t.call, t) {
				return
			}
		case workPushQueued:
			t.lock.Release(1)
			o.stats.PushesServed++
			t.fin.push, t.fin.src = t.it.msg.(*cephmsg.MPGPush), t.it.src
			t.fin.start(o)
			t.end()
			return
		case workScrubLocked:
			m := t.it.msg.(*cephmsg.MScrub)
			t.call.Coll, t.call.Object = pgColl(m.PGID), m.Object
			t.step = workScrubRead
			if o.store.ReadThen(th, &t.call, t) {
				return
			}
		case workScrubRead:
			// A digest request on a replica.
			m := t.it.msg.(*cephmsg.MScrub)
			t.lock.Release(1)
			reply := &cephmsg.MScrubReply{Tid: m.Tid, PGID: m.PGID, Object: m.Object}
			if bl := t.call.Data; t.call.Err == nil {
				reply.Exists = true
				reply.CRC = bl.CRC32C()
				reply.Size = uint64(bl.Length())
			}
			o.stats.ScrubsServed++
			o.msgr.Send(t.it.src, reply)
			t.end()
			return
		}
	}
}

// acquire takes the PG lock of pg and goes on to step; it reports whether the
// chain waits for the lock.
func (t *turn) acquire(pg uint32, step workStep) bool {
	t.lock, t.step = t.w.o.pgLock(pg), step
	return t.lock.AcquireThen(1, t)
}

// end puts the turn's record back and hands the identity back; nothing of the
// turn may be touched after it, as the next may already have begun on it.
func (t *turn) end() {
	wk := t.w
	wk.o.pools.turns.Put(t)
	wk.done.Run()
}

// String names the turn in deadlock reports, by its worker.
func (t *turn) String() string { return t.w.th.Name }

// missingOrError is the reply code of a read or stat the store failed with
// err: the object, or its PG's collection, does not exist — or the store
// could not answer, which the client must not take for a missing object.
func missingOrError(err error) int32 {
	if errors.Is(err, objstore.ErrNotFound) || errors.Is(err, objstore.ErrNoCollection) {
		return cephmsg.ResNotFound
	}
	return cephmsg.ResError
}
