package osd

import (
	"fmt"

	"doceph/internal/cephmsg"
	"doceph/internal/objstore"
	"doceph/internal/sim"
)

// finisher is the fn_osd thread completing one op, as a task chain. It starts
// in an event of its own (OSD.finish) and waits for the op's local commit.
// Then:
//   - a client mutation (mu) waits for its replicas' acks in rounds of
//     repOpTimeout (Event.WaitTimeoutThen), with repTimedOut between them,
//     charges FinishCycles and answers the client (replyMutation);
//   - a replica's sub-op (ra) and a backfill push (push) charge FinishCycles
//     and ack, to the primary or to the pusher, with an error if the commit
//     failed (a sub-op's delete that found nothing: ResNotFound).
//
// Finishers come from the partition's free list (sim.Local) and go back
// zeroed once the reply is sent, so the chain allocates nothing per op.
type finisher struct {
	o *OSD
	// id numbers the op in deadlock reports (none for a push); res is its
	// local commit: the mutation's or the sub-op's Result, or for a push
	// pushRes, which the push's store call names before the finisher starts.
	id      uint64
	res     *objstore.Result
	pushRes objstore.Result
	// Exactly one of mu, ra and push is set; src is the push's sender.
	mu   *mutation
	ra   *repApply
	push *cephmsg.MPGPush
	src  string
	step finishStep
	// try is the round of the replicas' wait under way; aborted is set when
	// the last one ran out. busy is the finish charge's busy time.
	try     int
	aborted bool
	busy    sim.Duration
}

// finishStep is what a finisher's next step does.
type finishStep uint8

const (
	finishStart     finishStep = iota // the chain's first event: wait for the local commit
	finishCommitted                   // the commit is durable: wait for the replicas, or charge
	finishRound                       // a round of the replicas' wait is over
	finishCharged                     // FinishCycles are paid: answer
)

// finish starts the chain of a finisher like f on a record from the free list,
// in an event of its own, as a thread spawned now would start.
func (o *OSD) finish(f finisher) {
	r := o.fins.Get()
	*r = f
	r.start(o)
}

// start runs f's chain on o, in an event of its own.
func (f *finisher) start(o *OSD) {
	f.o = o
	o.env.Delay(0, f)
}

// Run is the finisher's next step.
func (f *finisher) Run() {
	o := f.o
	for {
		switch f.step {
		case finishStart:
			f.step = finishCommitted
			if f.res.Done.WaitThen(o.env, f) {
				return
			}
		case finishCommitted:
			switch {
			case f.mu != nil:
				o.tr.Finish(f.mu.commitSp)
				f.step = finishRound
				if f.mu.pend.ev.WaitTimeoutThen(o.env, repOpTimeout, f) {
					return
				}
				continue
			case f.ra != nil:
				o.tr.Finish(f.ra.commitSp)
			}
			if f.charge() {
				return
			}
		case finishRound:
			// Nothing ran between the round's end and this step, so the event
			// has fired exactly if the acks came in time.
			mu := f.mu
			if !mu.pend.ev.Fired() {
				if o.repTimedOut(mu, f.try) {
					f.try++
					if mu.pend.ev.WaitTimeoutThen(o.env, repOpTimeout, f) {
						return
					}
					continue
				}
				f.aborted = true
			}
			o.tr.Finish(mu.repSp)
			if f.charge() {
				return
			}
		case finishCharged:
			f.answer()
			o.fins.Put(f)
			return
		}
	}
}

// charge runs FinishCycles on fn_osd and reports whether the chain waits for
// the burst to end.
func (f *finisher) charge() bool {
	f.step = finishCharged
	return f.o.cpu.ExecThen(f.o.thFin, f.o.cfg.FinishCycles, &f.busy, f)
}

// answer sends the op's reply and retires its record.
func (f *finisher) answer() {
	o := f.o
	switch {
	case f.mu != nil:
		o.tr.AddCPU(f.mu.sp, o.cpu.Name(), f.busy)
		o.replyMutation(f.mu, f.res.Err != nil, !f.aborted)
		o.retire(f.mu)
		o.mutations--
	case f.ra != nil:
		ra := f.ra
		o.tr.AddCPU(ra.sp, o.cpu.Name(), f.busy)
		// The ack parents to the primary's replication span, which is still
		// open until every replica has answered.
		m := ra.m
		ra.reply = cephmsg.MRepOpReply{Tid: m.Tid, PGID: m.PGID, TraceCtx: m.TraceCtx}
		if f.res.Err != nil {
			ra.reply.Result = missingOrError(f.res.Err)
		}
		if o.failed {
			o.applies.Abandon(sim.Crashed)
		}
		ra.reply.Owner = o.lend(ra)
		o.msgr.Send(ra.src, &ra.reply)
		o.tr.Finish(ra.sp)
		o.repApplies--
	default:
		m := f.push
		result := cephmsg.ResOK
		if f.res.Err != nil {
			result = cephmsg.ResError
		}
		o.msgr.Send(f.src, &cephmsg.MPGPushAck{
			Tid: m.Tid, PGID: m.PGID, Object: m.Object, Result: result,
		})
	}
}

// String names the finisher in deadlock reports, by the op it completes.
func (f *finisher) String() string {
	switch {
	case f.mu != nil:
		return fmt.Sprintf("completer:%s/%d", f.o.name, f.id)
	case f.ra != nil:
		return fmt.Sprintf("rep-completer:%s/%d", f.o.name, f.id)
	}
	return fmt.Sprintf("push-completer:%s/%d", f.o.name, f.push.Tid)
}
