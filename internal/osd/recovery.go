package osd

import (
	"fmt"

	"doceph/internal/cephmsg"
	"doceph/internal/objstore"
	"doceph/internal/osdmap"
	"doceph/internal/sim"
	"doceph/internal/trace"
)

// Recovery/backfill: when a map change brings a new OSD into a PG's acting
// set (a rejoined daemon or a rebalance), the surviving replica with the
// data pushes every object of that PG to the newcomers. This is the
// "recovery and rebalancing" coordination traffic the paper's introduction
// attributes to the messenger layer — and in DoCeph mode it exercises the
// full proxy data path in both directions (List/Read on the source, write
// transactions on the target).
//
// Ordering safety: a backfill target only applies a pushed object it does
// not already hold. New writes during recovery land on the target through
// the normal replication path, so an existing object is always at least as
// new as the pushed copy.

// pickBackfill resolves one PG's acting-set transition into the designated
// pusher — the first member of the old set that survives into the new one,
// or -1 when no replica survives (the PG's data is unavailable until a
// holder rejoins; a later map change re-evaluates) — and the push targets:
// new members that do not hold the data. A crashed pusher candidate is never
// selected because a down OSD is absent from the new acting set.
func pickBackfill(oldSet, newSet []int32) (pusher int32, targets []int32) {
	pusher = -1
	inNew := make(map[int32]bool, len(newSet))
	for _, id := range newSet {
		inNew[id] = true
	}
	for _, id := range oldSet {
		if inNew[id] {
			pusher = id
			break
		}
	}
	if pusher == -1 {
		return -1, nil
	}
	inOld := make(map[int32]bool, len(oldSet))
	for _, id := range oldSet {
		inOld[id] = true
	}
	for _, id := range newSet {
		if !inOld[id] && id != pusher {
			targets = append(targets, id)
		}
	}
	return pusher, targets
}

// startRecovery is invoked from applyMap with both epochs; it diffs the
// acting sets and spawns backfill work for every PG where this OSD is the
// designated pusher.
func (o *OSD) startRecovery(oldMap, newMap *osdmap.Map) {
	if o.cfg.DisableRecovery {
		return
	}
	for pg := uint32(0); pg < newMap.PGCount; pg++ {
		pusher, targets := pickBackfill(oldMap.ActingSet(pg), newMap.ActingSet(pg))
		if pusher != o.id || len(targets) == 0 {
			continue
		}
		pgID := pg
		o.env.Spawn(fmt.Sprintf("recovery:%s/pg%d", o.name, pgID), func(p *sim.Proc) {
			o.backfillPG(p, pgID, targets)
		})
	}
}

// recoveryBackoffStep is the pause between watermark re-checks.
const recoveryBackoffStep = 5 * sim.Millisecond

// recoveryBackoff pauses backfill while the foreground op queues sit at or
// above the configured watermark, so client I/O drains first (the
// client-I/O-aware half of recovery QoS). No-op when the knob is off.
func (o *OSD) recoveryBackoff(p *sim.Proc, sp trace.SpanID) {
	wm := o.cfg.RecoveryBackoffDepth
	if wm <= 0 {
		return
	}
	for !o.failed {
		depth := 0
		for _, q := range o.opqs {
			depth += q.Len()
		}
		if depth < wm {
			return
		}
		o.stats.RecoveryBackoffs++
		o.tr.AddQueueWait(sp, recoveryBackoffStep)
		p.Wait(recoveryBackoffStep)
	}
}

// recoveryPace charges bytes against the per-OSD RecoveryBps token bucket
// and blocks until the debt is repaid. The bucket holds at most one second
// of burst; a negative balance is worked off on the virtual clock, which
// keeps long backfills at the configured average rate deterministically.
func (o *OSD) recoveryPace(p *sim.Proc, bytes int64, sp trace.SpanID) {
	rate := o.cfg.RecoveryBps
	if rate <= 0 || bytes <= 0 {
		return
	}
	now := p.Now()
	o.recovTokens += float64(now.Sub(o.recovLast)) / float64(sim.Second) * rate
	if o.recovTokens > rate { // burst cap: one second of tokens
		o.recovTokens = rate
	}
	o.recovLast = now
	o.recovTokens -= float64(bytes)
	if o.recovTokens < 0 {
		wait := sim.Duration(-o.recovTokens / rate * float64(sim.Second))
		if wait > 0 {
			o.stats.RecoveryThrottle += wait
			o.tr.AddQueueWait(sp, wait)
			p.Wait(wait)
		}
	}
}

// backfillPG streams every object of pg to the targets, throttled so
// recovery does not starve client I/O (Ceph's recovery throttling).
func (o *OSD) backfillPG(p *sim.Proc, pg uint32, targets []int32) {
	th := sim.NewThread(fmt.Sprintf("recovery@%s", o.name), ThreadCat)
	p.SetThread(th)
	if o.recovSem != nil {
		// Backfill reservation: at most RecoveryMaxPGs PGs stream at once;
		// the rest queue here until a slot frees.
		o.recovSem.Acquire(p, 1)
		defer o.recovSem.Release(1)
	}
	o.stats.PGsBackfilled++
	sp := o.tr.Start(0, 0, trace.StageRecovery, pgColl(pg))
	defer o.tr.Finish(sp)
	names, err := o.store.List(p, pgColl(pg))
	if err != nil {
		return // nothing local for this PG
	}
	for _, obj := range names {
		if o.failed {
			return
		}
		o.recoveryBackoff(p, sp)
		if o.failed {
			return
		}
		lock := o.pgLock(pg)
		lock.Acquire(p, 1)
		bl, rerr := o.store.Read(p, pgColl(pg), obj, 0, 0)
		st, serr := o.store.Stat(p, pgColl(pg), obj)
		lock.Release(1)
		if rerr != nil || serr != nil {
			continue // deleted while we were backfilling
		}
		for _, target := range targets {
			pushBytes := int64(bl.Length())
			o.recoveryPace(p, pushBytes, sp)
			if o.failed {
				return
			}
			pushSp := o.tr.Start(sp, 0, trace.StageRecoveryPush, obj)
			o.tr.AddBytes(pushSp, pushBytes)
			o.cpu.Exec(p, th, o.cfg.RepPrepCycles)
			o.nextPushTid++
			tid := o.nextPushTid
			ack := sim.NewEvent()
			o.pushPending[tid] = ack
			o.msgr.Send(Name(target), &cephmsg.MPGPush{
				Tid: tid, Epoch: o.curMap.Epoch, PGID: pg, Object: obj,
				Version: st.Version, Data: bl,
			})
			if !ack.WaitTimeout(p, 30*sim.Second) {
				// Target died mid-backfill; a future map change restarts it.
				delete(o.pushPending, tid)
				o.tr.Finish(pushSp)
				return
			}
			o.stats.ObjectsRecovered++
			o.stats.RecoveryBytes += pushBytes
			o.tr.Finish(pushSp)
		}
		p.Wait(o.cfg.RecoveryDelay)
	}
}

// handlePGPush applies a pushed object on the backfill target (tp_osd_tp
// worker context).
func (o *OSD) handlePGPush(p *sim.Proc, src string, m *cephmsg.MPGPush) {
	o.cpu.ExecSelf(p, o.cfg.OpPrepCycles)
	lock := o.pgLock(m.PGID)
	lock.Acquire(p, 1)
	if !m.Force && o.store.Exists(p, pgColl(m.PGID), m.Object) {
		// A newer copy arrived through the client replication path.
		lock.Release(1)
		o.msgr.Send(src, &cephmsg.MPGPushAck{Tid: m.Tid, PGID: m.PGID, Object: m.Object})
		return
	}
	txn := objstore.NewTransaction().Write(pgColl(m.PGID), m.Object, 0, m.Data)
	o.ensureColl(m.PGID, txn)
	res := o.store.QueueTransaction(p, txn)
	lock.Release(1)
	o.stats.PushesServed++
	o.env.SpawnID(o.pushCompleterPrefix, m.Tid, func(cp *sim.Proc) {
		cp.SetThread(o.thFin)
		res.Done.Wait(cp)
		o.cpu.Exec(cp, o.thFin, o.cfg.FinishCycles)
		result := cephmsg.ResOK
		if res.Err != nil {
			result = cephmsg.ResError
		}
		o.msgr.Send(src, &cephmsg.MPGPushAck{
			Tid: m.Tid, PGID: m.PGID, Object: m.Object, Result: result,
		})
	})
}

// handlePGPushAck completes one in-flight push (msgr-worker context).
func (o *OSD) handlePGPushAck(m *cephmsg.MPGPushAck) {
	if ev, ok := o.pushPending[m.Tid]; ok {
		ev.Fire()
		delete(o.pushPending, m.Tid)
	}
}
