package osd

import (
	"fmt"

	"doceph/internal/cephmsg"
	"doceph/internal/sim"
)

// Scrubbing: the self-healing mechanism the paper's §1 credits Ceph with.
// At every ScrubInterval the primary of each PG deep-scrubs it: it reads
// each object locally, asks every replica for a content digest (CRC32C +
// size), and on divergence repairs the replica by force-pushing its own
// authoritative copy through the recovery path. Scrub traffic rides the
// messenger like everything else, so in DoCeph mode it too runs on the DPU.

// scrubLoop is the per-OSD background scrubber (enabled when
// Config.ScrubInterval > 0).
func (o *OSD) scrubLoop(p *sim.Proc) {
	th := sim.NewThread("scrub@"+o.name, ThreadCat)
	p.SetThread(th)
	for {
		p.Wait(o.cfg.ScrubInterval)
		if o.failed {
			continue
		}
		for pg := uint32(0); pg < o.curMap.PGCount; pg++ {
			acting := o.curMap.ActingSet(pg)
			if len(acting) == 0 || acting[0] != o.id || !o.created[pg] {
				continue
			}
			o.scrubPG(p, pg, acting[1:])
		}
	}
}

// scrubPG deep-scrubs one placement group against its replicas.
func (o *OSD) scrubPG(p *sim.Proc, pg uint32, replicas []int32) {
	names, err := o.store.List(p, pgColl(pg))
	if err != nil {
		return
	}
	for _, obj := range names {
		if o.failed {
			return
		}
		lock := o.pgLock(pg)
		lock.Acquire(p, 1)
		bl, rerr := o.store.Read(p, pgColl(pg), obj, 0, 0)
		lock.Release(1)
		if rerr != nil {
			continue // deleted under us
		}
		localCRC := bl.CRC32C()
		localSize := uint64(bl.Length())
		o.stats.ObjectsScrubbed++
		for _, rep := range replicas {
			o.nextPushTid++
			tid := o.nextPushTid
			sc := &scrubCall{done: sim.NewEvent()}
			o.scrubPending[tid] = sc
			o.msgr.Send(Name(rep), &cephmsg.MScrub{Tid: tid, PGID: pg, Object: obj})
			if !sc.done.WaitTimeout(p, 30*sim.Second) {
				delete(o.scrubPending, tid)
				continue // replica unreachable; failure detection handles it
			}
			if sc.reply.Exists && sc.reply.CRC == localCRC && sc.reply.Size == localSize {
				continue
			}
			// Inconsistency: repair with the primary's copy.
			o.stats.ScrubErrors++
			o.nextPushTid++
			rtid := o.nextPushTid
			ack := sim.NewEvent()
			o.pushPending[rtid] = ack
			o.msgr.Send(Name(rep), &cephmsg.MPGPush{
				Tid: rtid, Epoch: o.curMap.Epoch, PGID: pg, Object: obj,
				Force: true, Data: bl,
			})
			if ack.WaitTimeout(p, 30*sim.Second) {
				o.stats.ScrubRepairs++
			} else {
				delete(o.pushPending, rtid)
			}
		}
		p.Wait(o.cfg.RecoveryDelay) // scrub is throttled like recovery
	}
}

type scrubCall struct {
	done  *sim.Event
	reply *cephmsg.MScrubReply
}

// handleScrub serves a digest request on a replica (tp_osd_tp context: it
// reads the object from the backing store).
func (o *OSD) handleScrub(p *sim.Proc, src string, m *cephmsg.MScrub) {
	reply := &cephmsg.MScrubReply{Tid: m.Tid, PGID: m.PGID, Object: m.Object}
	lock := o.pgLock(m.PGID)
	lock.Acquire(p, 1)
	bl, err := o.store.Read(p, pgColl(m.PGID), m.Object, 0, 0)
	lock.Release(1)
	if err == nil {
		reply.Exists = true
		reply.CRC = bl.CRC32C()
		reply.Size = uint64(bl.Length())
	}
	o.stats.ScrubsServed++
	o.msgr.Send(src, reply)
}

// handleScrubReply completes a pending digest request (msgr-worker context).
func (o *OSD) handleScrubReply(m *cephmsg.MScrubReply) {
	if sc, ok := o.scrubPending[m.Tid]; ok {
		sc.reply = m
		sc.done.Fire()
		delete(o.scrubPending, m.Tid)
	}
}

// ScrubNow triggers an immediate scrub pass of every PG this OSD leads
// (administrative hook: the fault experiments and tests call it). It returns right away;
// the returned event fires once the whole pass has completed.
func (o *OSD) ScrubNow() *sim.Event {
	done := sim.NewEvent()
	o.env.Spawn(fmt.Sprintf("scrub-now@%s", o.name), func(p *sim.Proc) {
		th := sim.NewThread("scrub@"+o.name, ThreadCat)
		p.SetThread(th)
		for pg := uint32(0); pg < o.curMap.PGCount; pg++ {
			acting := o.curMap.ActingSet(pg)
			if len(acting) == 0 || acting[0] != o.id || !o.created[pg] {
				continue
			}
			o.scrubPG(p, pg, acting[1:])
		}
		done.Fire()
	})
	return done
}
