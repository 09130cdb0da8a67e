package osd

import (
	"fmt"
	"testing"

	"doceph/internal/cephmsg"
	"doceph/internal/sim"
)

// swallowRepOps makes o drop every MRepOp it is sent, before its dispatcher
// sees it, and returns the tids dropped so far, in arrival order.
func swallowRepOps(o *OSD) *[]uint64 {
	var tids []uint64
	o.msgr.SetDispatcher(func(p *sim.Proc, src string, m cephmsg.Message) {
		if r, ok := m.(*cephmsg.MRepOp); ok {
			tids = append(tids, r.Tid)
			return
		}
		o.dispatch(p, src, m)
	})
	return &tids
}

// primaryObject returns an object whose PG has osd.primary as its primary.
func primaryObject(tc *testCluster, prefix string, primary int32) string {
	m := tc.client.Map()
	for i := 0; ; i++ {
		obj := fmt.Sprintf("%s-%d", prefix, i)
		if m.Primary(m.PGForObject(obj)) == primary {
			return obj
		}
	}
}

// TestRepWatchdogResendsThenAborts: a secondary that never applies its sub-op
// gets the same MRepOp — same tid — again every repOpTimeout, and after
// maxRepRetries resends the primary answers the client with ResError instead
// of hanging. An ack that turns up after the abort finds no wait to complete.
func TestRepWatchdogResendsThenAborts(t *testing.T) {
	tc := newTestClusterCfg(t, 2, 2, Config{})
	prim, sec := tc.osds[0], tc.osds[1]
	// A bare endpoint never resends, so every MRepOp after the first is the
	// watchdog's.
	rc := newRawClient(tc)
	tc.run(t, func(p *sim.Proc) {
		swallowed := swallowRepOps(sec)
		obj := primaryObject(tc, "watchdog", prim.id)
		start := p.Now()
		reply := rc.do(p, prim.id, &cephmsg.MOSDOp{Object: obj, Op: cephmsg.OpWrite, Data: payload(4096, 1)})
		if reply.Result != cephmsg.ResError {
			t.Fatalf("write with a silent secondary: result %d, want ResError", reply.Result)
		}
		if took, want := p.Now().Sub(start), (maxRepRetries+1)*repOpTimeout; took < want || took > want+sim.Second {
			t.Fatalf("abort after %v, want %v: one timeout per resend plus the last", took, want)
		}
		if len(*swallowed) != maxRepRetries+1 {
			t.Fatalf("secondary was sent %d MRepOps, want the first and %d resends", len(*swallowed), maxRepRetries)
		}
		for _, tid := range *swallowed {
			if tid != (*swallowed)[0] {
				t.Fatalf("resent tids %v: a resend must reuse its tid", *swallowed)
			}
		}
		s := prim.Stats()
		if s.RepRetries != maxRepRetries || s.RepAborts != 1 {
			t.Fatalf("RepRetries=%d RepAborts=%d, want %d and 1", s.RepRetries, s.RepAborts, maxRepRetries)
		}
		if len(prim.pending) != 0 || len(prim.mutations) != 0 {
			t.Fatalf("after the abort: %d rep waits, %d mutations left", len(prim.pending), len(prim.mutations))
		}

		// The secondary's ack arrives at last: there is nothing to complete.
		sec.msgr.Send(prim.name, &cephmsg.MRepOpReply{Tid: (*swallowed)[0]})
		p.Wait(sim.Second)
		if s2 := prim.Stats(); s2 != s || len(prim.pending) != 0 {
			t.Fatalf("a late ack moved the primary: %+v -> %+v, %d waits", s, s2, len(prim.pending))
		}
	})
}

// TestRepWaitDroppedByMapChange: while the primary waits on a silent
// secondary, a map that marks the secondary down completes the wait, and the
// write succeeds degraded before the watchdog would have resent anything.
func TestRepWaitDroppedByMapChange(t *testing.T) {
	tc := newTestClusterCfg(t, 2, 2, Config{})
	prim, sec := tc.osds[0], tc.osds[1]
	tc.run(t, func(p *sim.Proc) {
		swallowed := swallowRepOps(sec)
		obj := primaryObject(tc, "dropped", prim.id)
		var err error
		done := false
		tc.env.Spawn("writer", func(wp *sim.Proc) {
			wp.SetThread(sim.NewThread("writer", "client"))
			err = tc.client.Write(wp, obj, payload(4096, 2))
			done = true
		})
		p.Wait(sim.Second)
		if done || len(*swallowed) != 1 || len(prim.pending) != 1 {
			t.Fatalf("before the map change: done=%v, %d MRepOps swallowed, %d waits; want a write stuck on one",
				done, len(*swallowed), len(prim.pending))
		}
		tc.mon.MarkDown(sec.id)
		p.Wait(sim.Second)
		if !done || err != nil {
			t.Fatalf("after the map change: done=%v err=%v, want the write completed", done, err)
		}
		if s := prim.Stats(); s.RepRetries != 0 || s.RepAborts != 0 || len(*swallowed) != 1 {
			t.Fatalf("RepRetries=%d RepAborts=%d, %d MRepOps: the map change, not the watchdog, must end the wait",
				s.RepRetries, s.RepAborts, len(*swallowed))
		}
		if len(prim.pending) != 0 || len(prim.mutations) != 0 {
			t.Fatalf("%d rep waits, %d mutations left", len(prim.pending), len(prim.mutations))
		}
	})
}
