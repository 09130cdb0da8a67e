package osd

import (
	"fmt"
	"testing"

	"doceph/internal/cephmsg"
	"doceph/internal/messenger"
	"doceph/internal/objstore"
	"doceph/internal/sim"
	"doceph/internal/wire"
)

// TestFaultPathsKeepTheirEvents runs replicated writes through the paths the
// goldens do not reach, on the two-OSD rig with heartbeats off: the replica
// watchdog resending a sub-op a silent secondary swallowed and then aborting
// the write, a map change dropping the wait on a silent secondary, and
// messenger session resets under a lossy fabric. Each case pins the events
// fired by the end of its body and the instant it ends, the watchdog's
// counters and the messengers' resets and redeliveries, as the completers and
// wire processes fired and counted them when they were procs, and reads every
// object back from each store holding it, byte for byte.
func TestFaultPathsKeepTheirEvents(t *testing.T) {
	for _, c := range []struct {
		name string
		// body writes through rc and returns the objects written with the
		// stores that must hold each.
		body func(t *testing.T, tc *testCluster, rc *rawClient, p *sim.Proc) []heldObject
		// The proc form's figures.
		events               uint64
		end                  sim.Time
		retries, aborts      int64
		resets, redeliveries int64
	}{
		{"watchdog", watchdogWrites, 199, 90_002_287_347, 5, 1, 0, 0},
		{"map-change", mapChangeWrites, 105, 2_000_447_718, 0, 0, 0, 0},
		{"session-reset", sessionResetWrites, 484, 366_681_248, 0, 0, 18, 18},
	} {
		t.Run(c.name, func(t *testing.T) {
			tc := newTestClusterCfg(t, 2, 2, Config{})
			rc := newRawClient(tc)
			var events uint64
			var end sim.Time
			tc.run(t, func(p *sim.Proc) {
				for _, h := range c.body(t, tc, rc, p) {
					for _, id := range h.on {
						got, err := objstore.Read(p, tc.stores[id], pgColl(tc.client.Map().PGForObject(h.name)), h.name, 0, 0)
						if err != nil || !got.Equal(h.data) {
							t.Errorf("%s on osd.%d reads back err=%v", h.name, id, err)
						}
					}
				}
				events, end = tc.env.Events(), p.Now()
			})
			prim := tc.osds[0].Stats()
			var resets, redeliveries int64
			for _, m := range []*messenger.Messenger{tc.osds[0].msgr, tc.osds[1].msgr, rc.msgr} {
				resets += m.Stats().SessionResets
				redeliveries += m.Stats().Redeliveries
			}
			t.Logf("%d events to %d ns, %d rep retries, %d rep aborts, %d session resets, %d redeliveries",
				events, end, prim.RepRetries, prim.RepAborts, resets, redeliveries)
			if events != c.events || end != c.end || prim.RepRetries != c.retries || prim.RepAborts != c.aborts ||
				resets != c.resets || redeliveries != c.redeliveries {
				t.Errorf("%d events to %d ns, %d/%d rep retries/aborts, %d/%d resets/redeliveries; pinned %d to %d ns, %d/%d, %d/%d",
					events, end, prim.RepRetries, prim.RepAborts, resets, redeliveries,
					c.events, c.end, c.retries, c.aborts, c.resets, c.redeliveries)
			}
			for _, o := range tc.osds {
				if mu, ra, w := o.InFlight(); mu+ra+w != 0 {
					t.Errorf("%s still holds %d mutations, %d replica applies, %d replica waits", o.name, mu, ra, w)
				}
			}
		})
	}
}

// heldObject is an object a fault case wrote, its data and the OSDs whose
// stores hold it.
type heldObject struct {
	name string
	data *wire.Bufferlist
	on   []int32
}

// writeTo writes data to obj through rc on osd.0 and checks the result.
func writeTo(t *testing.T, rc *rawClient, p *sim.Proc, obj string, seed byte, want int32) heldObject {
	t.Helper()
	data := payload(4096, seed)
	if r := rc.do(p, 0, &cephmsg.MOSDOp{Object: obj, Op: cephmsg.OpWrite, Data: data}); r.Result != want {
		t.Fatalf("%s: result %d, want %d", obj, r.Result, want)
	}
	return heldObject{name: obj, data: data, on: []int32{0, 1}}
}

// watchdogWrites: the secondary swallows the first two copies of one sub-op,
// which the watchdog's resends get through, then every copy of the next,
// which aborts; a write after it goes through.
func watchdogWrites(t *testing.T, tc *testCluster, rc *rawClient, p *sim.Proc) []heldObject {
	sec := tc.osds[1]
	swallow := 2
	sec.msgr.SetDispatcher(func(_ *sim.Proc, src string, m cephmsg.Message) {
		if _, ok := m.(*cephmsg.MRepOp); ok && swallow != 0 {
			swallow--
			return
		}
		sec.dispatch(nil, src, m)
	})
	held := []heldObject{writeTo(t, rc, p, primaryObject(tc, "resent", 0), 1, cephmsg.ResOK)}
	swallow = -1
	aborted := writeTo(t, rc, p, primaryObject(tc, "aborted", 0), 2, cephmsg.ResError)
	aborted.on = aborted.on[:1] // the primary committed it; the secondary never saw it
	swallow = 0
	return append(held, aborted, writeTo(t, rc, p, primaryObject(tc, "after", 0), 3, cephmsg.ResOK))
}

// mapChangeWrites: a write waits on a silent secondary until the monitor marks
// it down, and completes degraded; the next one has the primary alone.
func mapChangeWrites(t *testing.T, tc *testCluster, rc *rawClient, p *sim.Proc) []heldObject {
	sec := tc.osds[1]
	swallowRepOps(sec)
	var held []heldObject
	tc.env.Spawn("writer", func(wp *sim.Proc) {
		h := writeTo(t, rc, wp, primaryObject(tc, "dropped", 0), 4, cephmsg.ResOK)
		h.on = h.on[:1]
		held = append(held, h)
	})
	p.Wait(sim.Second)
	tc.mon.MarkDown(sec.id)
	p.Wait(sim.Second)
	if len(held) != 1 {
		t.Fatal("the map change did not complete the write")
	}
	h := writeTo(t, rc, p, primaryObject(tc, "alone", 0), 5, cephmsg.ResOK)
	h.on = h.on[:1]
	return append(held, h)
}

// sessionResetWrites: with half the frames to and from the secondary's
// node lost, sub-ops and their acks are redelivered after session resets.
func sessionResetWrites(t *testing.T, tc *testCluster, rc *rawClient, p *sim.Proc) []heldObject {
	tc.fabric.SetDropProb("node1", 0.5)
	var held []heldObject
	for i := 0; i < 8; i++ {
		held = append(held, writeTo(t, rc, p, primaryObject(tc, fmt.Sprint("lossy", i), 0), byte(10+i), cephmsg.ResOK))
	}
	tc.fabric.ClearFaults()
	return held
}

// TestMonitorFailureReportChargesThenActs: the monitor pays for a failure
// report on its messenger's worker before it marks the OSD down, so the
// instant the new epoch reaches a subscriber is pinned, as is the epoch, with
// the figures the monitor's blocking dispatch gave.
func TestMonitorFailureReportChargesThenActs(t *testing.T) {
	tc := newTestCluster(t, 3, 2, false)
	watch := tc.addClient("watch.0")
	var epoch uint32
	var at sim.Time
	watch.SetDispatcher(func(_ *sim.Proc, _ string, m cephmsg.Message) {
		if mm, ok := m.(*cephmsg.MOSDMap); ok && epoch == 0 {
			epoch, at = mm.Epoch, tc.env.Now()
		}
	})
	tc.mon.Subscribe("watch.0")
	var events uint64
	tc.run(t, func(p *sim.Proc) {
		p.Wait(2 * sim.Second)
		tc.osds[2].Fail()
		p.Wait(10 * sim.Second)
		events = tc.env.Events()
	})
	t.Logf("epoch %d reached the subscriber at %d ns; %d events", epoch, at, events)
	if epoch != 3 || at != 7_000_218_922 || events != 576 {
		t.Errorf("epoch %d at %d ns, %d events; pinned epoch 3 at 7000218922 ns, 576 events", epoch, at, events)
	}
}
