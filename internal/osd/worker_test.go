package osd

import (
	"testing"

	"doceph/internal/cephmsg"
	"doceph/internal/messenger"
	"doceph/internal/objstore"
	"doceph/internal/sim"
	"doceph/internal/wire"
)

// rawPeer is a bare messenger endpoint on the client node that sends an OSD
// any message and takes the one that comes back.
type rawPeer struct {
	msgr    *messenger.Messenger
	replies *sim.Queue[cephmsg.Message]
}

func newRawPeer(tc *testCluster) *rawPeer {
	rp := &rawPeer{msgr: tc.addClient("client.2"), replies: sim.NewQueue[cephmsg.Message](tc.env)}
	rp.msgr.SetDispatcher(func(_ *sim.Proc, _ string, m cephmsg.Message) { rp.replies.Push(m) })
	return rp
}

func (rp *rawPeer) do(p *sim.Proc, target int32, m cephmsg.Message) cephmsg.Message {
	rp.msgr.Send(Name(target), m)
	return rp.replies.Pop(p)
}

// TestOpWorkerPathsKeepTheirEvents runs the tp_osd_tp worker through every
// kind of item its shard carries and the client-op paths the goldens do not
// reach, on the two-OSD rig with heartbeats off: stats of an object and of a
// missing one; backfill pushes to the secondary of a new object, of one it
// already holds, and forced over it; a replica's scrub digests of an object
// and of a missing one; deletes of an object and of a missing one; an op sent
// to the wrong OSD; and writes below min_size. Each case pins the events fired
// by the end of its body and the instant it ends, as the worker fired them
// when it was a proc, checks every reply and reads every object back from
// each store holding it, byte for byte.
func TestOpWorkerPathsKeepTheirEvents(t *testing.T) {
	for _, c := range []struct {
		name    string
		minSize int
		body    func(t *testing.T, tc *testCluster, rc *rawClient, rp *rawPeer, p *sim.Proc) []heldObject
		// The proc form's figures.
		events uint64
		end    sim.Time
	}{
		{"stat", 0, statOps, 109, 1_596_062},
		{"push", 0, pushOps, 196, 2_927_101},
		{"scrub", 0, scrubOps, 109, 1_472_604},
		{"delete", 0, deleteOps, 235, 3_485_801},
		{"wrong-primary", 0, wrongPrimaryOps, 122, 1_857_747},
		{"no-quorum", 2, noQuorumOps, 145, 1_001_947_987},
	} {
		t.Run(c.name, func(t *testing.T) {
			tc := newTestClusterFull(t, 2, 2, c.minSize, false, Config{})
			rc, rp := newRawClient(tc), newRawPeer(tc)
			var events uint64
			var end sim.Time
			tc.run(t, func(p *sim.Proc) {
				for _, h := range c.body(t, tc, rc, rp, p) {
					for _, id := range h.on {
						got, err := objstore.Read(p, tc.stores[id], pgColl(tc.client.Map().PGForObject(h.name)), h.name, 0, 0)
						if err != nil || !got.Equal(h.data) {
							t.Errorf("%s on osd.%d reads back err=%v", h.name, id, err)
						}
					}
				}
				events, end = tc.env.Events(), p.Now()
			})
			t.Logf("%d events to %d ns", events, end)
			if events != c.events || end != c.end {
				t.Errorf("%d events to %d ns; pinned %d to %d ns", events, end, c.events, c.end)
			}
			for _, o := range tc.osds {
				if mu, ra, w := o.InFlight(); mu+ra+w != 0 {
					t.Errorf("%s still holds %d mutations, %d replica applies, %d replica waits", o.name, mu, ra, w)
				}
			}
		})
	}
}

// expect sends op to target through rc and checks the reply's result.
func expect(t *testing.T, rc *rawClient, p *sim.Proc, target int32, op *cephmsg.MOSDOp, want int32) *cephmsg.MOSDOpReply {
	t.Helper()
	r := rc.do(p, target, op)
	if r.Result != want {
		t.Fatalf("%v of %s on osd.%d: result %d, want %d", op.Op, op.Object, target, r.Result, want)
	}
	return r
}

// statOps: a stat of a written object answers its size; one of a missing
// object, ResNotFound.
func statOps(t *testing.T, tc *testCluster, rc *rawClient, _ *rawPeer, p *sim.Proc) []heldObject {
	h := writeTo(t, rc, p, primaryObject(tc, "stat", 0), 20, cephmsg.ResOK)
	if r := expect(t, rc, p, 0, &cephmsg.MOSDOp{Object: h.name, Op: cephmsg.OpStat}, cephmsg.ResOK); r.Size != uint64(h.data.Length()) {
		t.Errorf("stat of %s: size %d, want %d", h.name, r.Size, h.data.Length())
	}
	expect(t, rc, p, 0, &cephmsg.MOSDOp{Object: primaryObject(tc, "never", 0), Op: cephmsg.OpStat}, cephmsg.ResNotFound)
	return []heldObject{h}
}

// pushOps: backfill pushes to the secondary — of an object it does not hold,
// which it writes; of one it holds, which it leaves; forced over one it holds,
// which it overwrites — each acked.
func pushOps(t *testing.T, tc *testCluster, rc *rawClient, rp *rawPeer, p *sim.Proc) []heldObject {
	m := tc.client.Map()
	push := func(obj string, force bool, data *wire.Bufferlist) {
		t.Helper()
		r := rp.do(p, 1, &cephmsg.MPGPush{Tid: 7, Epoch: m.Epoch, PGID: m.PGForObject(obj), Object: obj,
			Force: force, Data: data})
		if ack, ok := r.(*cephmsg.MPGPushAck); !ok || ack.Result != cephmsg.ResOK || ack.Object != obj {
			t.Fatalf("push of %s (force %v): reply %#v", obj, force, r)
		}
	}
	fresh := primaryObject(tc, "pushed", 0)
	data := payload(8192, 30)
	push(fresh, false, data)
	held := writeTo(t, rc, p, primaryObject(tc, "held", 0), 31, cephmsg.ResOK)
	push(held.name, false, payload(4096, 32)) // a newer copy is there: left alone
	forced := writeTo(t, rc, p, primaryObject(tc, "forced", 0), 33, cephmsg.ResOK)
	repair := payload(4096, 34)
	push(forced.name, true, repair)
	return []heldObject{{name: fresh, data: data, on: []int32{1}}, held,
		{name: forced.name, data: repair, on: []int32{1}}, {name: forced.name, data: forced.data, on: []int32{0}}}
}

// scrubOps: the secondary's digest of an object matches the data; of a
// missing one, it reports no object.
func scrubOps(t *testing.T, tc *testCluster, rc *rawClient, rp *rawPeer, p *sim.Proc) []heldObject {
	h := writeTo(t, rc, p, primaryObject(tc, "scrubbed", 0), 40, cephmsg.ResOK)
	m := tc.client.Map()
	r := rp.do(p, 1, &cephmsg.MScrub{Tid: 1, PGID: m.PGForObject(h.name), Object: h.name})
	if d, ok := r.(*cephmsg.MScrubReply); !ok || !d.Exists || d.CRC != h.data.CRC32C() || d.Size != uint64(h.data.Length()) {
		t.Errorf("digest of %s: %#v", h.name, r)
	}
	missing := primaryObject(tc, "unscrubbed", 0)
	r = rp.do(p, 1, &cephmsg.MScrub{Tid: 2, PGID: m.PGForObject(missing), Object: missing})
	if d, ok := r.(*cephmsg.MScrubReply); !ok || d.Exists {
		t.Errorf("digest of %s: %#v", missing, r)
	}
	return []heldObject{h}
}

// deleteOps: a delete of a written object succeeds on both replicas, a read of
// it then finds nothing, and a delete of a missing object answers
// ResNotFound.
func deleteOps(t *testing.T, tc *testCluster, rc *rawClient, _ *rawPeer, p *sim.Proc) []heldObject {
	gone := writeTo(t, rc, p, primaryObject(tc, "deleted", 0), 50, cephmsg.ResOK)
	expect(t, rc, p, 0, &cephmsg.MOSDOp{Object: gone.name, Op: cephmsg.OpDelete}, cephmsg.ResOK)
	expect(t, rc, p, 0, &cephmsg.MOSDOp{Object: gone.name, Op: cephmsg.OpRead}, cephmsg.ResNotFound)
	expect(t, rc, p, 0, &cephmsg.MOSDOp{Object: primaryObject(tc, "absent", 0), Op: cephmsg.OpDelete}, cephmsg.ResNotFound)
	return []heldObject{writeTo(t, rc, p, primaryObject(tc, "kept", 0), 51, cephmsg.ResOK)}
}

// wrongPrimaryOps: a write, a read and a stat sent to the secondary bounce
// with ResNotPrimary; the write sent to the primary then goes through.
func wrongPrimaryOps(t *testing.T, tc *testCluster, rc *rawClient, _ *rawPeer, p *sim.Proc) []heldObject {
	obj := primaryObject(tc, "misrouted", 0)
	for _, op := range []cephmsg.Op{cephmsg.OpWrite, cephmsg.OpRead, cephmsg.OpStat} {
		expect(t, rc, p, 1, &cephmsg.MOSDOp{Object: obj, Op: op, Data: payload(4096, 60)}, cephmsg.ResNotPrimary)
	}
	if n := tc.osds[1].Stats().WrongPrimary; n != 3 {
		t.Errorf("osd.1 bounced %d ops, want 3", n)
	}
	return []heldObject{writeTo(t, rc, p, obj, 61, cephmsg.ResOK)}
}

// noQuorumOps: with min_size 2 and the secondary marked down, a write and a
// delete bounce with ResNoQuorum and a read still succeeds.
func noQuorumOps(t *testing.T, tc *testCluster, rc *rawClient, _ *rawPeer, p *sim.Proc) []heldObject {
	h := writeTo(t, rc, p, primaryObject(tc, "quorum", 0), 70, cephmsg.ResOK)
	tc.mon.MarkDown(1)
	p.Wait(sim.Second)
	expect(t, rc, p, 0, &cephmsg.MOSDOp{Object: h.name, Op: cephmsg.OpWrite, Data: payload(4096, 71)}, cephmsg.ResNoQuorum)
	expect(t, rc, p, 0, &cephmsg.MOSDOp{Object: h.name, Op: cephmsg.OpDelete}, cephmsg.ResNoQuorum)
	if r := expect(t, rc, p, 0, &cephmsg.MOSDOp{Object: h.name, Op: cephmsg.OpRead}, cephmsg.ResOK); !r.Data.Equal(h.data) {
		t.Errorf("read of %s below quorum returned other data", h.name)
	}
	if n := tc.osds[0].Stats().NoQuorumRejects; n != 2 {
		t.Errorf("osd.0 bounced %d mutations below quorum, want 2", n)
	}
	return []heldObject{h}
}
