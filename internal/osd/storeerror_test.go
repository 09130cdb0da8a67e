package osd

import (
	"testing"

	"doceph/internal/cephmsg"
	"doceph/internal/objstore"
	"doceph/internal/sim"
)

// failingStore is a store whose reads and stats fail with a proxy I/O error,
// as the proxy's do when the host answers an I/O error or refuses a return
// segment.
type failingStore struct{ objstore.Store }

func (failingStore) ReadThen(_ *sim.Thread, c *objstore.Call, _ sim.Task) bool {
	c.Data, c.Err = nil, objstore.ErrProxyIO
	return false
}

func (failingStore) StatThen(_ *sim.Thread, c *objstore.Call, _ sim.Task) bool {
	c.Stat, c.Err = objstore.StatInfo{}, objstore.ErrProxyIO
	return false
}

// TestStoreErrorIsNotAMissingObject: a read or a stat of a missing object
// answers ResNotFound, and one the store fails answers ResError, which the
// client does not take for a missing object.
func TestStoreErrorIsNotAMissingObject(t *testing.T) {
	tc := newTestClusterCfg(t, 2, 2, Config{})
	rc := newRawClient(tc)
	tc.run(t, func(p *sim.Proc) {
		h := writeTo(t, rc, p, primaryObject(tc, "there", 0), 80, cephmsg.ResOK)
		missing := primaryObject(tc, "missing", 0)
		expect(t, rc, p, 0, &cephmsg.MOSDOp{Object: missing, Op: cephmsg.OpRead}, cephmsg.ResNotFound)
		expect(t, rc, p, 0, &cephmsg.MOSDOp{Object: missing, Op: cephmsg.OpStat}, cephmsg.ResNotFound)
		tc.osds[0].store = failingStore{tc.osds[0].store}
		expect(t, rc, p, 0, &cephmsg.MOSDOp{Object: h.name, Op: cephmsg.OpRead}, cephmsg.ResError)
		expect(t, rc, p, 0, &cephmsg.MOSDOp{Object: h.name, Op: cephmsg.OpStat}, cephmsg.ResError)
	})
}

// TestReplicaCommitErrorFailsTheWrite: a write whose replica fails its
// BlueStore commit answers ResError, whole or streamed, although the primary
// committed it: the replica acks with the error and the primary's reply
// carries it. A delete the replica finds nothing to do for still succeeds:
// the object is gone there too.
func TestReplicaCommitErrorFailsTheWrite(t *testing.T) {
	const chunk = 64 << 10
	for _, c := range []struct {
		name string
		size int
	}{{"whole", 10_000}, {"streamed", 200_000}} {
		tc := newTestClusterMsgr(t, 2, 2, 0, streamMsgrCfg(false, chunk, 2), Config{})
		rc := newRawClient(tc)
		tc.run(t, func(p *sim.Proc) {
			obj := primaryObject(tc, c.name, 0)
			rep := tc.client.Map().ActingSet(tc.client.Map().PGForObject(obj))[1]
			tc.osds[rep].ready.Wait(p) // the PG collections exist
			tc.stores[rep].SetWriteErrorProb(1)
			before := tc.osds[0].Stats().StreamWrites
			r := rc.do(p, 0, &cephmsg.MOSDOp{Object: obj, Op: cephmsg.OpWrite, Data: payload(c.size, 9)})
			if r.Result != cephmsg.ResError {
				t.Errorf("%s: result %d, want ResError (%d)", c.name, r.Result, cephmsg.ResError)
			}
			if streamed := tc.osds[0].Stats().StreamWrites - before; (streamed == 1) != (c.size > chunk) {
				t.Errorf("%s: %d streamed writes", c.name, streamed)
			}
			p.Wait(sim.Second) // the replica's last commits land
		})
	}
	tc := newTestClusterCfg(t, 2, 2, Config{})
	rc := newRawClient(tc)
	tc.run(t, func(p *sim.Proc) {
		h := writeTo(t, rc, p, primaryObject(tc, "gone", 0), 7, cephmsg.ResOK)
		coll := pgColl(tc.client.Map().PGForObject(h.name))
		res := tc.stores[1].QueueTransaction(p, objstore.NewTransaction().Remove(coll, h.name))
		if res.Done.Wait(p); res.Err != nil {
			t.Fatal(res.Err)
		}
		if r := rc.do(p, 0, &cephmsg.MOSDOp{Object: h.name, Op: cephmsg.OpDelete}); r.Result != cephmsg.ResOK {
			t.Errorf("delete of an object the replica lacks: result %d, want ResOK", r.Result)
		}
	})
}
