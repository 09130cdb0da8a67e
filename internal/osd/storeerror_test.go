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
