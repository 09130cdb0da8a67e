package core

import "doceph/internal/sim"

// records holds the free lists of the per-crossing records whose lifetime
// ends inside this package, like the staging buffers and memory regions a
// real data plane registers once and reuses (§3.3). There is one set per
// partition (sim.Local), shared by every proxy and host server in it, so what
// the lists retain is one partition's peak concurrency, not the sum of every
// owner's.
//
// A record goes back at the one point after which nothing reads it, zeroed, so
// a free record holds no payload, view or Result. A record on an error or
// fallback path is never put back: some reader of it may still be to come, and
// the GC takes it once none is left.
type records struct {
	reads     sim.FreeList[pendingRead] // put by the read as it returns, unless its descriptor's transfer failed
	calls     sim.FreeList[storeCall]   // put by the call as it ends
	hostReads sim.FreeList[hostRead]    // put by its last reader (hostRead.unref)
	hostTxns  sim.FreeList[hostTxn]     // put once the proxy has decoded its notification
	ships     sim.FreeList[shipment]    // put by the shipment as it ends
	txns      sim.FreeList[pendingTxn]  // put once it has completed the caller's Result and, if batched, been framed
	frames    frames                    // put once settled and every op it carried has completed
	notifies  sim.FreeList[notifyFrame] // put once the proxy has decoded it
	segs      segTables                 // put by the shipment once the host has committed
}

// segTables is the free list of the proxy's per-transaction segment tables.
// A table keeps its capacity. When the one on top is too small for a request,
// a new one is made and the small one stays listed for a smaller request.
type segTables struct {
	free [][]segment
	made int
}

// get returns a zeroed table of n segments.
func (s *segTables) get(n int) []segment {
	if k := len(s.free); k > 0 && cap(s.free[k-1]) >= n {
		t := s.free[k-1]
		s.free[k-1] = nil
		s.free = s.free[:k-1]
		return t[:n]
	}
	s.made++
	return make([]segment, n)
}

// put zeroes t and keeps it for the next get.
func (s *segTables) put(t []segment) {
	clear(t[:cap(t)])
	s.free = append(s.free, t[:0])
}
