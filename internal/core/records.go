package core

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
	reads     freeList[pendingRead] // put by Proxy.Read as it returns the data
	hostReads freeList[hostRead]    // put by its last reader (hostRead.unref)
	hostTxns  freeList[hostTxn]     // put once the proxy has decoded its notification
	segs      segTables             // put by shipTxn once the host has committed
}

// freeList is a LIFO of zeroed records of one type.
type freeList[T any] struct {
	free []*T
	made int // records allocated so far, for the balance check of the tests
}

func (l *freeList[T]) get() *T {
	n := len(l.free)
	if n == 0 {
		l.made++
		return new(T)
	}
	r := l.free[n-1]
	l.free[n-1] = nil // a record then left to the GC is not kept by the array
	l.free = l.free[:n-1]
	return r
}

// put zeroes r and keeps it for the next get. Only r's last reader calls it.
func (l *freeList[T]) put(r *T) {
	var zero T
	*r = zero
	l.free = append(l.free, r)
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
