package sim

import "fmt"

// FreeList is a LIFO of zeroed records of one type: what a model keeps
// instead of making a record per operation, as a data plane reuses its
// pre-registered buffers. Keep one per partition (Local), so that what it
// retains is one partition's peak concurrency. A record goes back, through
// Put, at the one point after which nothing reads it; one left on an error
// path is never put back, and the GC takes it. Made and Listed let a check
// that the model is at rest require every record made to be listed.
type FreeList[T any] struct {
	free []*T
	made int
}

// Get takes the record listed last, or makes one: a zero T either way.
func (l *FreeList[T]) Get() *T {
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

// Put zeroes r and lists it for the next Get. Only r's last reader calls it.
func (l *FreeList[T]) Put(r *T) {
	var zero T
	*r = zero
	l.free = append(l.free, r)
}

// Made is how many records Get has made.
func (l *FreeList[T]) Made() int { return l.made }

// Listed is how many records are listed: Made once every record is back.
func (l *FreeList[T]) Listed() int { return len(l.free) }

// AllBack is nil when every record made is listed, and otherwise says how many
// of how many records (what names them) are back.
func (l *FreeList[T]) AllBack(what string) error {
	if l.made == len(l.free) {
		return nil
	}
	return fmt.Errorf("%d of %d %s back on the free list", len(l.free), l.made, what)
}
