package bluestore

import (
	"errors"
	"sort"
)

// ErrNoSpace is returned when the virtual device is exhausted.
var ErrNoSpace = errors.New("bluestore: device out of space")

// allocator hands out device extents with best-effort reuse of freed space:
// a bump pointer for fresh space plus a coalescing free list, in the spirit
// of BlueStore's bitmap allocator but sized for simulation.
type allocator struct {
	capacity int64
	unit     int64
	bump     int64
	// freeList holds released extents sorted by offset, adjacent runs
	// coalesced.
	freeList []devExtent
	freeSum  int64
}

type devExtent struct {
	off    int64
	length int64
}

func newAllocator(capacity, unit int64) *allocator {
	return &allocator{capacity: capacity, unit: unit}
}

// free returns the total unallocated bytes.
func (a *allocator) free() int64 { return (a.capacity - a.bump) + a.freeSum }

// allocate returns the device offset of a contiguous extent of the given
// length (already rounded to the allocation unit by the caller).
func (a *allocator) allocate(length int64) (int64, error) {
	// First fit from the free list.
	for i, e := range a.freeList {
		if e.length >= length {
			off := e.off
			if e.length == length {
				a.freeList = append(a.freeList[:i], a.freeList[i+1:]...)
			} else {
				a.freeList[i] = devExtent{off: e.off + length, length: e.length - length}
			}
			a.freeSum -= length
			return off, nil
		}
	}
	if a.bump+length > a.capacity {
		return 0, ErrNoSpace
	}
	off := a.bump
	a.bump += length
	return off, nil
}

// release returns an extent to the free list, coalescing neighbours.
func (a *allocator) release(off, length int64) {
	a.freeList = append(a.freeList, devExtent{off: off, length: length})
	sort.Slice(a.freeList, func(i, j int) bool { return a.freeList[i].off < a.freeList[j].off })
	var out []devExtent
	for _, e := range a.freeList {
		if n := len(out); n > 0 && out[n-1].off+out[n-1].length == e.off {
			out[n-1].length += e.length
			continue
		}
		out = append(out, e)
	}
	a.freeList = out
	a.freeSum += length
	// Fold a tail run back into the bump pointer.
	if n := len(a.freeList); n > 0 {
		tail := a.freeList[n-1]
		if tail.off+tail.length == a.bump {
			a.bump = tail.off
			a.freeSum -= tail.length
			a.freeList = a.freeList[:n-1]
		}
	}
}
