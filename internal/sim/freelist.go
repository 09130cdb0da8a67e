package sim

import (
	"fmt"
	"reflect"
)

// FreeList is a LIFO of zeroed records of one type: what a model keeps
// instead of making a record per operation, as a data plane reuses its
// pre-registered buffers. Keep one per partition (Local), so that what it
// retains is one partition's peak concurrency; Local also registers it with
// the Env, whose RecordsOut checks it. A record ends in one of two ways: it
// goes back, through Put, at the one point after which nothing reads it, or
// an error path that cannot know when its last reader is done leaves it to
// the GC and says why with Abandon.
type FreeList[T any] struct {
	free      []*T
	made      int
	abandoned [reasons]int
}

// Reason names why a record is left to the GC instead of going back: a
// reader of it may still come, and nothing tells its owner when.
type Reason uint8

const (
	Fallback Reason = iota // its work went over the control plane after a DMA transfer failed or was refused or held off
	TimedOut               // a wait for its answer timed out
	Crashed                // its OSD failed
	Corrupt                // its payload failed to decode
	reasons
)

var reasonNames = [reasons]string{"fallback", "timed out", "crashed", "corrupt"}

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

// Abandon counts a record of the list that is left to the GC, for why.
func (l *FreeList[T]) Abandon(why Reason) { l.abandoned[why]++ }

// Made is how many records Get has made.
func (l *FreeList[T]) Made() int { return l.made }

// Listed is how many records are listed: Made, less the abandoned ones, once
// every record is back.
func (l *FreeList[T]) Listed() int { return len(l.free) }

// Abandoned is how many records were left to the GC for why.
func (l *FreeList[T]) Abandoned(why Reason) int { return l.abandoned[why] }

// tally is the list's account, "type: L of M back", then its abandoned
// records by reason, with how many records are neither listed nor abandoned.
func (l *FreeList[T]) tally() (account string, out int) {
	account = fmt.Sprintf("%v: %d of %d back", reflect.TypeFor[T](), len(l.free), l.made)
	out = l.made - len(l.free)
	for why, n := range l.abandoned {
		if n > 0 {
			account += fmt.Sprintf(", %d abandoned (%s)", n, reasonNames[why])
			out -= n
		}
	}
	return account, out
}
