package sim

import "testing"

type freeRec struct {
	n   int
	buf []byte
}

// TestFreeListRecyclesZeroed: Get makes a record only when none is listed,
// Put zeroes what it lists, the record listed last comes back first, AllBack
// names the records out, and a Get/Put pair allocates nothing once the list
// holds a record.
func TestFreeListRecyclesZeroed(t *testing.T) {
	var l FreeList[freeRec]
	a, b := l.Get(), l.Get()
	if a == b || l.Made() != 2 || l.Listed() != 0 {
		t.Fatalf("two Gets on an empty list: same record %v, made %d, listed %d", a == b, l.Made(), l.Listed())
	}
	if err := l.AllBack("listed records"); err == nil || err.Error() != "0 of 2 listed records back on the free list" {
		t.Fatalf("AllBack with two out: %v", err)
	}
	a.n, a.buf = 7, make([]byte, 3)
	l.Put(a)
	l.Put(b)
	if got := l.Get(); got != b {
		t.Fatal("Get did not return the record listed last")
	}
	if got := l.Get(); got != a || got.n != 0 || got.buf != nil {
		t.Fatalf("recycled record %+v; want a, zeroed", *got)
	}
	if l.Made() != 2 {
		t.Fatalf("made %d after recycling; want 2", l.Made())
	}
	l.Put(a)
	l.Put(b)
	if err := l.AllBack("listed records"); err != nil {
		t.Fatalf("AllBack with every record listed: %v", err)
	}
	if n := testing.AllocsPerRun(100, func() { l.Put(l.Get()) }); n != 0 {
		t.Fatalf("%.1f allocations per Get/Put pair", n)
	}
}
