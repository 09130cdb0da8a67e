package sim

import (
	"reflect"
	"testing"
)

type freeRec struct {
	n   int
	buf []byte
}

// TestFreeListRecyclesZeroed: Get makes a record only when none is listed,
// Put zeroes what it lists, the record listed last comes back first, and a
// Get/Put pair allocates nothing once the list holds a record.
func TestFreeListRecyclesZeroed(t *testing.T) {
	var l FreeList[freeRec]
	a, b := l.Get(), l.Get()
	if a == b || l.Made() != 2 || l.Listed() != 0 {
		t.Fatalf("two Gets on an empty list: same record %v, made %d, listed %d", a == b, l.Made(), l.Listed())
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
	if n := testing.AllocsPerRun(100, func() { l.Put(l.Get()) }); n != 0 {
		t.Fatalf("%.1f allocations per Get/Put pair", n)
	}
}

// tableRec is a record whose list is a type of its own, as a package wraps a
// FreeList to give it methods.
type tableRec struct{ n int }

type tables struct{ FreeList[tableRec] }

// TestLocalRegistersFreeLists: Local registers a FreeList, and a type that
// embeds one, with its Env and nothing else; RecordsOut walks the lists in the
// order Local made them, names each by its record type, and reports exactly
// those whose records made are not listed plus abandoned, with the abandoned
// ones by reason.
func TestLocalRegistersFreeLists(t *testing.T) {
	env := NewEnv(1)
	tabs := Local[tables](env)
	Local[map[string]int](env) // not a list
	recs := Local[FreeList[freeRec]](env)
	if Local[tables](env) != tabs || len(env.ledgers) != 2 {
		t.Fatalf("%d lists registered, want the two made once each", len(env.ledgers))
	}
	if out := env.RecordsOut(); out != nil {
		t.Fatalf("RecordsOut of two empty lists: %v", out)
	}
	tab, r := tabs.Get(), recs.Get()
	recs.Get()
	recs.Get()
	tabs.Put(tab)
	recs.Put(r)
	recs.Abandon(TimedOut)
	recs.Abandon(Fallback)
	if out := env.RecordsOut(); out != nil {
		t.Fatalf("RecordsOut with every record listed or abandoned: %v", out)
	}
	const account = "sim.freeRec: 1 of 3 back, 1 abandoned (fallback), 1 abandoned (timed out)"
	if got, out := recs.tally(); got != account || out != 0 {
		t.Fatalf("tally = %q, %d out; want %q, 0 out", got, out, account)
	}
	if recs.Abandoned(Fallback) != 1 || recs.Abandoned(TimedOut) != 1 || recs.Abandoned(Crashed) != 0 {
		t.Fatal("Abandoned(why) does not count by reason")
	}
	tabs.Get()
	recs.Abandon(Corrupt) // an abandon too many: both records out were already counted
	want := []string{"sim.tableRec: 0 of 1 back", "sim.freeRec: 1 of 3 back, 1 abandoned (fallback), " +
		"1 abandoned (timed out), 1 abandoned (corrupt)"}
	if got := env.RecordsOut(); !reflect.DeepEqual(got, want) {
		t.Fatalf("RecordsOut = %q, want %q", got, want)
	}
}
