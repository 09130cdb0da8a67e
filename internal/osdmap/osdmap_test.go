package osdmap

import (
	"hash/fnv"
	"testing"
	"testing/quick"

	"doceph/internal/crush"
)

func newMap(hosts int, replicas int) *Map {
	return New(crush.BuildUniform(hosts, 1, 1.0), 64, replicas)
}

func TestPGForObjectDeterministicAndInRange(t *testing.T) {
	m := newMap(3, 2)
	f := func(obj string) bool {
		pg := m.PGForObject(obj)
		return pg == m.PGForObject(obj) && pg < m.PGCount
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPGsSpreadAcrossRange(t *testing.T) {
	m := newMap(3, 2)
	seen := map[uint32]bool{}
	for i := 0; i < 2000; i++ {
		seen[m.PGForObject(string(rune('a'+i%26))+string(rune('0'+i%10))+string(rune(i)))] = true
	}
	if len(seen) < int(m.PGCount)*3/4 {
		t.Fatalf("only %d of %d PGs used", len(seen), m.PGCount)
	}
}

func TestActingSetDistinctAndStable(t *testing.T) {
	m := newMap(4, 3)
	for pg := uint32(0); pg < m.PGCount; pg++ {
		a := m.ActingSet(pg)
		b := m.ActingSet(pg)
		if len(a) != 3 {
			t.Fatalf("pg %d acting=%v", pg, a)
		}
		seen := map[int32]bool{}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("pg %d unstable acting set", pg)
			}
			if seen[a[i]] {
				t.Fatalf("pg %d duplicate osd: %v", pg, a)
			}
			seen[a[i]] = true
		}
		if m.Primary(pg) != a[0] {
			t.Fatalf("pg %d primary mismatch", pg)
		}
	}
}

func TestNextAdvancesEpochIndependently(t *testing.T) {
	m1 := newMap(3, 2)
	m2 := m1.Next()
	if m2.Epoch != m1.Epoch+1 {
		t.Fatalf("epochs %d -> %d", m1.Epoch, m2.Epoch)
	}
	m2.MarkDown(1)
	if !m1.IsUp(1) {
		t.Fatal("down-mark leaked into the previous epoch")
	}
	if m2.IsUp(1) {
		t.Fatal("down-mark did not apply")
	}
	// CRUSH copies are independent too: m1 still places on osd 1.
	found := false
	for pg := uint32(0); pg < m1.PGCount && !found; pg++ {
		for _, id := range m1.ActingSet(pg) {
			found = found || id == 1
		}
	}
	if !found {
		t.Fatal("previous epoch's CRUSH lost the device")
	}
	for pg := uint32(0); pg < m2.PGCount; pg++ {
		for _, id := range m2.ActingSet(pg) {
			if id == 1 {
				t.Fatal("new epoch still places on the down OSD")
			}
		}
	}
}

func TestNextCarriesMinSize(t *testing.T) {
	m1 := newMap(3, 2)
	if m1.MinSize != 0 {
		t.Fatalf("fresh map MinSize = %d, want 0 (gate off)", m1.MinSize)
	}
	m1.MinSize = 1
	m2 := m1.Next().Next()
	if m2.MinSize != 1 {
		t.Fatalf("MinSize lost across epochs: %d", m2.MinSize)
	}
}

func TestUpOSDsAndMarkUp(t *testing.T) {
	m := newMap(3, 2)
	if got := m.UpOSDs(); len(got) != 3 {
		t.Fatalf("up=%v", got)
	}
	m.MarkDown(0)
	if got := m.UpOSDs(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("up=%v", got)
	}
	m.MarkUp(0)
	if got := m.UpOSDs(); len(got) != 3 {
		t.Fatalf("up=%v", got)
	}
}

func TestPrimaryUnservable(t *testing.T) {
	m := newMap(2, 2)
	m.MarkDown(0)
	m.MarkDown(1)
	if p := m.Primary(5); p != -1 {
		t.Fatalf("primary=%d on empty cluster", p)
	}
}

func TestPGSeedDecorrelates(t *testing.T) {
	// Adjacent PG ids must not map to correlated acting sets; check that
	// consecutive PGs do not all share a primary.
	m := newMap(4, 2)
	same := 0
	for pg := uint32(0); pg+1 < m.PGCount; pg++ {
		if m.Primary(pg) == m.Primary(pg+1) {
			same++
		}
	}
	if same > int(m.PGCount)*3/4 {
		t.Fatalf("%d of %d consecutive PG pairs share a primary", same, m.PGCount-1)
	}
}

// TestPGForObjectIsFNV1a: the inlined hash is the hash/fnv one, so object
// placement did not move.
func TestPGForObjectIsFNV1a(t *testing.T) {
	m := newMap(3, 2)
	f := func(obj string) bool {
		h := fnv.New32a()
		h.Write([]byte(obj))
		return m.PGForObject(obj) == h.Sum32()%m.PGCount
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestActingSetMemo: a map answers repeated ActingSet calls from one shared
// slice, forgets every answer when an OSD changes state, and hands nothing
// down to its successor epoch.
func TestActingSetMemo(t *testing.T) {
	m := newMap(4, 3)
	first := m.ActingSet(7)
	if again := m.ActingSet(7); &again[0] != &first[0] {
		t.Fatal("second call recomputed the acting set")
	}
	if allocs := testing.AllocsPerRun(100, func() { m.ActingSet(7) }); allocs != 0 {
		t.Fatalf("memoised ActingSet allocates %.0f times per call", allocs)
	}
	want := append([]int32(nil), first...)

	next := m.Next()
	if next.acting != nil || next.actingLen != nil {
		t.Fatal("Next inherited the memo")
	}
	victim := first[0]
	next.MarkDown(victim)
	for pg := uint32(0); pg < next.PGCount; pg++ {
		next.ActingSet(pg) // fill the memo in the degraded state
	}
	for _, id := range next.ActingSet(7) {
		if id == victim {
			t.Fatalf("down osd.%d still acting for pg 7", victim)
		}
	}
	next.MarkUp(victim)
	if got := next.ActingSet(7); !equalIDs(got, want) {
		t.Fatalf("after MarkUp pg 7 maps to %v, want %v (stale memo)", got, want)
	}
	next.MarkDown(victim)
	for _, id := range next.ActingSet(7) {
		if id == victim {
			t.Fatalf("after the second MarkDown osd.%d is back in pg 7 (stale memo)", victim)
		}
	}
	// The older epoch and the slice handed out before are untouched.
	if !equalIDs(first, want) || !equalIDs(m.ActingSet(7), want) {
		t.Fatalf("epoch %d changed under a later epoch's down-marks: %v / %v", m.Epoch, first, m.ActingSet(7))
	}
	// Beyond PGCount there is no memo slot; the answer is still CRUSH's.
	if got := m.ActingSet(m.PGCount + 7); len(got) != 3 {
		t.Fatalf("out-of-range pg: %v", got)
	}
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
