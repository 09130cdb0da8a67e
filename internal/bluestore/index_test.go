package bluestore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"doceph/internal/objstore"
	"doceph/internal/sim"
	"doceph/internal/wire"
)

// TestIndexCollisions drives the object index with every name hashing alike,
// so a collection is one chain: create, find and stat, remove at the head, in
// the middle and at the tail, remove then re-create, and the walkers (Names,
// DataObjects) and CorruptObject, all of which must tell the chained names
// apart.
func TestIndexCollisions(t *testing.T) {
	keyHook = func(string) uint32 { return 0 }
	defer func() { keyHook = nil }()
	env, s := newTestStore(Config{})
	free := s.FreeBytes()
	payload := func(name string) []byte { return bytes.Repeat([]byte(name), 64<<10) }
	write := func(p *sim.Proc, coll, name string, data []byte) {
		t.Helper()
		if err := commit(t, p, s, (&objstore.Transaction{}).Write(coll, name, 0, wire.FromBytes(data))); err != nil {
			t.Fatalf("write %s/%s: %v", coll, name, err)
		}
	}
	remove := func(p *sim.Proc, name string) {
		t.Helper()
		if err := commit(t, p, s, (&objstore.Transaction{}).Remove("c", name)); err != nil {
			t.Fatalf("remove %s: %v", name, err)
		}
	}
	// holds checks that collection c holds exactly names, in one chain, each
	// with its own data.
	holds := func(p *sim.Proc, names ...string) {
		t.Helper()
		c := s.colls["c"]
		if c.count != len(names) || c.used != min(len(names), 1) {
			t.Fatalf("%d objects in %d chains, want %d in one", c.count, c.used, len(names))
		}
		if got, err := objstore.List(p, s, "c"); err != nil || !slices.Equal(got, names) {
			t.Fatalf("names %v (%v), want %v", got, err, names)
		}
		for _, n := range names {
			got, err := objstore.Read(p, s, "c", n, 0, 0)
			if err != nil || !bytes.Equal(got.Bytes(), payload(n)) {
				t.Fatalf("read %s: %d bytes, %v", n, got.Length(), err)
			}
			if st, err := objstore.Stat(p, s, "c", n); err != nil || st.Size != uint64(len(payload(n))) {
				t.Fatalf("stat %s: %+v, %v", n, st, err)
			}
		}
		for _, n := range []string{"a", "b", "c", "d", "e"} {
			if want := slices.Contains(names, n); objstore.Exists(p, s, "c", n) != want {
				t.Fatalf("exists %s is %v", n, !want)
			}
		}
	}
	runStore(t, env, func(p *sim.Proc) {
		mkColl(t, p, s, "c")
		mkColl(t, p, s, "other")
		for _, n := range []string{"a", "b", "c", "d", "e"} { // the chain e→d→c→b→a
			write(p, "c", n, payload(n))
		}
		write(p, "other", "b", payload("x"))
		holds(p, "a", "b", "c", "d", "e")
		if _, err := objstore.Stat(p, s, "c", "f"); !errors.Is(err, objstore.ErrNotFound) {
			t.Fatalf("stat of a name never written: %v", err)
		}

		want := []DataObject{{"c", "a"}, {"c", "b"}, {"c", "c"}, {"c", "d"}, {"c", "e"}, {"other", "b"}}
		if got := s.DataObjects(); !slices.Equal(got, want) {
			t.Fatalf("DataObjects %v, want %v", got, want)
		}
		if err := s.CorruptObject("c", "c"); err != nil {
			t.Fatal(err)
		}
		if err := s.CorruptObject("c", "f"); !errors.Is(err, objstore.ErrNotFound) {
			t.Fatalf("corrupting a name never written: %v", err)
		}
		if got, _ := objstore.Read(p, s, "c", "c", 0, 0); bytes.Equal(got.Bytes(), payload("c")) {
			t.Fatal("CorruptObject left c intact")
		}
		for _, n := range []string{"b", "d"} { // c's neighbours in the chain
			if got, _ := objstore.Read(p, s, "c", n, 0, 0); !bytes.Equal(got.Bytes(), payload(n)) {
				t.Fatalf("CorruptObject of c changed %s", n)
			}
		}
		write(p, "c", "c", payload("c")) // overwrite in place, still one object

		remove(p, "c") // middle
		holds(p, "a", "b", "d", "e")
		remove(p, "e") // head
		holds(p, "a", "b", "d")
		remove(p, "a") // tail
		holds(p, "b", "d")
		if err := commit(t, p, s, (&objstore.Transaction{}).Remove("c", "a")); !errors.Is(err, objstore.ErrNotFound) {
			t.Fatalf("second remove of a: %v", err)
		}

		write(p, "c", "e", payload("e")) // re-created: a new object
		holds(p, "b", "d", "e")
		if st, _ := objstore.Stat(p, s, "c", "e"); st.Version != 1 {
			t.Fatalf("re-created e at version %d, want 1", st.Version)
		}
		for _, n := range []string{"d", "b", "e"} {
			remove(p, n)
		}
		holds(p)
		if got := s.DataObjects(); !slices.Equal(got, []DataObject{{"other", "b"}}) {
			t.Fatalf("DataObjects %v after the removes", got)
		}
		if err := commit(t, p, s, (&objstore.Transaction{}).Remove("other", "b")); err != nil {
			t.Fatal(err)
		}
		if s.FreeBytes() != free {
			t.Fatalf("%d bytes free after every remove, want %d", s.FreeBytes(), free)
		}
	})
}

// TestIndexRemoveUnlinks: remove takes an object out of its chain at any
// position and leaves the others reachable, head first.
func TestIndexRemoveUnlinks(t *testing.T) {
	keyHook = func(string) uint32 { return 0 }
	defer func() { keyHook = nil }()
	for _, gone := range []string{"o0", "o1", "o2"} { // tail, middle, head
		c := &collection{}
		for i := range 3 {
			c.getOrCreate(fmt.Sprint("o", i))
		}
		if o := c.remove(gone); o == nil || o.name != gone || o.next != nil {
			t.Fatalf("remove %s returned %+v", gone, o)
		}
		var chain []string
		for o := c.heads[c.slot(1)]; o != nil; o = o.next {
			chain = append(chain, o.name)
		}
		want := slices.DeleteFunc([]string{"o2", "o1", "o0"}, func(n string) bool { return n == gone })
		if !slices.Equal(chain, want) || c.count != 2 || c.get(gone) != nil || c.remove(gone) != nil {
			t.Fatalf("after removing %s: chain %v, count %d", gone, chain, c.count)
		}
	}
}

// TestIndexProbeRuns: names whose keys share a few homes, some keys shared by
// several names, through random creates and removes across the table's
// growths. After every step each name is found exactly when it is held, the
// counts agree, and every key is reachable from its home without crossing an
// empty slot — what a remove that leaves a hole in a probe run breaks.
func TestIndexProbeRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	names := make([]string, 60)
	keys := map[string]uint32{}
	for i := range names {
		names[i] = fmt.Sprint("obj", i)
		// Homes 0, 1, 5, 7, 30, 31, 62 and 63: clustered, and at the
		// end of the small tables, so that runs wrap around.
		homes := []uint32{0, 1, 5, 7, 30, 31, 62, 63}
		keys[names[i]] = (uint32(rng.Intn(6))<<10 | homes[rng.Intn(len(homes))]) << 1
	}
	keyHook = func(name string) uint32 { return keys[name] }
	defer func() { keyHook = nil }()
	c := &collection{}
	held := map[string]bool{}
	for step := range 3000 {
		n := names[rng.Intn(len(names))]
		if rng.Intn(3) == 0 {
			if o := c.remove(n); (o != nil) != held[n] || o != nil && o.name != n {
				t.Fatalf("step %d: remove %s returned %v, held %v", step, n, o, held[n])
			}
			delete(held, n)
		} else {
			if o := c.getOrCreate(n); o.name != n {
				t.Fatalf("step %d: getOrCreate %s returned %s", step, n, o.name)
			}
			held[n] = true
		}
		used := 0
		for j, k := range c.keys {
			if k == 0 {
				continue
			}
			used++
			for i := c.home(k); i != j; i = (i + 1) & (len(c.keys) - 1) {
				if c.keys[i] == 0 {
					t.Fatalf("step %d: key %#x in slot %d cut off from its home %d by empty slot %d", step, k, j, c.home(k), i)
				}
			}
		}
		if c.count != len(held) || c.used != used {
			t.Fatalf("step %d: count %d used %d, want %d and %d", step, c.count, c.used, len(held), used)
		}
		for _, n := range names {
			if o := c.get(n); (o != nil) != held[n] {
				t.Fatalf("step %d: get %s found %v, held %v", step, n, o != nil, held[n])
			}
		}
	}
	if len(c.keys) < 64 {
		t.Fatalf("the table stayed at %d slots: the runs never crossed a growth", len(c.keys))
	}
}
