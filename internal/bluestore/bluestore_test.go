package bluestore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"doceph/internal/objstore"
	"doceph/internal/sim"
	"doceph/internal/wire"
)

// newTestStore builds a store on a 3 GHz 4-core CPU and a fast disk.
func newTestStore(cfg Config) (*sim.Env, *Store) {
	env := sim.NewEnv(1)
	cpu := sim.NewCPU(env, "host", 4, 3.0, 2000)
	disk := sim.NewDisk(env, "ssd", 500e6, 1000e6, 20*sim.Microsecond)
	return env, New(env, "s0", cpu, disk, cfg)
}

// runStore executes body as a simulated thread and drives the sim until it
// finishes. The store's service loops never exit, so a deadlock result with
// the body complete is the expected termination.
func runStore(t *testing.T, env *sim.Env, body func(p *sim.Proc)) {
	t.Helper()
	done := false
	env.Spawn("test-body", func(p *sim.Proc) {
		p.SetThread(sim.NewThread("tester", "test"))
		body(p)
		done = true
	})
	err := env.RunUntil(sim.MaxTime)
	if !done {
		t.Fatalf("test body did not finish: %v", err)
	}
	env.Shutdown()
}

func commit(t *testing.T, p *sim.Proc, s *Store, txn *objstore.Transaction) error {
	t.Helper()
	res := s.QueueTransaction(p, txn)
	res.Done.Wait(p)
	return res.Err
}

func mkColl(t *testing.T, p *sim.Proc, s *Store, coll string) {
	t.Helper()
	if err := commit(t, p, s, (&objstore.Transaction{}).MkColl(coll)); err != nil {
		t.Fatalf("mkcoll: %v", err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	env, s := newTestStore(Config{})
	runStore(t, env, func(p *sim.Proc) {
		mkColl(t, p, s, "pg1")
		payload := []byte("hello bluestore, this is object data")
		txn := (&objstore.Transaction{}).Write("pg1", "obj1", 0, wire.FromBytes(payload))
		if err := commit(t, p, s, txn); err != nil {
			t.Fatalf("commit: %v", err)
		}
		got, err := s.Read(p, "pg1", "obj1", 0, 0)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got.Bytes(), payload) {
			t.Fatalf("got %q want %q", got.Bytes(), payload)
		}
	})
}

func TestWriteAtOffsetZeroFillsHole(t *testing.T) {
	env, s := newTestStore(Config{})
	runStore(t, env, func(p *sim.Proc) {
		mkColl(t, p, s, "c")
		txn := (&objstore.Transaction{}).Write("c", "o", 10, wire.FromBytes([]byte("abc")))
		if err := commit(t, p, s, txn); err != nil {
			t.Fatal(err)
		}
		got, err := s.Read(p, "c", "o", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := append(make([]byte, 10), 'a', 'b', 'c')
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("got %v want %v", got.Bytes(), want)
		}
		st, err := s.Stat(p, "c", "o")
		if err != nil || st.Size != 13 {
			t.Fatalf("stat=%+v err=%v", st, err)
		}
	})
}

// TestZeroLengthWriteDecodedFromAFrame: a zero-length write that crossed a
// frame decodes with no data list at all, and still creates the object.
func TestZeroLengthWriteDecodedFromAFrame(t *testing.T) {
	env, s := newTestStore(Config{})
	runStore(t, env, func(p *sim.Proc) {
		mkColl(t, p, s, "c")
		txn, err := objstore.DecodeTransactionBL(
			(&objstore.Transaction{}).Write("c", "empty", 0, &wire.Bufferlist{}).EncodeBL(), &objstore.Names{})
		if err != nil || txn.Ops[0].Data != nil {
			t.Fatalf("decoded %+v, err=%v; want a write with no list", txn.Ops, err)
		}
		if err := commit(t, p, s, txn); err != nil {
			t.Fatal(err)
		}
		if st, err := s.Stat(p, "c", "empty"); err != nil || st.Size != 0 || st.Version != 1 {
			t.Fatalf("stat=%+v err=%v", st, err)
		}
	})
}

func TestPartialOverwrite(t *testing.T) {
	env, s := newTestStore(Config{})
	runStore(t, env, func(p *sim.Proc) {
		mkColl(t, p, s, "c")
		if err := commit(t, p, s,
			(&objstore.Transaction{}).Write("c", "o", 0, wire.FromBytes([]byte("AAAAAAAAAA")))); err != nil {
			t.Fatal(err)
		}
		if err := commit(t, p, s,
			(&objstore.Transaction{}).Write("c", "o", 3, wire.FromBytes([]byte("BBBB")))); err != nil {
			t.Fatal(err)
		}
		got, err := s.Read(p, "c", "o", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if string(got.Bytes()) != "AAABBBBAAA" {
			t.Fatalf("got %q", got.Bytes())
		}
	})
}

func TestRangedRead(t *testing.T) {
	env, s := newTestStore(Config{})
	runStore(t, env, func(p *sim.Proc) {
		mkColl(t, p, s, "c")
		if err := commit(t, p, s,
			(&objstore.Transaction{}).Write("c", "o", 0, wire.FromBytes([]byte("0123456789")))); err != nil {
			t.Fatal(err)
		}
		got, err := s.Read(p, "c", "o", 2, 5)
		if err != nil || string(got.Bytes()) != "23456" {
			t.Fatalf("got %q err=%v", got.Bytes(), err)
		}
		// Past EOF reads clamp.
		got, err = s.Read(p, "c", "o", 8, 100)
		if err != nil || string(got.Bytes()) != "89" {
			t.Fatalf("got %q err=%v", got.Bytes(), err)
		}
		got, err = s.Read(p, "c", "o", 50, 10)
		if err != nil || got.Length() != 0 {
			t.Fatalf("past-EOF read len=%d err=%v", got.Length(), err)
		}
	})
}

func TestTruncateAndZero(t *testing.T) {
	env, s := newTestStore(Config{})
	runStore(t, env, func(p *sim.Proc) {
		mkColl(t, p, s, "c")
		if err := commit(t, p, s,
			(&objstore.Transaction{}).Write("c", "o", 0, wire.FromBytes([]byte("0123456789")))); err != nil {
			t.Fatal(err)
		}
		if err := commit(t, p, s, (&objstore.Transaction{}).Truncate("c", "o", 4)); err != nil {
			t.Fatal(err)
		}
		got, _ := s.Read(p, "c", "o", 0, 0)
		if string(got.Bytes()) != "0123" {
			t.Fatalf("after truncate: %q", got.Bytes())
		}
		if err := commit(t, p, s, (&objstore.Transaction{}).Zero("c", "o", 1, 2)); err != nil {
			t.Fatal(err)
		}
		got, _ = s.Read(p, "c", "o", 0, 0)
		if !bytes.Equal(got.Bytes(), []byte{'0', 0, 0, '3'}) {
			t.Fatalf("after zero: %v", got.Bytes())
		}
	})
}

func TestRemoveFreesSpace(t *testing.T) {
	env, s := newTestStore(Config{})
	runStore(t, env, func(p *sim.Proc) {
		mkColl(t, p, s, "c")
		before := s.FreeBytes()
		if err := commit(t, p, s,
			(&objstore.Transaction{}).Write("c", "o", 0, wire.FromBytes(make([]byte, 1<<20)))); err != nil {
			t.Fatal(err)
		}
		if s.FreeBytes() >= before {
			t.Fatal("write did not consume space")
		}
		if err := commit(t, p, s, (&objstore.Transaction{}).Remove("c", "o")); err != nil {
			t.Fatal(err)
		}
		if s.FreeBytes() != before {
			t.Fatalf("free=%d want %d", s.FreeBytes(), before)
		}
		if s.Exists(p, "c", "o") {
			t.Fatal("object still exists")
		}
	})
}

func TestDeferredVsDirectWrites(t *testing.T) {
	env, s := newTestStore(Config{DeferredThreshold: 64 << 10})
	runStore(t, env, func(p *sim.Proc) {
		mkColl(t, p, s, "c")
		if err := commit(t, p, s,
			(&objstore.Transaction{}).Write("c", "small", 0, wire.FromBytes(make([]byte, 4<<10)))); err != nil {
			t.Fatal(err)
		}
		if err := commit(t, p, s,
			(&objstore.Transaction{}).Write("c", "big", 0, wire.FromBytes(make([]byte, 1<<20)))); err != nil {
			t.Fatal(err)
		}
		st := s.Stats()
		if st.DeferredWrites != 1 || st.DirectWrites != 1 {
			t.Fatalf("deferred=%d direct=%d", st.DeferredWrites, st.DirectWrites)
		}
	})
}

func TestKVBatching(t *testing.T) {
	env, s := newTestStore(Config{KVBatchMax: 16})
	runStore(t, env, func(p *sim.Proc) {
		mkColl(t, p, s, "c")
		// Queue many tiny transactions without waiting in between; the kv
		// sync thread should batch them into far fewer cycles.
		var results []*objstore.Result
		for i := 0; i < 64; i++ {
			txn := (&objstore.Transaction{}).Touch("c", "o")
			results = append(results, s.QueueTransaction(p, txn))
		}
		for _, r := range results {
			r.Done.Wait(p)
		}
		st := s.Stats()
		if st.KVSyncCycles >= 64 || st.KVSyncCycles < 1 {
			t.Fatalf("kv cycles=%d for 64 txns, want batching", st.KVSyncCycles)
		}
	})
}

func TestErrorSurfacedViaResult(t *testing.T) {
	env, s := newTestStore(Config{})
	runStore(t, env, func(p *sim.Proc) {
		err := commit(t, p, s,
			(&objstore.Transaction{}).Write("nocoll", "o", 0, wire.FromBytes([]byte("x"))))
		if !errors.Is(err, objstore.ErrNoCollection) {
			t.Fatalf("err=%v", err)
		}
		mkColl(t, p, s, "c")
		if err := commit(t, p, s, (&objstore.Transaction{}).Remove("c", "ghost")); !errors.Is(err, objstore.ErrNotFound) {
			t.Fatalf("err=%v", err)
		}
		if err := commit(t, p, s, (&objstore.Transaction{}).MkColl("c")); err == nil {
			t.Fatal("duplicate mkcoll accepted")
		}
	})
}

func TestRmCollRules(t *testing.T) {
	env, s := newTestStore(Config{})
	runStore(t, env, func(p *sim.Proc) {
		mkColl(t, p, s, "c")
		if err := commit(t, p, s, (&objstore.Transaction{}).Touch("c", "o")); err != nil {
			t.Fatal(err)
		}
		if err := commit(t, p, s, (&objstore.Transaction{}).RmColl("c")); err == nil {
			t.Fatal("rmcoll of non-empty collection accepted")
		}
		if err := commit(t, p, s, (&objstore.Transaction{}).Remove("c", "o")); err != nil {
			t.Fatal(err)
		}
		if err := commit(t, p, s, (&objstore.Transaction{}).RmColl("c")); err != nil {
			t.Fatal(err)
		}
		if err := commit(t, p, s, (&objstore.Transaction{}).RmColl("c")); !errors.Is(err, objstore.ErrNoCollection) {
			t.Fatalf("err=%v", err)
		}
	})
}

func TestSetAttrAndVersionBump(t *testing.T) {
	env, s := newTestStore(Config{})
	runStore(t, env, func(p *sim.Proc) {
		mkColl(t, p, s, "c")
		if err := commit(t, p, s, (&objstore.Transaction{}).Touch("c", "o")); err != nil {
			t.Fatal(err)
		}
		st0, _ := s.Stat(p, "c", "o")
		if err := commit(t, p, s, (&objstore.Transaction{}).SetAttr("c", "o", "snap", []byte("v"))); err != nil {
			t.Fatal(err)
		}
		st1, _ := s.Stat(p, "c", "o")
		if st1.Version <= st0.Version {
			t.Fatalf("version did not advance: %d -> %d", st0.Version, st1.Version)
		}
	})
}

func TestListSorted(t *testing.T) {
	env, s := newTestStore(Config{})
	runStore(t, env, func(p *sim.Proc) {
		mkColl(t, p, s, "c")
		for _, n := range []string{"zeta", "alpha", "mid"} {
			if err := commit(t, p, s, (&objstore.Transaction{}).Touch("c", n)); err != nil {
				t.Fatal(err)
			}
		}
		names, err := s.List(p, "c")
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"alpha", "mid", "zeta"}
		for i := range want {
			if names[i] != want[i] {
				t.Fatalf("names=%v", names)
			}
		}
		if _, err := s.List(p, "ghost"); !errors.Is(err, objstore.ErrNoCollection) {
			t.Fatalf("err=%v", err)
		}
	})
}

func TestENOSPC(t *testing.T) {
	env, s := newTestStore(Config{DeviceBytes: 256 << 10, MinAllocSize: 64 << 10})
	runStore(t, env, func(p *sim.Proc) {
		mkColl(t, p, s, "c")
		err := commit(t, p, s,
			(&objstore.Transaction{}).Write("c", "big", 0, wire.FromBytes(make([]byte, 1<<20))))
		if !errors.Is(err, ErrNoSpace) {
			t.Fatalf("err=%v", err)
		}
	})
}

func TestMultiSegmentPayloadIntegrity(t *testing.T) {
	env, s := newTestStore(Config{})
	runStore(t, env, func(p *sim.Proc) {
		mkColl(t, p, s, "c")
		bl := wire.NewBufferlist([]byte("part1-"), []byte("part2-"), []byte("part3"))
		wantCRC := bl.CRC32C()
		if err := commit(t, p, s, (&objstore.Transaction{}).Write("c", "o", 0, bl)); err != nil {
			t.Fatal(err)
		}
		got, err := s.Read(p, "c", "o", 0, 0)
		if err != nil || got.CRC32C() != wantCRC {
			t.Fatalf("crc %08x want %08x err=%v", got.CRC32C(), wantCRC, err)
		}
	})
}

// Property test: a random sequence of write/zero/truncate ops matches a flat
// []byte reference model.
func TestQuickRandomOpsMatchReference(t *testing.T) {
	env, s := newTestStore(Config{})
	runStore(t, env, func(p *sim.Proc) {
		mkColl(t, p, s, "c")
		r := rand.New(rand.NewSource(99))
		ranges := rand.New(rand.NewSource(7))
		ref := []byte{}
		const maxLen = 4096
		grow := func(n int) {
			if n > len(ref) {
				ref = append(ref, make([]byte, n-len(ref))...)
			}
		}
		for i := 0; i < 120; i++ {
			off := r.Intn(maxLen / 2)
			n := 1 + r.Intn(maxLen/2)
			switch r.Intn(3) {
			case 0: // write
				data := make([]byte, n)
				for j := range data {
					data[j] = byte(r.Intn(256))
				}
				if err := commit(t, p, s,
					(&objstore.Transaction{}).Write("c", "o", uint64(off), wire.FromBytes(data))); err != nil {
					t.Fatal(err)
				}
				grow(off + n)
				copy(ref[off:], data)
			case 1: // zero
				if err := commit(t, p, s,
					(&objstore.Transaction{}).Zero("c", "o", uint64(off), uint64(n))); err != nil {
					if errors.Is(err, objstore.ErrNotFound) {
						continue
					}
					t.Fatal(err)
				}
				grow(off + n)
				for j := off; j < off+n; j++ {
					ref[j] = 0
				}
			case 2: // truncate
				sz := r.Intn(maxLen)
				if err := commit(t, p, s,
					(&objstore.Transaction{}).Truncate("c", "o", uint64(sz))); err != nil {
					if errors.Is(err, objstore.ErrNotFound) {
						continue
					}
					t.Fatal(err)
				}
				if sz < len(ref) {
					ref = ref[:sz]
				} else {
					grow(sz)
				}
			}
			got, err := s.Read(p, "c", "o", 0, 0)
			if err != nil {
				if errors.Is(err, objstore.ErrNotFound) && len(ref) == 0 {
					continue
				}
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), ref) {
				t.Fatalf("iteration %d: store diverged from reference (len %d vs %d)",
					i, got.Length(), len(ref))
			}
			// Ranges, short ones mostly inside one extent (readRange's view)
			// and long ones across extents and holes.
			for _, span := range []int{16, maxLen} {
				off, n := ranges.Intn(len(ref)+1), ranges.Intn(span)
				want := ref[min(off, len(ref)):]
				if n > 0 && n < len(want) {
					want = want[:n]
				}
				if got, err := s.Read(p, "c", "o", uint64(off), uint64(n)); err != nil || !bytes.Equal(got.Bytes(), want) {
					t.Fatalf("iteration %d: [%d,+%d) diverged from reference: err=%v", i, off, n, err)
				}
			}
		}
	})
}

func TestAllocatorFirstFitAndCoalesce(t *testing.T) {
	a := newAllocator(1<<20, 1<<10)
	o1, err := a.allocate(4 << 10)
	if err != nil || o1 != 0 {
		t.Fatalf("o1=%d err=%v", o1, err)
	}
	o2, _ := a.allocate(4 << 10)
	o3, _ := a.allocate(4 << 10)
	if o2 != 4<<10 || o3 != 8<<10 {
		t.Fatalf("o2=%d o3=%d", o2, o3)
	}
	a.release(o1, 4<<10)
	a.release(o2, 4<<10) // coalesces with o1
	got, err := a.allocate(8 << 10)
	if err != nil || got != 0 {
		t.Fatalf("coalesced alloc got=%d err=%v", got, err)
	}
	free := a.free()
	a.release(got, 8<<10)
	if a.free() != free+8<<10 {
		t.Fatal("free accounting")
	}
}

func TestAllocatorTailFoldsIntoBump(t *testing.T) {
	a := newAllocator(1<<20, 1<<10)
	o1, _ := a.allocate(4 << 10)
	o2, _ := a.allocate(4 << 10)
	a.release(o2, 4<<10) // tail: folds into bump
	if len(a.freeList) != 0 || a.bump != 4<<10 {
		t.Fatalf("freeList=%v bump=%d", a.freeList, a.bump)
	}
	a.release(o1, 4<<10)
	if a.bump != 0 {
		t.Fatalf("bump=%d", a.bump)
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	a := newAllocator(8<<10, 1<<10)
	if _, err := a.allocate(16 << 10); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err=%v", err)
	}
	if _, err := a.allocate(8 << 10); err != nil {
		t.Fatal(err)
	}
	if _, err := a.allocate(1 << 10); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("err=%v", err)
	}
}

// TestNewObjectWriteAllocations is the ceiling on what queueing and applying a
// one-write transaction to a new object may allocate: the transaction context
// (the caller's Result inside it) and the onode (its first extent and block
// inside it); the object map's growth averages below one. A Result, extent
// slice, block slice or metadata key of their own would each show here.
func TestNewObjectWriteAllocations(t *testing.T) {
	env, s := newTestStore(Config{})
	data := wire.FromBytes(make([]byte, 128<<10))
	txns := []*objstore.Transaction{(&objstore.Transaction{}).MkColl("c")}
	for i := 0; i < 400; i++ {
		txns = append(txns, (&objstore.Transaction{}).Write("c", fmt.Sprint("obj", i), 0, data))
	}
	th := sim.NewThread("tester", "test")
	done := 0
	body := func(p *sim.Proc) {
		p.SetThread(th)
		if err := commit(t, p, s, txns[done]); err != nil {
			t.Error(err)
		}
		done++
	}
	// One transaction per call; the run ends when only the store's daemons
	// are left.
	write := func() {
		env.Spawn("writer", body)
		if err := env.RunUntil(sim.MaxTime); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ { // size the rings, the pools and the event queue
		write()
	}
	if allocs := testing.AllocsPerRun(200, write); allocs > 2 {
		t.Fatalf("%.0f allocations per new-object write transaction, want at most 2", allocs)
	}
	if n := len(s.colls["c"].objects); n != done-1 || n < 300 {
		t.Fatalf("%d objects after %d transactions", n, done)
	}
	env.Shutdown()
}

func TestTransactionEncodeDecode(t *testing.T) {
	txn := (&objstore.Transaction{}).
		MkColl("c").
		Write("c", "o", 128, wire.FromBytes([]byte("payload"))).
		SetAttr("c", "o", "k", []byte("v")).
		Truncate("c", "o", 64).
		Remove("c", "o")
	e := wire.NewEncoder(256)
	txn.Encode(e)
	got, err := objstore.DecodeTransaction(wire.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ops) != len(txn.Ops) {
		t.Fatalf("ops=%d want %d", len(got.Ops), len(txn.Ops))
	}
	for i := range got.Ops {
		a, b := got.Ops[i], txn.Ops[i]
		if a.Code != b.Code || a.Collection != b.Collection || a.Object != b.Object ||
			a.Offset != b.Offset || a.AttrName != b.AttrName {
			t.Fatalf("op %d: %+v vs %+v", i, a, b)
		}
	}
	if string(got.Ops[1].Data.Bytes()) != "payload" {
		t.Fatal("payload mismatch")
	}
	if got.DataBytes() != txn.DataBytes() {
		t.Fatal("DataBytes mismatch")
	}
}

// Property: for any sequence of allocate/release pairs, the allocator never
// double-allocates overlapping extents and conserves free space.
func TestQuickAllocatorNoOverlapConservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := newAllocator(1<<22, 1<<10)
		type ext struct{ off, n int64 }
		var live []ext
		total := a.free()
		for step := 0; step < 200; step++ {
			if r.Intn(2) == 0 || len(live) == 0 {
				n := int64(1+r.Intn(8)) << 10
				off, err := a.allocate(n)
				if err != nil {
					continue
				}
				for _, e := range live {
					if off < e.off+e.n && e.off < off+n {
						return false // overlap!
					}
				}
				live = append(live, ext{off, n})
			} else {
				i := r.Intn(len(live))
				a.release(live[i].off, live[i].n)
				live = append(live[:i], live[i+1:]...)
			}
		}
		var held int64
		for _, e := range live {
			held += e.n
		}
		return a.free()+held == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// refPunchInsert is the extent-map update as it was with a fresh output slice
// per punch and a reflection-based sort.Slice after every change; the
// in-place version must leave the same extents in the same order.
func refPunchInsert(extents []extent, off uint64, data *wire.Bufferlist) []extent {
	end := off + uint64(data.Length())
	var out []extent
	for _, e := range extents {
		eEnd := e.off + uint64(e.data.Length())
		if eEnd <= off || e.off >= end {
			out = append(out, e)
			continue
		}
		if e.off < off {
			out = append(out, extent{off: e.off, data: e.data.SubList(0, int(off-e.off))})
		}
		if eEnd > end {
			skip := int(end - e.off)
			out = append(out, extent{off: end, data: e.data.SubList(skip, e.data.Length()-skip)})
		}
	}
	out = append(out, extent{off: off, data: data})
	sort.Slice(out, func(i, j int) bool { return out[i].off < out[j].off })
	return out
}

func TestPunchInsertMatchesSortSliceVersion(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		o := newOnode() // the first extent sits in the onode, later ones move out
		var ref []extent
		for w := 0; w < 200; w++ {
			// Overlapping writes over a small range: splits (a write inside
			// an extent), swallowed extents, trimmed heads and tails, gaps.
			off := uint64(rng.Intn(4000))
			data := make([]byte, 1+rng.Intn(600))
			rng.Read(data)
			bl := wire.FromBytes(data)
			o.punch(off, uint64(bl.Length()))
			o.insert(extent{off: off, data: bl})
			ref = refPunchInsert(ref, off, bl)
			if len(o.extents) != len(ref) {
				t.Fatalf("seed %d write %d: %d extents, reference %d", seed, w, len(o.extents), len(ref))
			}
			for i := range ref {
				if o.extents[i].off != ref[i].off || !o.extents[i].data.Equal(ref[i].data) {
					t.Fatalf("seed %d write %d: extent %d at %d (%d bytes), reference at %d (%d bytes)",
						seed, w, i, o.extents[i].off, o.extents[i].data.Length(), ref[i].off, ref[i].data.Length())
				}
			}
			for _, e := range o.extents[len(o.extents):cap(o.extents)] {
				if e.data != nil {
					t.Fatalf("seed %d write %d: a dropped extent is still referenced past the end", seed, w)
				}
			}
		}
	}
}
