package core

import (
	"errors"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"doceph/internal/bluestore"
	"doceph/internal/doca"
	"doceph/internal/dpu"
	"doceph/internal/objstore"
	"doceph/internal/sim"
	"doceph/internal/wire"
)

type coreRig struct {
	env     *sim.Env
	hostCPU *sim.CPU
	dev     *dpu.DPU
	store   *bluestore.Store
	bridge  *Bridge
}

func newCoreRig(cfg BridgeConfig) *coreRig { return newCoreRigDPU(dpu.Config{}, cfg) }

// newCoreRigDPU is newCoreRig with a DPU configured by devCfg.
func newCoreRigDPU(devCfg dpu.Config, cfg BridgeConfig) *coreRig {
	env := sim.NewEnv(11)
	r := &coreRig{env: env}
	r.hostCPU = sim.NewCPU(env, "host", 48, 3.7, 2000)
	disk := sim.NewDisk(env, "ssd", 530e6, 560e6, 30*sim.Microsecond)
	r.store = bluestore.New(env, "bs", r.hostCPU, disk, bluestore.Config{})
	r.dev = dpu.New(env, "bf3", devCfg)
	r.bridge = NewBridge(env, r.dev, r.hostCPU, r.store, cfg)
	return r
}

func (r *coreRig) run(t *testing.T, body func(p *sim.Proc)) {
	t.Helper()
	done := false
	r.env.Spawn("body", func(p *sim.Proc) {
		p.SetThread(sim.NewThread("dpu-osd-worker", "tp_osd_tp"))
		body(p)
		done = true
	})
	err := r.env.RunUntil(sim.Time(5 * 60 * sim.Second))
	if !done {
		t.Fatalf("body did not finish: %v", err)
	}
	r.env.Shutdown()
}

func seeded(n int, seed byte) *wire.Bufferlist {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(int(seed) + i*17)
	}
	return wire.FromBytes(b)
}

func commitP(t *testing.T, p *sim.Proc, px *Proxy, txn *objstore.Transaction) error {
	t.Helper()
	res := px.QueueTransaction(p, txn)
	res.Done.Wait(p)
	return res.Err
}

func TestProxyWriteThroughDMA(t *testing.T) {
	r := newCoreRig(BridgeConfig{})
	r.run(t, func(p *sim.Proc) {
		px := r.bridge.Proxy
		data := seeded(300_000, 1)
		txn := (&objstore.Transaction{}).MkColl("pg.0").Write("pg.0", "obj", 0, data)
		if err := commitP(t, p, px, txn); err != nil {
			t.Fatalf("commit: %v", err)
		}
		// Verify the data really landed in the host BlueStore.
		got, err := objstore.Read(p, r.store, "pg.0", "obj", 0, 0)
		if err != nil || got.CRC32C() != data.CRC32C() {
			t.Fatalf("host content mismatch err=%v", err)
		}
		if px.Stats().DataPlaneTxns != 1 || px.Stats().FallbackTxns != 0 {
			t.Fatalf("stats=%+v", px.Stats())
		}
	})
}

func TestProxyLargeWriteSegmentedAt2MB(t *testing.T) {
	r := newCoreRig(BridgeConfig{})
	r.run(t, func(p *sim.Proc) {
		px := r.bridge.Proxy
		const size = 5 << 20 // 5 MiB -> 3 segments
		data := seeded(size, 2)
		txn := (&objstore.Transaction{}).MkColl("pg.1").Write("pg.1", "big", 0, data)
		if err := commitP(t, p, px, txn); err != nil {
			t.Fatal(err)
		}
		if n := r.bridge.EngUp.Stats().Transfers; n != 3 {
			t.Fatalf("transfers=%d want 3 (2MB segmentation)", n)
		}
		if n := r.bridge.Host.Stats().SegmentsViaDMA; n != 3 {
			t.Fatalf("host segments=%d", n)
		}
		got, err := objstore.Read(p, r.store, "pg.1", "big", 0, 0)
		if err != nil || got.Length() != size || got.CRC32C() != data.CRC32C() {
			t.Fatalf("content mismatch err=%v len=%d", err, got.Length())
		}
	})
}

func TestWriteThroughSemantics(t *testing.T) {
	r := newCoreRig(BridgeConfig{})
	r.run(t, func(p *sim.Proc) {
		px := r.bridge.Proxy
		txn := (&objstore.Transaction{}).MkColl("pg.2").Write("pg.2", "o", 0, seeded(100_000, 3))
		res := px.QueueTransaction(p, txn)
		res.Done.Wait(p)
		// At Done time the host BlueStore must already be durable.
		if _, err := objstore.Stat(p, r.store, "pg.2", "o"); err != nil {
			t.Fatalf("not durable at ack: %v", err)
		}
		if r.bridge.Host.Stats().TxnsCommitted != 1 {
			t.Fatal("host commit not counted")
		}
	})
}

func TestControlPlaneStatExistsList(t *testing.T) {
	r := newCoreRig(BridgeConfig{})
	r.run(t, func(p *sim.Proc) {
		px := r.bridge.Proxy
		txn := (&objstore.Transaction{}).MkColl("pg.3").
			Write("pg.3", "a", 0, seeded(12_000, 4)).
			Write("pg.3", "b", 0, &wire.Bufferlist{})
		if err := commitP(t, p, px, txn); err != nil {
			t.Fatal(err)
		}
		st, err := objstore.Stat(p, px, "pg.3", "a")
		if err != nil || st.Size != 12_000 {
			t.Fatalf("stat=%+v err=%v", st, err)
		}
		if !objstore.Exists(p, px, "pg.3", "b") || objstore.Exists(p, px, "pg.3", "ghost") {
			t.Fatal("exists wrong")
		}
		names, err := objstore.List(p, px, "pg.3")
		if err != nil || len(names) != 2 || names[0] != "a" || names[1] != "b" {
			t.Fatalf("list=%v err=%v", names, err)
		}
		if _, err := objstore.Stat(p, px, "pg.3", "ghost"); !errors.Is(err, objstore.ErrNotFound) {
			t.Fatalf("err=%v", err)
		}
		if _, err := objstore.List(p, px, "nocoll"); !errors.Is(err, objstore.ErrNoCollection) {
			t.Fatalf("err=%v", err)
		}
		if px.Stats().ControlCalls < 5 {
			t.Fatalf("control calls=%d", px.Stats().ControlCalls)
		}
		// Control traffic must not touch the DMA engine.
		if r.bridge.EngUp.Stats().Transfers != 1 { // just the txn's 1 segment
			t.Fatalf("unexpected DMA transfers: %d", r.bridge.EngUp.Stats().Transfers)
		}
	})
}

func TestReadPathViaDMA(t *testing.T) {
	r := newCoreRig(BridgeConfig{})
	r.run(t, func(p *sim.Proc) {
		px := r.bridge.Proxy
		const size = 5 << 20
		data := seeded(size, 5)
		if err := commitP(t, p, px,
			(&objstore.Transaction{}).MkColl("pg.4").Write("pg.4", "r", 0, data)); err != nil {
			t.Fatal(err)
		}
		got, err := objstore.Read(p, px, "pg.4", "r", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Length() != size || got.CRC32C() != data.CRC32C() {
			t.Fatalf("read mismatch len=%d", got.Length())
		}
		// Read request descriptor went up; 3 data segments came down.
		if n := r.bridge.EngDown.Stats().Transfers; n != 3 {
			t.Fatalf("down transfers=%d want 3", n)
		}
		// Ranged read.
		part, err := objstore.Read(p, px, "pg.4", "r", 100, 500)
		if err != nil || !part.Equal(data.SubList(100, 500)) {
			t.Fatalf("ranged read err=%v", err)
		}
		if _, err := objstore.Read(p, px, "pg.4", "ghost", 0, 0); !errors.Is(err, objstore.ErrNotFound) {
			t.Fatalf("err=%v", err)
		}
	})
}

// TestReadShapesMatchTheStore reads every shape the read path cuts, assembles
// or refuses, once over DMA and once over the RPC fallback of a cooldown, and
// compares each answer byte for byte with BlueStore's own Read of the same
// range: objects on either side of one staging buffer and one that needs
// three segments, ranges on readRange's one-extent and general paths, both
// errors, and a name the inline descriptor cannot hold.
func TestReadShapesMatchTheStore(t *testing.T) {
	long := strings.Repeat("x", readDescBytes)
	buf := int(readStagingBufferBytes)
	objects := []struct {
		name string
		size int
	}{{"empty", 0}, {"4k", 4 << 10}, {"one-buffer", buf}, {"one-buffer+1", buf + 1}, {"three-segments", 5 << 20}, {long, 4 << 10}}
	type rng struct {
		coll, obj   string
		off, length uint64
	}
	var reads []rng
	for _, o := range objects {
		reads = append(reads, rng{"pg.0", o.name, 0, 0})
	}
	// "gappy" is [0, 8K) and [8K, 16K) written apart, a hole, then [32K, 36K).
	reads = append(reads,
		rng{"pg.0", "three-segments", 100, 500},         // inside one extent
		rng{"pg.0", "three-segments", 1 << 20, 3 << 20}, // inside one extent, two segments back
		rng{"pg.0", "gappy", 4 << 10, 8 << 10},          // across two extents
		rng{"pg.0", "gappy", 12 << 10, 24 << 10},        // an extent's tail, the hole, the last extent
		rng{"pg.0", "gappy", 16 << 10, 8 << 10},         // nothing but hole
		rng{"pg.0", "4k", 8 << 10, 0},                   // past the end
		rng{"pg.0", "ghost", 0, 0},                      // not found
		rng{"nocoll", "4k", 0, 0},                       // no collection
	)
	for _, plane := range []string{"dma", "rpc"} {
		cfg := BridgeConfig{}
		cfg.Proxy.CooldownPeriod = 3600 * sim.Second // the rpc plane stays in cooldown throughout
		r := newCoreRig(cfg)
		r.run(t, func(p *sim.Proc) {
			px := r.bridge.Proxy
			txn := objstore.NewTransaction().MkColl("pg.0")
			for i, o := range objects {
				txn.Write("pg.0", o.name, 0, seeded(o.size, byte(i)))
			}
			txn.Write("pg.0", "gappy", 0, seeded(8<<10, 7)).
				Write("pg.0", "gappy", 8<<10, seeded(8<<10, 8)).
				Write("pg.0", "gappy", 32<<10, seeded(4<<10, 9))
			if err := commitP(t, p, px, txn); err != nil {
				t.Fatal(err)
			}
			if plane == "rpc" {
				r.bridge.EngUp.FailNext(1) // the first descriptor: every read goes over RPC
			}
			for _, rd := range reads {
				want, werr := objstore.Read(p, r.store, rd.coll, rd.obj, rd.off, rd.length)
				got, gerr := objstore.Read(p, px, rd.coll, rd.obj, rd.off, rd.length)
				if errToCode(gerr) != errToCode(werr) || werr == nil && !got.Equal(want) {
					t.Errorf("%s: %s/%.12s [%d,+%d): err=%v, want %v (%d bytes, want %d)",
						plane, rd.coll, rd.obj, rd.off, rd.length, gerr, werr, lenOf(got), lenOf(want))
				}
			}
			dmaReads, down := px.Stats().Reads, r.bridge.EngDown.Stats().Transfers
			if plane == "dma" && (dmaReads != int64(len(reads)) || down == 0 || !px.DMAHealthy()) ||
				plane == "rpc" && (dmaReads != 1 || down != 0 || px.DMAHealthy()) {
				t.Errorf("%s: %d reads sent by DMA, %d transfers back, DMA healthy %v", plane, dmaReads, down, px.DMAHealthy())
			}
		})
	}
}

func lenOf(bl *wire.Bufferlist) int {
	if bl == nil {
		return -1
	}
	return bl.Length()
}

func TestDMAFailureFallsBackAndPreservesSegments(t *testing.T) {
	r := newCoreRig(BridgeConfig{})
	r.run(t, func(p *sim.Proc) {
		px := r.bridge.Proxy
		// Seed the collection first over a healthy path.
		if err := commitP(t, p, px, (&objstore.Transaction{}).MkColl("pg.5")); err != nil {
			t.Fatal(err)
		}
		const size = 6 << 20 // 3 segments
		data := seeded(size, 6)
		// Fail exactly one of the three data segments.
		r.bridge.EngUp.FailNext(1)
		err := commitP(t, p, px, (&objstore.Transaction{}).Write("pg.5", "f", 0, data))
		if err != nil {
			t.Fatalf("write should succeed via fallback: %v", err)
		}
		got, rerr := objstore.Read(p, r.store, "pg.5", "f", 0, 0)
		if rerr != nil || got.CRC32C() != data.CRC32C() {
			t.Fatalf("data corrupted after fallback: %v", rerr)
		}
		st := px.Stats()
		if st.FallbackSegments == 0 {
			t.Fatal("no segments fell back to RPC")
		}
		if st.FallbackSegments >= 3 {
			t.Fatalf("completed segments were resent: %d", st.FallbackSegments)
		}
		if st.CooldownEntries != 1 || px.DMAHealthy() {
			t.Fatalf("cooldown not entered: %+v healthy=%v", st, px.DMAHealthy())
		}
	})
}

// TestEveryPathCutsTheSameSegments: with the engine's transfer limit below
// the staging-buffer size, a payload reaches the host in the same number of
// segments over DMA, over DMA with one segment resent by RPC, and over the
// cooldown path where every segment rides RPC.
func TestEveryPathCutsTheSameSegments(t *testing.T) {
	cfg := BridgeConfig{}
	cfg.Engine.MaxTransferBytes = 1 << 20 // staging buffers stay 2 MiB
	r := newCoreRig(cfg)
	r.run(t, func(p *sim.Proc) {
		px := r.bridge.Proxy
		if err := commitP(t, p, px, (&objstore.Transaction{}).MkColl("pg")); err != nil {
			t.Fatal(err)
		}
		arrived := func(obj string) (dma, rpc int64) {
			before := r.bridge.Host.Stats()
			data := seeded(3<<20, 4)
			if err := commitP(t, p, px, (&objstore.Transaction{}).Write("pg", obj, 0, data)); err != nil {
				t.Fatal(err)
			}
			if got, err := objstore.Read(p, r.store, "pg", obj, 0, 0); err != nil || got.CRC32C() != data.CRC32C() {
				t.Fatalf("%s corrupted: %v", obj, err)
			}
			after := r.bridge.Host.Stats()
			return after.SegmentsViaDMA - before.SegmentsViaDMA, after.SegmentsViaRPC - before.SegmentsViaRPC
		}
		dma, rpc := arrived("a")
		want := dma
		if want != 4 || rpc != 0 { // 3 MiB of data plus the transaction header
			t.Fatalf("healthy DMA: %d+%d segments, want 4+0", dma, rpc)
		}
		r.bridge.EngUp.FailNext(1)
		if dma, rpc = arrived("b"); dma != want-1 || rpc != 1 {
			t.Fatalf("DMA then fallback: %d+%d segments, want %d+1", dma, rpc, want-1)
		}
		if px.DMAHealthy() {
			t.Fatal("expected cooldown after the failed segment")
		}
		if dma, rpc = arrived("c"); dma != 0 || rpc != want {
			t.Fatalf("cooldown RPC path: %d+%d segments, want 0+%d", dma, rpc, want)
		}
	})
}

func TestCooldownRoutesToRPCAndProbeRecovers(t *testing.T) {
	cfg := BridgeConfig{}
	cfg.Proxy.CooldownPeriod = 2 * sim.Second
	r := newCoreRig(cfg)
	r.run(t, func(p *sim.Proc) {
		px := r.bridge.Proxy
		if err := commitP(t, p, px, (&objstore.Transaction{}).MkColl("pg.6")); err != nil {
			t.Fatal(err)
		}
		r.bridge.EngUp.FailNext(1)
		if err := commitP(t, p, px,
			(&objstore.Transaction{}).Write("pg.6", "a", 0, seeded(100_000, 7))); err != nil {
			t.Fatal(err)
		}
		if px.DMAHealthy() {
			t.Fatal("expected cooldown")
		}
		// During cooldown all data-plane traffic uses RPC.
		before := r.bridge.EngUp.Stats().Transfers
		if err := commitP(t, p, px,
			(&objstore.Transaction{}).Write("pg.6", "b", 0, seeded(100_000, 8))); err != nil {
			t.Fatal(err)
		}
		if r.bridge.EngUp.Stats().Transfers != before {
			t.Fatal("DMA used during cooldown")
		}
		if px.Stats().FallbackTxns == 0 {
			t.Fatal("fallback txn not counted")
		}
		// After the cooldown expires a probe re-enables DMA.
		p.Wait(3 * sim.Second)
		if err := commitP(t, p, px,
			(&objstore.Transaction{}).Write("pg.6", "c", 0, seeded(100_000, 9))); err != nil {
			t.Fatal(err)
		}
		if !px.DMAHealthy() || px.Stats().Probes != 1 {
			t.Fatalf("probe recovery failed: %+v healthy=%v", px.Stats(), px.DMAHealthy())
		}
		// All three objects intact.
		for _, obj := range []string{"a", "b", "c"} {
			if _, err := objstore.Stat(p, r.store, "pg.6", obj); err != nil {
				t.Fatalf("%s: %v", obj, err)
			}
		}
	})
}

// TestFirstDMAFailureEntersCooldown: the first DMA error turns DMA off for
// the cooldown (paper §4); no failure count or threshold stands between them.
func TestFirstDMAFailureEntersCooldown(t *testing.T) {
	r := newCoreRig(BridgeConfig{})
	r.run(t, func(p *sim.Proc) {
		px := r.bridge.Proxy
		r.bridge.EngUp.FailNext(1)
		txn := (&objstore.Transaction{}).MkColl("pg.0").Write("pg.0", "o", 0, seeded(60_000, 1))
		if err := commitP(t, p, px, txn); err != nil {
			t.Fatal(err)
		}
		if px.DMAHealthy() {
			t.Fatal("cooldown not entered on the first failure")
		}
		if px.Stats().CooldownEntries != 1 {
			t.Fatalf("cooldown entries = %d, want 1", px.Stats().CooldownEntries)
		}
	})
}

func TestFailedProbeExtendsCooldown(t *testing.T) {
	cfg := BridgeConfig{}
	cfg.Proxy.CooldownPeriod = sim.Second
	r := newCoreRig(cfg)
	r.run(t, func(p *sim.Proc) {
		px := r.bridge.Proxy
		if err := commitP(t, p, px, (&objstore.Transaction{}).MkColl("pg.7")); err != nil {
			t.Fatal(err)
		}
		r.bridge.EngUp.FailNext(1)
		if err := commitP(t, p, px,
			(&objstore.Transaction{}).Write("pg.7", "a", 0, seeded(50_000, 1))); err != nil {
			t.Fatal(err)
		}
		p.Wait(2 * sim.Second)
		r.bridge.EngUp.FailNext(1) // the probe itself fails
		if err := commitP(t, p, px,
			(&objstore.Transaction{}).Write("pg.7", "b", 0, seeded(50_000, 2))); err != nil {
			t.Fatal(err)
		}
		if px.DMAHealthy() {
			t.Fatal("probe failure should keep DMA disabled")
		}
		if px.Stats().ProbeFailures != 1 {
			t.Fatalf("stats=%+v", px.Stats())
		}
	})
}

func TestMRCacheAvoidsRenegotiation(t *testing.T) {
	r := newCoreRig(BridgeConfig{})
	r.run(t, func(p *sim.Proc) {
		px := r.bridge.Proxy
		txn := (&objstore.Transaction{}).MkColl("pg.8").Write("pg.8", "o", 0, seeded(5<<20, 3))
		if err := commitP(t, p, px, txn); err != nil {
			t.Fatal(err)
		}
		if err := commitP(t, p, px,
			(&objstore.Transaction{}).Write("pg.8", "o2", 0, seeded(5<<20, 4))); err != nil {
			t.Fatal(err)
		}
		// With the MR cache, both regions negotiate exactly once.
		if n := r.bridge.CC.Negotiations(); n != 2 {
			t.Fatalf("negotiations=%d want 2", n)
		}
	})
}

func TestNoMRCacheRenegotiatesPerSegment(t *testing.T) {
	cfg := BridgeConfig{}
	cfg.Proxy.DisableMRCache = true
	r := newCoreRig(cfg)
	r.run(t, func(p *sim.Proc) {
		px := r.bridge.Proxy
		txn := (&objstore.Transaction{}).MkColl("pg.9").Write("pg.9", "o", 0, seeded(5<<20, 5))
		if err := commitP(t, p, px, txn); err != nil {
			t.Fatal(err)
		}
		// 3 segments, each renegotiating, plus the initial pair.
		if n := r.bridge.CC.Negotiations(); n < 5 {
			t.Fatalf("negotiations=%d, want per-segment renegotiation", n)
		}
	})
}

func TestPipeliningOverlapsStagingAndTransfer(t *testing.T) {
	elapsed := func(pipeline bool) sim.Duration {
		cfg := BridgeConfig{}
		cfg.Proxy.DisablePipeline = !pipeline
		// Slow the DMA so overlap matters.
		cfg.Engine.BytesPerSec = 1e9
		r := newCoreRig(cfg)
		var d sim.Duration
		r.run(t, func(p *sim.Proc) {
			px := r.bridge.Proxy
			start := p.Now()
			res := px.QueueTransaction(p,
				(&objstore.Transaction{}).MkColl("pg").Write("pg", "o", 0, seeded(16<<20, 6)))
			res.Done.Wait(p)
			d = p.Now().Sub(start)
		})
		return d
	}
	with, without := elapsed(true), elapsed(false)
	if with >= without {
		t.Fatalf("pipelining did not help: with=%v without=%v", with, without)
	}
}

func TestBreakdownAccumulates(t *testing.T) {
	r := newCoreRig(BridgeConfig{})
	r.run(t, func(p *sim.Proc) {
		px := r.bridge.Proxy
		if err := commitP(t, p, px,
			(&objstore.Transaction{}).MkColl("pg").Write("pg", "o", 0, seeded(4<<20, 7))); err != nil {
			t.Fatal(err)
		}
		b := px.BreakdownSnapshot()
		if b.Requests != 1 || b.HostWrite <= 0 || b.DMA <= 0 {
			t.Fatalf("breakdown=%+v", b)
		}
		hw, dma, _ := b.Avg()
		if hw <= 0 || dma <= 0 {
			t.Fatalf("avg=%v %v", hw, dma)
		}
		px.ResetBreakdown()
		if px.BreakdownSnapshot().Requests != 0 {
			t.Fatal("reset failed")
		}
	})
}

func TestConcurrentProxyWrites(t *testing.T) {
	r := newCoreRig(BridgeConfig{})
	r.run(t, func(p *sim.Proc) {
		px := r.bridge.Proxy
		if err := commitP(t, p, px, (&objstore.Transaction{}).MkColl("pg")); err != nil {
			t.Fatal(err)
		}
		var results []*objstore.Result
		for i := 0; i < 16; i++ {
			obj := string(rune('a' + i))
			results = append(results, px.QueueTransaction(p,
				(&objstore.Transaction{}).Write("pg", obj, 0, seeded(3<<20, byte(i)))))
		}
		for _, res := range results {
			res.Done.Wait(p)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
		}
		names, err := objstore.List(p, r.store, "pg")
		if err != nil || len(names) != 16 {
			t.Fatalf("names=%d err=%v", len(names), err)
		}
	})
}

// TestProxyPeakStagingHighWater pins the staging-occupancy accounting: a
// single sub-segment write stages exactly its payload (the high-water mark
// equals the write size), and a segmented write never stages more than the
// whole object — segments are released as their DMA completes, so the mark
// is a true occupancy peak, not a cumulative byte counter.
func TestProxyPeakStagingHighWater(t *testing.T) {
	r := newCoreRig(BridgeConfig{})
	r.run(t, func(p *sim.Proc) {
		px := r.bridge.Proxy
		const n = 300_000
		txn := (&objstore.Transaction{}).MkColl("pg.9").Write("pg.9", "o", 0, seeded(n, 9))
		if err := commitP(t, p, px, txn); err != nil {
			t.Fatal(err)
		}
		// The staged segment carries the payload plus a few bytes of
		// encoded-transaction framing.
		if got := px.Stats().PeakStagingBytes; got < n || got > n+1024 {
			t.Errorf("peak staging after one %d-byte write = %d", n, got)
		}
	})

	r2 := newCoreRig(BridgeConfig{})
	r2.run(t, func(p *sim.Proc) {
		px := r2.bridge.Proxy
		const size = 5 << 20 // 3 DMA segments
		txn := (&objstore.Transaction{}).MkColl("pg.9").Write("pg.9", "big", 0, seeded(size, 10))
		if err := commitP(t, p, px, txn); err != nil {
			t.Fatal(err)
		}
		peak := px.Stats().PeakStagingBytes
		if peak < 2<<20 || peak > size+1024 {
			t.Errorf("segmented peak staging = %d, want within [one segment, object size] = [%d, %d]",
				peak, 2<<20, size)
		}
	})
}

// TestFallbackSegmentHeaderValidated: the host sizes a request's reassembly
// table by the segment count the first segment claims, so a fallback frame
// whose index lies outside its own count, or whose count is absurd, must be
// rejected at decode — and a later segment that contradicts the first is
// dropped and counted, not filed.
func TestFallbackSegmentHeaderValidated(t *testing.T) {
	payload := seeded(64, 1)
	for name, f := range map[string]*wire.Bufferlist{
		"index == total": encodeSegFallback(1, 1, 2, 2, payload),
		"zero total":     encodeSegFallback(1, 1, 0, 0, payload),
		"huge total":     encodeSegFallback(1, 1, 0, maxTxnSegments+1, payload),
	} {
		if _, _, _, _, _, err := decodeSegFallback(f); err == nil {
			t.Errorf("%s: frame accepted", name)
		}
	}
	if _, _, seg, total, _, err := decodeSegFallback(encodeSegFallback(1, 1, 1, 2, payload)); err != nil || seg != 1 || total != 2 {
		t.Fatalf("valid frame: seg=%d total=%d err=%v", seg, total, err)
	}

	r := newCoreRig(BridgeConfig{})
	r.run(t, func(p *sim.Proc) {
		hs := r.bridge.Host
		hs.fileSegment(900, 0, 3, payload, 0, 0)
		hs.fileSegment(900, 1, 2, payload, 0, 0) // count changed
		hs.fileSegment(900, 3, 3, payload, 0, 0) // index out of range
		if a := hs.asm[900]; a == nil || a.have != 1 || hs.stats.FrameErrors != 2 {
			t.Fatalf("assembly %+v, frame errors %d; want one filed segment and two rejects", a, hs.stats.FrameErrors)
		}
	})
}

// TestReadSegmentTagsValidated: the proxy sizes a read's reply table by the
// count its first data segment claims (one slot in the record for one), so a
// segment whose index lies outside its own count, or whose count contradicts
// the first, is dropped and counted — not a panic in the DPU poller — and a
// duplicate fills no second slot.
func TestReadSegmentTagsValidated(t *testing.T) {
	r := newCoreRig(BridgeConfig{})
	r.run(t, func(p *sim.Proc) {
		px := r.bridge.Proxy
		data := seeded(64, 1)
		errs := int64(0)
		type tag struct {
			seg, total int
			bad        bool // to be dropped and counted
		}
		for _, reply := range []struct {
			name  string
			steps []tag
			have  int
			done  bool
		}{
			{name: "out of range, then two segments with a changed count and a duplicate",
				steps: []tag{{1, 1, true}, {-1, 2, true}, {0, 2, false}, {1, 3, true}, {0, 1, true}, {0, 2, false}, {1, 2, false}},
				have:  2, done: true},
			{name: "one segment, then a second claiming two",
				steps: []tag{{0, 1, false}, {1, 2, true}},
				have:  1, done: true},
			{name: "duplicate first of two",
				steps: []tag{{0, 2, false}, {0, 2, false}},
				have:  1},
		} {
			pr := &pendingRead{}
			px.pendingReads[900] = pr
			for i, s := range reply.steps {
				// The host's record keeps a reference of its own: the poller's
				// does not put it back.
				px.harvestRead(&doca.Transfer{Data: data, Tag: &readSeg{
					hdr: segHeader{kind: segReadData, reqID: 900, seg: s.seg, total: s.total},
					hr:  &hostRead{refs: 2}}})
				if s.bad {
					errs++
				}
				if got := px.Stats().ReadFrameErrors; got != errs {
					t.Fatalf("%s, step %d (seg %d of %d): %d frame errors, want %d", reply.name, i, s.seg, s.total, got, errs)
				}
			}
			if int(pr.have) != reply.have || pr.done.Fired() != reply.done {
				t.Errorf("%s: %d slots filled, done=%v; want %d, %v", reply.name, pr.have, pr.done.Fired(), reply.have, reply.done)
			}
			delete(px.pendingReads, 900)
		}
	})
}

// TestTeardownReturnsBuffersTasksAndProcs is the data plane's teardown
// assertion. After a completed run — segmented writes, plain and batched, and
// a segmented read — the bridge is at rest (Bridge.Quiescent: every staging
// buffer on both sides back in its pool, the staging gauge back to zero,
// nothing filed), every crossing record is back (sim.Env.RecordsOut) and
// nothing but the daemons is live. A Shutdown with transfers in flight drops the pending completion
// tasks along with the procs.
func TestTeardownReturnsBuffersTasksAndProcs(t *testing.T) {
	for _, c := range []struct {
		name   string
		cfg    BridgeConfig
		stream bool // the writes are StreamReuse chunks, as the OSD's stream ingest submits them
	}{
		{name: "per-op"},
		{name: "batched", cfg: BridgeConfig{Batch: BatchConfig{Enable: true}}},
		{name: "streamed", stream: true},
	} {
		name := c.name
		r := newCoreRig(c.cfg)
		px := r.bridge.Proxy
		// The daemons reach their first waits; the DMA queues' first steps
		// find nothing to do, and an idle queue is not live.
		if err := r.env.RunUntil(0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		daemons := r.env.LiveProcs()
		const size = 5 << 20 // 3 DMA segments each way
		th := sim.NewThread("dpu-osd-worker", "tp_osd_tp")
		write := func(obj string, off uint64, data *wire.Bufferlist) *objstore.Transaction {
			txn := objstore.NewTransaction().Write("pg.0", obj, off, data)
			txn.StreamReuse = c.stream
			return txn
		}
		r.env.Spawn("body", func(p *sim.Proc) {
			p.SetThread(th)
			results := []*objstore.Result{
				px.QueueTransaction(p, (&objstore.Transaction{}).MkColl("pg.0")),
				px.QueueTransaction(p, write("big", 0, seeded(size, 1))),
				px.QueueTransaction(p, write("small", 0, seeded(4096, 2))),
			}
			if c.stream { // the rest of a stream: 2 MiB chunks, two segments each with their header
				for off := uint64(size); off < size+(6<<20); off += 2 << 20 {
					results = append(results, px.QueueTransaction(p, write("big", off, seeded(2<<20, 3))))
				}
			}
			for _, res := range results {
				res.Done.Wait(p)
				if res.Err != nil {
					t.Errorf("%s: commit: %v", name, res.Err)
				}
			}
			if bl, err := objstore.Read(p, px, "pg.0", "big", 0, size); err != nil || bl.Length() != size {
				t.Errorf("%s: read back: %v", name, err)
			}
		})
		if err := r.env.RunUntil(sim.Time(60 * sim.Second)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := r.bridge.Quiescent(); err != nil {
			t.Errorf("%s: not at rest after the run: %v", name, err)
		}
		if out := r.env.RecordsOut(); out != nil {
			t.Errorf("%s: records out: %v", name, out)
		}
		if live := r.env.LiveProcs(); live != daemons {
			t.Errorf("%s: %d procs and tasks live after the run, %d daemons before it", name, live, daemons)
		}
		if tasks := r.env.Stats().TaskRuns; tasks == 0 {
			t.Errorf("%s: no completion task ran", name)
		}

		// Second write, stopped while its segments are on the engine.
		r.env.Spawn("cut-short", func(p *sim.Proc) {
			p.SetThread(th)
			px.QueueTransaction(p, write("big2", 0, seeded(size, 3)))
		})
		for step := 0; px.stagingBytes == 0; step++ {
			if step == 1000 {
				t.Fatalf("%s: nothing was ever staged", name)
			}
			if err := r.env.RunUntil(r.env.Now().Add(10 * sim.Microsecond)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if r.env.LiveProcs() <= daemons || r.dev.Buffers.Available() == r.dev.Buffers.Capacity() {
			t.Fatalf("%s: no transfer in flight; the test observes nothing", name)
		}
		r.env.Shutdown()
		if live := r.env.LiveProcs(); live != 0 {
			t.Errorf("%s: %d procs or tasks survived Shutdown", name, live)
		}
	}
}

// streamChunks submits n one-write 2 MiB StreamReuse transactions one after
// the other — what the OSD's stream ingest hands the proxy per chunk — eight
// to an object, and waits for each to commit.
func streamChunks(t *testing.T, p *sim.Proc, px *Proxy, chunk *wire.Bufferlist, first, n int) {
	for i := first; i < first+n; i++ {
		txn := objstore.NewTransaction().Write("pg.0", objNames[i/8%len(objNames)], uint64(i%8)<<21, chunk)
		txn.StreamReuse = true
		if err := commitP(t, p, px, txn); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
}

var objNames = [...]string{"stream_obj_0", "stream_obj_1", "stream_obj_2", "stream_obj_3",
	"stream_obj_4", "stream_obj_5", "stream_obj_6", "stream_obj_7", "stream_obj_8", "stream_obj_9"}

// TestCrossingAllocationBudget holds one transaction crossing — proxy, DMA
// engine, host assembly, BlueStore commit, completion RPC — to its allocation
// budget: one above each shape's count today, and its bytes today plus 48, so
// that the next record somebody adds to the path, or one that moves up a size
// class, fails here, not in a benchmark. The pendingTxn, the segment table,
// the hostTxn with the joined payload, BlueStore's txc, the batch frame, the
// commit notification's envelope and a coalesced one's frame come from free
// lists and cost nothing:
//
//   - "stream chunk" (4.05, 383 B): the 2 MiB write the streamed 16 MiB op
//     submits sixteen times, into an object eight chunks share, in two DMA
//     segments. The caller's transaction and its Result; the decoded data
//     view; and, once per eight chunks, the object's onode and decoded name
//     and the growth of its extent and block tables (0.75).
//   - "4 MiB new object" (5.06, 555 B): the shape paper-4M-doceph crosses
//     with, in three segments. The caller's transaction and Result, the data
//     view, and the new object's onode and name.
//   - "batched 64 KiB new object" (5.06, 507 B): one op per frame, as
//     batch-64K-mq4 mostly ships. The caller's transaction and Result; the
//     data view, the name and the onode. The payload's view of the frame is
//     unpacked into the host poller's table, the coalesced notification into
//     the proxy's.
func TestCrossingAllocationBudget(t *testing.T) {
	chunk, big, small := seeded(2<<20, 5), seeded(4<<20, 6), seeded(64<<10, 7)
	var names [80]string
	for i := range names {
		names[i] = "benchmark_data_w0_" + strconv.Itoa(i)
	}
	newObject := func(data *wire.Bufferlist) func(*testing.T, *sim.Proc, *Proxy, int) {
		return func(t *testing.T, p *sim.Proc, px *Proxy, i int) {
			if err := commitP(t, p, px, objstore.NewTransaction().Write("pg.0", names[i], 0, data)); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
	}
	for _, c := range []struct {
		name      string
		cfg       BridgeConfig
		ceiling   float64 // allocations per crossing
		bytes     float64 // bytes per crossing
		transfers int     // per crossing
		cross     func(t *testing.T, p *sim.Proc, px *Proxy, i int)
	}{
		{"stream chunk", BridgeConfig{}, 5, 431, 2, func(t *testing.T, p *sim.Proc, px *Proxy, i int) {
			streamChunks(t, p, px, chunk, i, 1)
		}},
		{"4 MiB new object", BridgeConfig{}, 6, 603, 3, newObject(big)},
		{"batched 64 KiB new object", BridgeConfig{Batch: BatchConfig{Enable: true}}, 6, 555, 1, newObject(small)},
	} {
		r := newCoreRig(c.cfg)
		r.run(t, func(p *sim.Proc) {
			px := r.bridge.Proxy
			if err := commitP(t, p, px, (&objstore.Transaction{}).MkColl("pg.0")); err != nil {
				t.Fatal(err)
			}
			const warm, crossings = 16, 64 // pools, maps and queues reach their size while warming
			for i := 0; i < warm; i++ {
				c.cross(t, p, px, i)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := warm; i < warm+crossings; i++ {
				c.cross(t, p, px, i)
			}
			runtime.ReadMemStats(&after)
			per := float64(after.Mallocs-before.Mallocs) / crossings
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / crossings
			t.Logf("%s: %.2f allocations, %.0f B per crossing", c.name, per, bytes)
			if per > c.ceiling || bytes > c.bytes {
				t.Errorf("%s: %.2f allocations, %.0f B per crossing; want at most %.0f and %.0f B",
					c.name, per, bytes, c.ceiling, c.bytes)
			}
			if n := r.bridge.EngUp.Stats().Transfers; n != int64(c.transfers*(warm+crossings)+1) {
				t.Errorf("%s: %d transfers; want %d per crossing", c.name, n, c.transfers)
			}
		})
	}
}

// readAllocCeiling is one above what a 4 KiB read crossing allocates today (2:
// the decoded object name and BlueStore's view of the extent; the pendingRead,
// the hostRead, BlueStore's call record and a proc's objstore.Call come from
// free lists), and readBytesCeiling its bytes (80) plus 32, whoever reads:
// objstore.Read from a proc, ReadThen from a task chain, as the OSD's op
// workers call it.
// The next record somebody adds to the read path fails here, not in a
// benchmark.
const (
	readAllocCeiling = 3
	readBytesCeiling = 112
)

// TestReadCrossingAllocationBudget holds one read crossing — descriptor DMA to
// the host, BlueStore read, data DMA back, reassembly on the proxy — to its
// allocation budget, on the 4 KiB shape mix70-4K-doceph reads.
func TestReadCrossingAllocationBudget(t *testing.T) {
	for _, chains := range []bool{false, true} {
		r := newCoreRig(BridgeConfig{})
		r.run(t, func(p *sim.Proc) {
			px := r.bridge.Proxy
			txn := objstore.NewTransaction().MkColl("pg.0")
			for i, obj := range objNames {
				txn.Write("pg.0", obj, 0, seeded(4096, byte(i)))
			}
			if err := commitP(t, p, px, txn); err != nil {
				t.Fatal(err)
			}
			steps := make([]scriptStep, 16+crossingReads)
			for i := range steps {
				steps[i] = scriptStep{coll: "pg.0", obj: objNames[i%len(objNames)], n: 4096}
			}
			check := func(s scriptStep, bl *wire.Bufferlist, err error) {
				if err != nil || bl.Length() != 4096 {
					t.Errorf("read of %s: err=%v", s.obj, err)
				}
			}
			// The chain readers and their completions are made ahead of the
			// measurement.
			var warmed, measured sim.Event
			readers := []*chainReader{
				{r: r, th: p.Thread(), steps: steps[:16], check: check, done: warmed.Fire},
				{r: r, th: p.Thread(), steps: steps[16:], check: check, done: measured.Fire},
			}
			read := func(k int, done *sim.Event) {
				if chains {
					r.env.Delay(0, readers[k])
					done.Wait(p)
					return
				}
				for _, s := range readers[k].steps {
					bl, err := objstore.Read(p, px, s.coll, s.obj, s.off, s.n)
					check(s, bl, err)
				}
			}
			read(0, &warmed) // pools, maps and queues reach their size
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			read(1, &measured)
			runtime.ReadMemStats(&after)
			per := float64(after.Mallocs-before.Mallocs) / crossingReads
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / crossingReads
			t.Logf("chains=%v: %.2f allocations, %.0f B per read crossing", chains, per, bytes)
			if per > readAllocCeiling || bytes > readBytesCeiling {
				t.Fatalf("chains=%v: %.2f allocations, %.0f B per read crossing; want at most %d and %d B",
					chains, per, bytes, readAllocCeiling, readBytesCeiling)
			}
			if n := r.bridge.EngDown.Stats().Transfers; n != int64(len(steps)) {
				t.Fatalf("chains=%v: %d transfers to the DPU; want one per read", chains, n)
			}
		})
	}
}

// crossingReads is how many reads TestReadCrossingAllocationBudget measures.
const crossingReads = 64

// TestResultReadableLongAfterDone: the caller keeps reading a Result after
// Done — a stream's barrier holds every chunk's to the end — so the record it
// lives in is never handed to a later transaction. A thousand commits later
// both an old success and an old failure still report their own outcome.
func TestResultReadableLongAfterDone(t *testing.T) {
	r := newCoreRig(BridgeConfig{})
	r.run(t, func(p *sim.Proc) {
		px := r.bridge.Proxy
		if err := commitP(t, p, px, (&objstore.Transaction{}).MkColl("pg.0")); err != nil {
			t.Fatal(err)
		}
		ok := px.QueueTransaction(p, objstore.NewTransaction().Write("pg.0", "kept", 0, seeded(3<<20, 1)))
		bad := px.QueueTransaction(p, objstore.NewTransaction().Write("nowhere", "kept", 0, seeded(4096, 2)))
		ok.Done.Wait(p)
		bad.Done.Wait(p)
		okTime, badTime := ok.ServiceTime, bad.ServiceTime
		if ok.Err != nil || !errors.Is(bad.Err, objstore.ErrNoCollection) {
			t.Fatalf("ok: err=%v; bad: err=%v", ok.Err, bad.Err)
		}
		small := seeded(4096, 3)
		for i := 0; i < 1000; i++ { // successes and failures alike, so either old record would show a reuse
			coll := [2]string{"pg.0", "nowhere"}[i%2]
			if err := commitP(t, p, px, objstore.NewTransaction().Write(coll, "later", 0, small)); (err != nil) != (i%2 == 1) {
				t.Fatalf("later commit %d into %s: %v", i, coll, err)
			}
		}
		if !ok.Done.Fired() || ok.Err != nil || ok.ServiceTime != okTime {
			t.Errorf("old success now reads err=%v service=%v, was nil and %v", ok.Err, ok.ServiceTime, okTime)
		}
		if !errors.Is(bad.Err, objstore.ErrNoCollection) || bad.ServiceTime != badTime {
			t.Errorf("old failure now reads err=%v service=%v, was ErrNoCollection and %v", bad.Err, bad.ServiceTime, badTime)
		}
	})
}

// TestTxnDoneFrameRoundTrip: the notification a hostTxn carries inside itself
// decodes to what was put in, again after the record's frame is rewritten.
func TestTxnDoneFrameRoundTrip(t *testing.T) {
	var f txnDoneFrame
	for _, in := range []txnDoneEntry{{reqID: 1<<40 + 7, code: rcNoColl, hostNanos: 123_456_789}, {reqID: 2, hostNanos: -1}} {
		f.encode(in.reqID, in.code, in.hostNanos)
		reqID, code, nanos, err := decodeTxnDone(&f.bl.Bufferlist)
		if got := (txnDoneEntry{reqID: reqID, code: code, hostNanos: nanos}); err != nil || got != in {
			t.Fatalf("decoded %+v (err %v), want %+v", got, err, in)
		}
	}
}
