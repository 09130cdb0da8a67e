package core

import (
	"runtime"
	"testing"
	"time"

	"doceph/internal/objstore"
	"doceph/internal/sim"
)

func batchedRig(mut func(*BridgeConfig)) *coreRig {
	cfg := BridgeConfig{Batch: BatchConfig{Enable: true}}
	if mut != nil {
		mut(&cfg)
	}
	return newCoreRig(cfg)
}

func TestBatchedSmallWritesCoalesce(t *testing.T) {
	r := batchedRig(nil)
	r.run(t, func(p *sim.Proc) {
		px := r.bridge.Proxy
		if err := commitP(t, p, px, (&objstore.Transaction{}).MkColl("pg")); err != nil {
			t.Fatal(err)
		}
		base := r.bridge.EngUp.Stats().Transfers
		var results []*objstore.Result
		const n = 16
		for i := 0; i < n; i++ {
			obj := string(rune('a' + i))
			results = append(results, px.QueueTransaction(p,
				(&objstore.Transaction{}).Write("pg", obj, 0, seeded(16<<10, byte(i)))))
		}
		for _, res := range results {
			res.Done.Wait(p)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
		}
		eng := r.bridge.EngUp.Stats()
		if got := eng.Transfers - base; got >= n {
			t.Fatalf("no coalescing: %d transfers for %d ops", got, n)
		}
		if eng.OpsMoved <= eng.Transfers {
			t.Fatalf("engine ops accounting: ops=%d transfers=%d", eng.OpsMoved, eng.Transfers)
		}
		st := px.Stats()
		if st.BatchedTxns < n || st.BatchFlushes == 0 || st.BatchFlushes >= st.BatchedTxns {
			t.Fatalf("batch stats=%+v", st)
		}
		hst := r.bridge.Host.Stats()
		if hst.BatchFrames == 0 || hst.BatchedOps < n {
			t.Fatalf("host batch stats=%+v", hst)
		}
		// Completion notifications were coalesced too.
		if hst.NotifyBatches == 0 || hst.NotifyBatches >= hst.TxnsCommitted {
			t.Fatalf("notify batching absent: %+v", hst)
		}
		// Every payload landed intact on the host.
		for i := 0; i < n; i++ {
			obj := string(rune('a' + i))
			got, err := objstore.Read(p, r.store, "pg", obj, 0, 0)
			if err != nil || got.CRC32C() != seeded(16<<10, byte(i)).CRC32C() {
				t.Fatalf("%s corrupted: %v", obj, err)
			}
		}
	})
}

func TestBatchLargeOpsBypassAndOrderingHolds(t *testing.T) {
	r := batchedRig(nil)
	r.run(t, func(p *sim.Proc) {
		px := r.bridge.Proxy
		if err := commitP(t, p, px, (&objstore.Transaction{}).MkColl("pg")); err != nil {
			t.Fatal(err)
		}
		// A small batched write followed immediately by a large segmented
		// write to the SAME object: the large one ships on the per-op path
		// right away, but the host must still commit in txnSeq order, so
		// the large write's content wins.
		small := px.QueueTransaction(p,
			(&objstore.Transaction{}).Write("pg", "o", 0, seeded(32<<10, 1)))
		big := seeded(5<<20, 2)
		large := px.QueueTransaction(p,
			(&objstore.Transaction{}).Write("pg", "o", 0, big))
		small.Done.Wait(p)
		large.Done.Wait(p)
		if small.Err != nil || large.Err != nil {
			t.Fatalf("errs: %v %v", small.Err, large.Err)
		}
		got, err := objstore.Read(p, r.store, "pg", "o", 0, 0)
		if err != nil || got.Length() != 5<<20 || got.CRC32C() != big.CRC32C() {
			t.Fatalf("commit order violated: len=%d err=%v", got.Length(), err)
		}
		// The large op never entered the batcher.
		if st := px.Stats(); st.BatchedTxns > 2 { // MkColl + small
			t.Fatalf("large op was batched: %+v", st)
		}
	})
}

func TestBatchFlushOnByteThreshold(t *testing.T) {
	r := batchedRig(func(cfg *BridgeConfig) {
		cfg.Batch.MaxBatchBytes = 64 << 10
	})
	r.run(t, func(p *sim.Proc) {
		px := r.bridge.Proxy
		if err := commitP(t, p, px, (&objstore.Transaction{}).MkColl("pg")); err != nil {
			t.Fatal(err)
		}
		var results []*objstore.Result
		for i := 0; i < 8; i++ {
			obj := string(rune('a' + i))
			results = append(results, px.QueueTransaction(p,
				(&objstore.Transaction{}).Write("pg", obj, 0, seeded(16<<10, byte(i)))))
		}
		for _, res := range results {
			res.Done.Wait(p)
		}
		st := px.Stats()
		if st.BatchFlushBytes == 0 {
			t.Fatalf("byte-threshold flush never fired: %+v", st)
		}
	})
}

func TestBatchIdleFlushBoundsSoloLatency(t *testing.T) {
	r := batchedRig(nil)
	r.run(t, func(p *sim.Proc) {
		px := r.bridge.Proxy
		if err := commitP(t, p, px, (&objstore.Transaction{}).MkColl("pg")); err != nil {
			t.Fatal(err)
		}
		start := p.Now()
		if err := commitP(t, p, px,
			(&objstore.Transaction{}).Write("pg", "solo", 0, seeded(8<<10, 3))); err != nil {
			t.Fatal(err)
		}
		lat := p.Now().Sub(start)
		// A lone op flushes after one idle gap, not after MaxDelay: its
		// added latency stays well under DMA setup + commit + MaxDelay.
		if lat > 10*sim.Millisecond {
			t.Fatalf("solo batched write took %v", lat)
		}
		if st := px.Stats(); st.BatchFlushIdle == 0 {
			t.Fatalf("idle flush never fired: %+v", st)
		}
	})
}

func TestBatchMaxDelayFlushUnderSteadyTrickle(t *testing.T) {
	r := batchedRig(func(cfg *BridgeConfig) {
		// Delay-only policy: the idle gap equals MaxDelay, so a steady
		// trickle of arrivals can only be cut off by the max-delay timer.
		cfg.Batch.IdleDelay = 400 * sim.Microsecond
		cfg.Batch.MaxDelay = 400 * sim.Microsecond
	})
	r.run(t, func(p *sim.Proc) {
		px := r.bridge.Proxy
		if err := commitP(t, p, px, (&objstore.Transaction{}).MkColl("pg")); err != nil {
			t.Fatal(err)
		}
		var results []*objstore.Result
		for i := 0; i < 12; i++ {
			obj := string(rune('a' + i))
			results = append(results, px.QueueTransaction(p,
				(&objstore.Transaction{}).Write("pg", obj, 0, seeded(4<<10, byte(i)))))
			p.Wait(50 * sim.Microsecond)
		}
		for _, res := range results {
			res.Done.Wait(p)
			if res.Err != nil {
				t.Fatal(res.Err)
			}
		}
		if st := px.Stats(); st.BatchFlushDelay == 0 {
			t.Fatalf("max-delay flush never fired: %+v", st)
		}
	})
}

func TestBatchDMAErrorFallsBackToBatchedRPC(t *testing.T) {
	r := batchedRig(nil)
	r.run(t, func(p *sim.Proc) {
		px := r.bridge.Proxy
		if err := commitP(t, p, px, (&objstore.Transaction{}).MkColl("pg")); err != nil {
			t.Fatal(err)
		}
		r.bridge.EngUp.FailNext(1)
		var results []*objstore.Result
		for i := 0; i < 4; i++ {
			obj := string(rune('a' + i))
			results = append(results, px.QueueTransaction(p,
				(&objstore.Transaction{}).Write("pg", obj, 0, seeded(16<<10, byte(i)))))
		}
		for _, res := range results {
			res.Done.Wait(p)
			if res.Err != nil {
				t.Fatalf("write should survive batch DMA failure: %v", res.Err)
			}
		}
		st := px.Stats()
		if st.CooldownEntries != 1 || px.DMAHealthy() {
			t.Fatalf("cooldown not entered: %+v healthy=%v", st, px.DMAHealthy())
		}
		if st.FallbackSegments == 0 {
			t.Fatalf("batch did not fall back: %+v", st)
		}
		// During cooldown further batches ride ONE control call per flush,
		// never the engine.
		before := r.bridge.EngUp.Stats().Transfers
		if err := commitP(t, p, px,
			(&objstore.Transaction{}).Write("pg", "z", 0, seeded(16<<10, 9))); err != nil {
			t.Fatal(err)
		}
		if r.bridge.EngUp.Stats().Transfers != before {
			t.Fatal("DMA used during cooldown")
		}
		if hst := r.bridge.Host.Stats(); hst.SegmentsViaRPC == 0 {
			t.Fatalf("no batched RPC fallback on host: %+v", hst)
		}
		// All five objects intact.
		for _, obj := range []string{"a", "b", "c", "d", "z"} {
			if _, err := objstore.Stat(p, r.store, "pg", obj); err != nil {
				t.Fatalf("%s: %v", obj, err)
			}
		}
	})
}

func TestBatchDisabledSpawnsNothing(t *testing.T) {
	r := newCoreRig(BridgeConfig{})
	r.run(t, func(p *sim.Proc) {
		px := r.bridge.Proxy
		if px.batchCond != nil || px.thBatch != nil {
			t.Fatal("batcher state exists with batching disabled")
		}
		if len(r.bridge.Host.notify) != 0 {
			t.Fatal("notify batcher exists with batching disabled")
		}
		if err := commitP(t, p, px,
			(&objstore.Transaction{}).MkColl("pg").Write("pg", "o", 0, seeded(8<<10, 1))); err != nil {
			t.Fatal(err)
		}
		st := px.Stats()
		if st.BatchedTxns != 0 || st.BatchFlushes != 0 {
			t.Fatalf("batch counters moved while disabled: %+v", st)
		}
	})
}

// TestFlushBatchReleasesShippedOps: an op the batcher has shipped must not
// stay reachable through the batch queue's backing array — it holds a view of
// its transaction's whole payload.
func TestFlushBatchReleasesShippedOps(t *testing.T) {
	r := batchedRig(nil)
	freed := make(chan uint64, 2)
	r.run(t, func(p *sim.Proc) {
		px := r.bridge.Proxy
		if err := commitP(t, p, px, (&objstore.Transaction{}).MkColl("pg")); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			// What QueueTransaction files with the batcher, built here so the
			// test can watch the op itself; nobody waits on its completion.
			px.nextReq++
			px.nextTxnSeq++
			op := newBatchOp(px.nextReq, px.nextTxnSeq,
				(&objstore.Transaction{}).Write("pg", "o", 0, seeded(4<<10, byte(i))).EncodeBL())
			runtime.SetFinalizer(op, func(op *pendingTxn) { freed <- op.reqID })
			px.enqueueBatch(op)
		}
		p.Wait(sim.Second)
		if len(px.batchQ) != 0 || r.bridge.Host.Stats().TxnsCommitted != 3 {
			t.Fatalf("batch not shipped: %d queued, host %+v", len(px.batchQ), r.bridge.Host.Stats())
		}
	})
	for want := 2; want > 0; {
		runtime.GC()
		select {
		case <-freed:
			want--
		case <-time.After(5 * time.Second):
			t.Fatalf("%d shipped op(s) still reachable after GC", want)
		}
	}
	runtime.KeepAlive(r)
}
