package core

import (
	"fmt"
	"runtime"
	"testing"

	"doceph/internal/dpu"
	"doceph/internal/objstore"
	"doceph/internal/sim"
)

// writeFn starts a write of an object of size bytes, its content seeded by
// seed, on p.
type writeFn func(p *sim.Proc, obj string, size int, seed byte) *objstore.Result

// batchCounters are the figures TestBatchPathsKeepTheirEvents pins beside the
// events: the fallback, probe and flush counters of the proxy.
type batchCounters struct {
	fallbackTxns, fallbackSegs, probes, probeFailures int64
	flushes, flushBytes, flushIdle, flushDelay        int64
}

func batchCountersOf(st ProxyStats) batchCounters {
	return batchCounters{st.FallbackTxns, st.FallbackSegments, st.Probes, st.ProbeFailures,
		st.BatchFlushes, st.BatchFlushBytes, st.BatchFlushIdle, st.BatchFlushDelay}
}

// TestBatchPathsKeepTheirEvents runs one batched bridge through each of the
// batched-frame path's ways off the fast one, and through the host's control
// plane, which no golden run reaches: batch frames the engine fails (resent
// over RPC as one call each, then whole frames over RPC in cooldown), the
// cooldown's expiry with a failed and then a good probe (the batcher's, and
// the proc form's of segmented writes from concurrent writers, two of which
// meet the expired cooldown at once and probe side by side), flushes on
// MaxDelay under a trickle of arrivals, the batcher's backpressure wait with
// the one DMA queue busy, and Stat, Exists and List — of a missing object
// too — and a read over RPC in cooldown. Each case pins the events the run
// fires, the instant it ends and the proxy's fallback, probe and flush
// counters, as procs running the same steps fired and counted them
// (cooldown-segmented, added after the chains, as they fire them), and reads
// every object back from the host's BlueStore byte for byte.
func TestBatchPathsKeepTheirEvents(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  func(*BridgeConfig)
		// buffers, when not zero, is the DPU's staging pool depth.
		buffers int
		body    func(t *testing.T, r *coreRig, p *sim.Proc, write writeFn)
		// The proc form's figures.
		events uint64
		end    sim.Time
		want   batchCounters
	}{
		{"dma-errors", nil, 0, func(t *testing.T, r *coreRig, p *sim.Proc, write writeFn) {
			r.bridge.EngUp.FailEvery = 2
			writers(r, p, 4, 3, 16<<10, write)
			p.Wait(10 * sim.Second) // past the cooldown
			r.bridge.EngUp.FailEvery = 0
			waitAll(t, p, write(p, "after", 16<<10, 99))
		}, 394, 10_006_840_244, batchCounters{fallbackTxns: 8, fallbackSegs: 4, probes: 1, flushes: 8, flushIdle: 8}},
		{"cooldown-probe", nil, 0, func(t *testing.T, r *coreRig, p *sim.Proc, write writeFn) {
			r.bridge.EngUp.FailNext(1)
			waitAll(t, p, write(p, "fails", 16<<10, 1))
			waitAll(t, p, write(p, "cooling", 16<<10, 2))
			p.Wait(6 * sim.Second)
			r.bridge.EngUp.FailNext(1) // the probe
			waitAll(t, p, write(p, "probe-fails", 16<<10, 3))
			p.Wait(6 * sim.Second)
			waitAll(t, p, write(p, "probe-ok", 16<<10, 4))
			waitAll(t, p, write(p, "healthy", 16<<10, 5))
		}, 229, 12_007_588_242, batchCounters{fallbackTxns: 2, fallbackSegs: 1, probes: 2, probeFailures: 1, flushes: 6, flushIdle: 6}},
		{"cooldown-segmented", func(cfg *BridgeConfig) {
			cfg.Proxy.CooldownPeriod = 5 * sim.Millisecond
		}, 0, func(t *testing.T, r *coreRig, p *sim.Proc, write writeFn) {
			r.bridge.EngUp.FailNext(1)
			writers(r, p, 4, 6, 1<<20, write)
		}, 810, 82_688_378, batchCounters{fallbackTxns: 1, fallbackSegs: 1, probes: 2, flushes: 1, flushIdle: 1}},
		{"max-delay", nil, 0, func(t *testing.T, r *coreRig, p *sim.Proc, write writeFn) {
			var results []*objstore.Result
			for i := 0; i < 40; i++ {
				results = append(results, write(p, fmt.Sprint("t", i), 4<<10, byte(i)))
				p.Wait(30 * sim.Microsecond)
			}
			waitAll(t, p, results...)
		}, 685, 3_794_549, batchCounters{flushes: 4, flushIdle: 2, flushDelay: 2}},
		{"backpressure", nil, 0, func(t *testing.T, r *coreRig, p *sim.Proc, write writeFn) {
			writers(r, p, 16, 4, 64<<10, write)
		}, 1621, 15_961_475, batchCounters{flushes: 13, flushBytes: 1, flushIdle: 12}},
		{"no-mr-cache", func(cfg *BridgeConfig) { cfg.Proxy.DisableMRCache = true }, 0, func(t *testing.T, r *coreRig, p *sim.Proc, write writeFn) {
			r.bridge.EngUp.FailNext(1)
			writers(r, p, 4, 2, 16<<10, write)
			p.Wait(6 * sim.Second) // past the cooldown: the probe negotiates too
			waitAll(t, p, write(p, "after", 16<<10, 99))
		}, 295, 6_006_852_142, batchCounters{fallbackTxns: 4, fallbackSegs: 4, probes: 1, flushes: 5, flushIdle: 5}},
		{"buffer-wait", nil, 2, func(t *testing.T, r *coreRig, p *sim.Proc, write writeFn) {
			var results []*objstore.Result
			for i := 0; i < 3; i++ {
				results = append(results, write(p, fmt.Sprint("big", i), 5<<20, byte(i)))
			}
			writers(r, p, 8, 2, 16<<10, write)
			waitAll(t, p, results...)
		}, 427, 63_740_445, batchCounters{flushes: 3, flushIdle: 3}},
		{"control-plane", nil, 0, func(t *testing.T, r *coreRig, p *sim.Proc, write writeFn) {
			px := r.bridge.Proxy
			waitAll(t, p, write(p, "meta", 16<<10, 7))
			if st, err := objstore.Stat(p, px, "pg.0", "meta"); err != nil || st.Size != 16<<10 {
				t.Errorf("stat: %+v, %v", st, err)
			}
			if _, err := objstore.Stat(p, px, "pg.0", "missing"); err != objstore.ErrNotFound {
				t.Errorf("stat of a missing object: %v", err)
			}
			if !objstore.Exists(p, px, "pg.0", "meta") || objstore.Exists(p, px, "pg.0", "missing") {
				t.Error("exists answers wrong")
			}
			if names, err := objstore.List(p, px, "pg.0"); err != nil || len(names) != 1 || names[0] != "meta" {
				t.Errorf("list: %v, %v", names, err)
			}
			if _, err := objstore.List(p, px, "pg.none"); err != objstore.ErrNoCollection {
				t.Errorf("list of a missing collection: %v", err)
			}
			r.bridge.EngUp.FailNext(1)
			waitAll(t, p, write(p, "fails", 16<<10, 8))
			if got, err := objstore.Read(p, px, "pg.0", "meta", 0, 0); err != nil || !got.Equal(seeded(16<<10, 7)) {
				t.Errorf("read over RPC in cooldown: err=%v, %d bytes", err, lenOf(got))
			}
		}, 208, 3_230_234, batchCounters{fallbackSegs: 1, flushes: 3, flushIdle: 3}},
	} {
		cfg := BridgeConfig{Batch: BatchConfig{Enable: true}}
		if c.cfg != nil {
			c.cfg(&cfg)
		}
		r := newCoreRigDPU(dpu.Config{StagingBuffers: c.buffers}, cfg)
		px := r.bridge.Proxy
		objects := map[string][2]int{}
		write := func(p *sim.Proc, obj string, size int, seed byte) *objstore.Result {
			objects[obj] = [2]int{size, int(seed)}
			return px.QueueTransaction(p, objstore.NewTransaction().Write("pg.0", obj, 0, seeded(size, seed)))
		}
		var end sim.Time
		r.run(t, func(p *sim.Proc) {
			if err := commitP(t, p, px, objstore.NewTransaction().MkColl("pg.0")); err != nil {
				t.Fatal(err)
			}
			c.body(t, r, p, write)
			end = p.Now()
			for obj, w := range objects {
				if got, err := objstore.Read(p, r.store, "pg.0", obj, 0, 0); err != nil || !got.Equal(seeded(w[0], byte(w[1]))) {
					t.Errorf("%s: %s reads back err=%v, %d bytes", c.name, obj, err, lenOf(got))
				}
			}
		})
		got, events := batchCountersOf(px.Stats()), r.env.Events()
		t.Logf("%s: %d events, end %d ns, %+v", c.name, events, end, got)
		if events != c.events || end != c.end || got != c.want {
			t.Errorf("%s: %d events, end %d ns, %+v; pinned %d, %d ns, %+v", c.name, events, end, got, c.events, c.end, c.want)
		}
	}
}

// writers runs n writer procs at once on p's behalf, each writing per objects
// of size bytes one after the other, and waits for them all.
func writers(r *coreRig, p *sim.Proc, n, per, size int, write writeFn) {
	var all sim.Event
	left := n
	for w := 0; w < n; w++ {
		r.env.Spawn(fmt.Sprint("writer", w), func(wp *sim.Proc) {
			wp.SetThread(sim.NewThread(fmt.Sprint("dpu-osd-worker", w), "tp_osd_tp"))
			for i := 0; i < per; i++ {
				res := write(wp, fmt.Sprintf("w%d-%d", w, i), size, byte(10*w+i))
				res.Done.Wait(wp)
			}
			if left--; left == 0 {
				all.Fire()
			}
		})
	}
	all.Wait(p)
}

// waitAll waits for every result and fails the test on an error.
func waitAll(t *testing.T, p *sim.Proc, results ...*objstore.Result) {
	t.Helper()
	for _, res := range results {
		res.Done.Wait(p)
		if res.Err != nil {
			t.Errorf("commit: %v", res.Err)
		}
	}
}

// batchedWriteAllocCeiling and batchedWriteAllocBytesCeiling are the next
// integer and 8 B above what a batched 64 KiB write of a new object allocates
// today, sixteen writers at once on four DMA queues and four notify shards
// (5.09 allocations, 541 B per write): the caller's transaction and its
// Result; the data view, the name and the onode on the host. The pendingTxn,
// the batchFrame, the hostTxn, the txc, the envelopes and the coalesced
// notification's frame come from free lists, and the payload's view of the
// frame lives in the poller's table, so a record added to the path fails
// here, and so does one that starts to allocate again, even when the count
// stays.
const (
	batchedWriteAllocCeiling      = 6
	batchedWriteAllocBytesCeiling = 549
)

// TestBatchedWriteAllocationBudget holds batched 64 KiB writes — the proxy's
// batcher, the frame's transfer and settling, the host's poller and commit,
// the coalesced commit notification — to their allocation budget, on the
// shape batch-64K-mq4 ships.
func TestBatchedWriteAllocationBudget(t *testing.T) {
	cfg := BridgeConfig{Batch: BatchConfig{Enable: true}}
	cfg.Engine.Queues = 4
	r := newCoreRig(cfg)
	const writers, warm, per = 16, 32, 32
	data := seeded(64<<10, 3)
	names := make([][]string, writers)
	for w := range names {
		for i := 0; i < warm+per; i++ {
			names[w] = append(names[w], fmt.Sprintf("benchmark_data_w%d_%d", w, i))
		}
	}
	r.run(t, func(p *sim.Proc) {
		px := r.bridge.Proxy
		if err := commitP(t, p, px, objstore.NewTransaction().MkColl("pg.0")); err != nil {
			t.Fatal(err)
		}
		write := func(first, n int) {
			var all sim.Event
			left := writers
			for w := 0; w < writers; w++ {
				r.env.Spawn("writer", func(wp *sim.Proc) {
					wp.SetThread(sim.NewThread("dpu-osd-worker", "tp_osd_tp"))
					for _, obj := range names[w][first : first+n] {
						if err := commitP(t, wp, px, objstore.NewTransaction().Write("pg.0", obj, 0, data)); err != nil {
							t.Errorf("%s: %v", obj, err)
						}
					}
					if left--; left == 0 {
						all.Fire()
					}
				})
			}
			all.Wait(p)
		}
		write(0, warm) // pools, maps and queues reach their size
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		write(warm, per)
		runtime.ReadMemStats(&after)
		n := float64(writers * per)
		allocs := float64(after.Mallocs-before.Mallocs) / n
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
		st := px.Stats()
		t.Logf("%.2f allocations, %.0f B per batched write; %.2f ops per frame, %d notify batches",
			allocs, bytes, float64(st.BatchedTxns)/float64(st.BatchFlushes), r.bridge.Host.Stats().NotifyBatches)
		if allocs > batchedWriteAllocCeiling || bytes > batchedWriteAllocBytesCeiling {
			t.Errorf("%.2f allocations, %.0f B per batched write; want at most %d and %d B",
				allocs, bytes, batchedWriteAllocCeiling, batchedWriteAllocBytesCeiling)
		}
	})
}
