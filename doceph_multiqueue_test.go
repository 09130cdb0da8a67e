package doceph

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"doceph/internal/cluster"
	"doceph/internal/sim"
	"doceph/internal/trace"
)

// mqConfig is the canonical multi-queue shape the acceptance criteria pin:
// 4 DMA queues, 4 OSD op shards, 4 messenger lanes, batching on.
func mqConfig(c *cluster.Config) {
	c.Bridge.Batch.Enable = true
	c.Bridge.Engine.Queues = 4
	c.OSD.OpShards = 4
	c.Messenger.Lanes = 4
}

// TestMultiSeedDeterminismMultiQueue is the run-twice determinism gate for
// the multi-queue configuration: 4 DMA queues, 4 OSD op shards and 4
// messenger lanes all introduce new interleaving freedom, and every bit of
// it must be resolved deterministically by the virtual clock. For each seed
// the traced small-op benchmark runs twice and must reproduce ops, average
// latency, the kernel event count and the byte-exact Chrome trace.
func TestMultiSeedDeterminismMultiQueue(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 8, 13, 21, 42}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			run := func() (int64, int64, uint64, string) {
				cfg := cluster.Config{Mode: cluster.DoCeph, Seed: seed, Trace: true}
				mqConfig(&cfg)
				cl := cluster.New(cfg)
				defer cl.Shutdown()
				res, err := RunBench(cl, BenchConfig{
					Threads: 8, ObjectBytes: 4 << 10,
					Duration: sim.Second, Warmup: 200 * sim.Millisecond,
				})
				if err != nil {
					t.Fatal(err)
				}
				spans := cl.Tracer.Spans()
				if err := trace.CheckInvariants(spans); err != nil {
					t.Errorf("trace invariants: %v", err)
				}
				var batched int64
				queuesUsed := map[int]bool{}
				for _, n := range cl.Nodes {
					batched += n.Bridge.Proxy.Stats().BatchedTxns
					for qi, qs := range n.Bridge.EngUp.QueueStats() {
						if qs.Transfers > 0 {
							queuesUsed[qi] = true
						}
					}
				}
				if batched == 0 {
					t.Error("no transactions batched")
				}
				if len(queuesUsed) < 2 {
					t.Errorf("only %d of 4 DMA queues carried transfers", len(queuesUsed))
				}
				return res.Ops, int64(res.AvgLatency), cl.Env.Events(), chromeHash(spans)
			}
			o1, l1, e1, h1 := run()
			o2, l2, e2, h2 := run()
			if o1 != o2 || l1 != l2 || e1 != e2 || h1 != h2 {
				t.Errorf("multi-queue run not deterministic: ops %d/%d lat %d/%d events %d/%d trace %s/%s",
					o1, o2, l1, l2, e1, e2, h1, h2)
			}
		})
	}
}

// TestMetamorphicMultiQueuePreservesSemantics extends the batching
// metamorphic property to the multi-queue transport: with 4 DMA queues, 4
// OSD op shards and 4 messenger lanes, every stored object must stay
// byte-identical to the serial plain arm, the reply set unchanged, and the
// trace structurally sound. The per-queue batch DMA stages must replace the
// un-suffixed one, and more than one of them must actually appear.
func TestMetamorphicMultiQueuePreservesSemantics(t *testing.T) {
	sizes := []int64{4 << 10, 64 << 10}
	for _, size := range sizes {
		size := size
		t.Run(fmt.Sprintf("%dKB", size>>10), func(t *testing.T) {
			t.Parallel()
			plain := runMetamorphic(t, cluster.DoCeph, size, false)
			mq := runMetamorphic(t, cluster.DoCeph, size, false, mqConfig)

			if plain.ops != mq.ops {
				t.Errorf("op count changed: %d vs %d", plain.ops, mq.ops)
			}
			if plain.ghostErr == "" || plain.ghostErr != mq.ghostErr {
				t.Errorf("ghost-read error changed: %q vs %q", plain.ghostErr, mq.ghostErr)
			}
			if len(mq.objCRC) != len(plain.objCRC) {
				t.Fatalf("object sets differ: %d vs %d", len(plain.objCRC), len(mq.objCRC))
			}
			for obj, crc := range plain.objCRC {
				if mq.objCRC[obj] != crc {
					t.Errorf("%s: stored bytes changed with multi-queue: %08x vs %08x",
						obj, crc, mq.objCRC[obj])
				}
				if plain.objLen[obj] != mq.objLen[obj] {
					t.Errorf("%s: stored length changed: %d vs %d",
						obj, plain.objLen[obj], mq.objLen[obj])
				}
			}

			if mq.batchedTxns == 0 {
				t.Error("no transactions batched in the multi-queue arm")
			}
			// With queues > 1 the engine reports per-queue stages
			// ("batch.dma.q<N>"), never the un-suffixed serial stage.
			if mq.stages[trace.StageBatchDMA] {
				t.Error("un-suffixed batch.dma stage present with 4 queues")
			}
			perQueue := 0
			for s := range mq.stages {
				if strings.HasPrefix(s, trace.StageBatchDMA+".q") {
					perQueue++
				}
			}
			if perQueue < 2 {
				t.Errorf("want >=2 per-queue batch DMA stages, got %d (%v)", perQueue, mq.stages)
			}
		})
	}
}

// TestParallelRunnerDeterministicOrderedOutput is the race-mode smoke for
// the parallel experiment runner: the multi-queue sweep fans its cells out
// over worker goroutines, and two invocations must produce element-wise
// identical, sweep-ordered results. Run under -race (the CI smoke does)
// this also exercises the runner's only cross-goroutine state.
func TestParallelRunnerDeterministicOrderedOutput(t *testing.T) {
	opts := Options{Duration: 400 * Millisecond, Warmup: 100 * Millisecond,
		Threads: 4, Seed: 42}
	queues := []int{1, 2}
	sizes := []int64{8 << 10}
	a, err := runCells(opts, mqCells(queues, sizes))
	if err != nil {
		t.Fatal(err)
	}
	b, err := runCells(opts, mqCells(queues, sizes))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(queues)*len(sizes) {
		t.Fatalf("got %d cells", len(a))
	}
	// A runResult carries its cell (funcs, not comparable): compare what the
	// table prints plus the raw measurements behind it.
	same := func(x, y runResult) bool {
		return reflect.DeepEqual(x.bench, y.bench) && x.hostUtil == y.hostUtil &&
			x.batchedTxns == y.batchedTxns && x.batchFlushes == y.batchFlushes &&
			x.engQueues == y.engQueues && x.engOccupancy == y.engOccupancy
	}
	for i := range a {
		if !same(a[i], b[i]) {
			t.Errorf("cell %d differs across runs:\n 1: %+v\n 2: %+v", i, a[i], b[i])
		}
		if a[i].engQueues != queues[i%len(queues)] || a[i].cell.size != sizes[i/len(queues)] {
			t.Errorf("cell %d out of sweep order: %+v", i, a[i])
		}
		if a[i].bench.IOPS() <= 0 {
			t.Errorf("cell %d empty: %+v", i, a[i])
		}
	}
	if x, y := mqTables(a)[0].String(), mqTables(b)[0].String(); x != y {
		t.Errorf("tables differ across runs:\n%s\n%s", x, y)
	}
}
