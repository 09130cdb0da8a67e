package doceph

import (
	"bytes"
	"fmt"
	"testing"

	"doceph/internal/cluster"
	"doceph/internal/radosbench"
	"doceph/internal/sim"
	"doceph/internal/trace"
)

// The metamorphic property of the read-path knobs: replica-read balancing
// and the DPU-side read cache are pure dispatch/transport optimizations.
// For a fixed mixed workload they may change WHERE a read is served
// (secondary OSD, DPU cache) but never WHAT any op observes — every read
// byte-identical to the written payload, every stored object intact, the
// ghost-read error unchanged, and the trace still structurally sound.

type readPathOutcome struct {
	ops      int64
	readOps  int64
	objCRC   map[string]uint32
	objLen   map[string]int
	ghostErr string
	// What the knobs MAY change — kept for the per-arm liveness checks.
	balanced    int64
	cacheHits   int64
	cacheMisses int64
}

const (
	rpThreads = 4
	rpOps     = 6
	rpReadPct = 70
)

// rpIsRead mirrors radosbench's fixed-work read/write split so the test
// can enumerate exactly which objects the workload wrote.
func rpIsRead(worker, i int) bool {
	return (worker*7919+i*104729)%100 < rpReadPct
}

func runReadPathArm(t *testing.T, mode cluster.Mode, size int64, balance, cache bool) readPathOutcome {
	t.Helper()
	cfg := cluster.Config{Mode: mode, Seed: 42, Trace: true}
	cfg.Client.BalanceReads = balance
	cfg.Bridge.ReadCache.Enable = cache
	cl := cluster.New(cfg)
	defer cl.Shutdown()
	res, err := radosbench.Run(cl.Env, cl.Client, radosbench.Config{
		Threads:      rpThreads,
		ObjectBytes:  size,
		OpsPerThread: rpOps,
		Op:           radosbench.Mixed,
		ReadPercent:  rpReadPct,
	})
	if err != nil {
		t.Fatalf("mode %v size %d balance %v cache %v: %v", mode, size, balance, cache, err)
	}
	out := readPathOutcome{
		ops:     res.Ops,
		readOps: res.ReadStats.Ops,
		objCRC:  map[string]uint32{},
		objLen:  map[string]int{},
	}
	want := radosbench.Payload(size)
	readback := false
	cl.Env.Spawn("readpath-readback", func(p *sim.Proc) {
		p.SetThread(sim.NewThread("readpath-readback", "client"))
		check := func(obj string) {
			bl, err := cl.Client.Read(p, obj, 0, 0)
			if err != nil {
				t.Errorf("readback %s: %v", obj, err)
				return
			}
			// Byte-identical, not just checksum-identical.
			if !bytes.Equal(bl.Bytes(), want.Bytes()) {
				t.Errorf("readback %s: content differs from submitted payload", obj)
			}
			out.objCRC[obj] = bl.CRC32C()
			out.objLen[obj] = bl.Length()
		}
		for i := 0; i < rpThreads*4; i++ {
			check(fmt.Sprintf("benchmark_data_prepop_%d", i))
		}
		for w := 0; w < rpThreads; w++ {
			for i := 0; i < rpOps; i++ {
				if !rpIsRead(w, i) {
					check(fmt.Sprintf("benchmark_data_w%d_%d", w, i))
				}
			}
		}
		if _, err := cl.Client.Read(p, "never_written", 0, 0); err != nil {
			out.ghostErr = err.Error()
		}
		readback = true
	})
	if err := cl.Env.RunUntil(cl.Env.Now().Add(60 * sim.Second)); err != nil || !readback {
		t.Fatalf("readback did not finish: err=%v", err)
	}

	spans := cl.Tracer.Spans()
	if err := trace.CheckInvariants(spans); err != nil {
		t.Errorf("mode %v size %d balance %v cache %v: trace invariants: %v",
			mode, size, balance, cache, err)
	}
	busy := map[string]Duration{cl.ClientCPU.Name(): cl.ClientCPU.Stats().TotalBusy}
	for _, n := range cl.Nodes {
		busy[n.HostCPU.Name()] = n.HostCPU.Stats().TotalBusy
		if n.DPU != nil {
			busy[n.DPU.CPU.Name()] = n.DPU.CPU.Stats().TotalBusy
		}
	}
	if err := trace.CheckCPUConservation(spans, busy); err != nil {
		t.Errorf("mode %v size %d balance %v cache %v: CPU conservation: %v",
			mode, size, balance, cache, err)
	}
	out.balanced = cl.Client.Stats().BalancedReads
	for _, n := range cl.Nodes {
		if n.Bridge != nil {
			st := n.Bridge.Proxy.Stats()
			out.cacheHits += st.ReadCacheHits
			out.cacheMisses += st.ReadCacheMisses
		}
	}
	return out
}

func assertSameSemantics(t *testing.T, base, arm readPathOutcome, name string) {
	t.Helper()
	if base.ops != arm.ops || base.readOps != arm.readOps {
		t.Errorf("%s: op counts changed: %d/%d vs %d/%d",
			name, base.ops, base.readOps, arm.ops, arm.readOps)
	}
	if base.ghostErr == "" || base.ghostErr != arm.ghostErr {
		t.Errorf("%s: ghost-read error changed: %q vs %q", name, base.ghostErr, arm.ghostErr)
	}
	if len(base.objCRC) != len(arm.objCRC) {
		t.Fatalf("%s: object sets differ: %d vs %d", name, len(base.objCRC), len(arm.objCRC))
	}
	for obj, crc := range base.objCRC {
		if arm.objCRC[obj] != crc {
			t.Errorf("%s: %s stored bytes changed: %08x vs %08x", name, obj, crc, arm.objCRC[obj])
		}
		if base.objLen[obj] != arm.objLen[obj] {
			t.Errorf("%s: %s length changed: %d vs %d", name, obj, base.objLen[obj], arm.objLen[obj])
		}
	}
}

func TestMetamorphicReadPathKnobsPreserveSemantics(t *testing.T) {
	sizes := []int64{4 << 10, 64 << 10, 1 << 20, 4 << 20}
	for _, mode := range []cluster.Mode{cluster.Baseline, cluster.DoCeph} {
		for _, size := range sizes {
			mode, size := mode, size
			t.Run(fmt.Sprintf("%v_%dKB", mode, size>>10), func(t *testing.T) {
				t.Parallel()
				base := runReadPathArm(t, mode, size, false, false)
				if base.balanced != 0 || base.cacheHits+base.cacheMisses != 0 {
					t.Errorf("knob counters nonzero with knobs off: %+v", base)
				}
				if base.readOps == 0 || base.ops != int64(rpThreads*rpOps) {
					t.Fatalf("workload shape wrong: %+v", base)
				}

				bal := runReadPathArm(t, mode, size, true, false)
				assertSameSemantics(t, base, bal, "balance")
				if bal.balanced == 0 {
					t.Error("balanced arm never dispatched to a secondary")
				}

				if mode == cluster.DoCeph {
					cch := runReadPathArm(t, mode, size, false, true)
					assertSameSemantics(t, base, cch, "cache")
					if cch.cacheHits == 0 {
						t.Errorf("cache arm never hit: %+v", cch)
					}
					both := runReadPathArm(t, mode, size, true, true)
					assertSameSemantics(t, base, both, "balance+cache")
					if both.balanced == 0 || both.cacheHits == 0 {
						t.Errorf("combined arm knobs not live: %+v", both)
					}
				}
			})
		}
	}
}

// TestMultiSeedDeterminismMixedReadPath is the run-twice gate over the new
// read-path machinery all at once: a 70/30 mixed workload at queue depth 2
// with replica-read balancing and the DPU read cache enabled. Every
// simulated number and the byte-exact trace must reproduce across reruns
// for every seed.
func TestMultiSeedDeterminismMixedReadPath(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 8, 13, 21, 42}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			run := func() (int64, int64, int64, uint64, string) {
				cfg := cluster.Config{Mode: cluster.DoCeph, Seed: seed, Trace: true}
				cfg.Client.BalanceReads = true
				cfg.Bridge.ReadCache.Enable = true
				cl := cluster.New(cfg)
				defer cl.Shutdown()
				res, err := RunBench(cl, BenchConfig{
					Threads: 8, ObjectBytes: 64 << 10,
					Duration: sim.Second, Warmup: 200 * sim.Millisecond,
					Op: MixedWorkload, ReadPercent: 70, QueueDepth: 2,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.ReadStats.Ops == 0 || res.WriteStats.Ops == 0 {
					t.Fatalf("mix collapsed: %+v", res)
				}
				spans := cl.Tracer.Spans()
				if err := trace.CheckInvariants(spans); err != nil {
					t.Errorf("trace invariants: %v", err)
				}
				var hits int64
				for _, n := range cl.Nodes {
					hits += n.Bridge.Proxy.Stats().ReadCacheHits
				}
				if hits == 0 {
					t.Error("read cache never hit")
				}
				if cl.Client.Stats().BalancedReads == 0 {
					t.Error("no balanced reads dispatched")
				}
				return res.Ops, res.ReadStats.Ops, int64(res.AvgLatency), cl.Env.Events(), chromeHash(spans)
			}
			o1, r1, l1, e1, h1 := run()
			o2, r2, l2, e2, h2 := run()
			if o1 != o2 || r1 != r2 || l1 != l2 || e1 != e2 || h1 != h2 {
				t.Errorf("mixed run not deterministic: ops %d/%d reads %d/%d lat %d/%d events %d/%d trace %s/%s",
					o1, o2, r1, r2, l1, l2, e1, e2, h1, h2)
			}
		})
	}
}

// TestMultiSeedDeterminismBlockDevice: the striped block device cell (the
// same one the -exp readpath experiment runs) reproduces bit-identically
// across reruns for every seed, with the client cache absorbing the warm
// pass.
func TestMultiSeedDeterminismBlockDevice(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 8, 13, 21, 42}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			run := func() blockDeviceRun {
				res, err := runBlockDeviceCell(DoCeph, true, seed)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Intact {
					t.Error("block device readback corrupt")
				}
				if res.CacheHits == 0 {
					t.Error("client page cache never hit")
				}
				return res
			}
			a, b := run(), run()
			if a != b {
				t.Errorf("block device run not deterministic:\n 1: %+v\n 2: %+v", a, b)
			}
		})
	}
}
