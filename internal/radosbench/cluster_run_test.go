// External test package: these tests drive radosbench against a real
// cluster, and cluster itself imports radosbench (scale-out popularity
// config), so an in-package test would be an import cycle.
package radosbench_test

import (
	"fmt"
	"testing"

	"doceph/internal/cluster"
	"doceph/internal/radosbench"
	"doceph/internal/sim"
)

// TestRunSmallWrite drives a short real write workload through a baseline
// cluster and checks the accumulated stats are internally consistent.
func TestRunSmallWrite(t *testing.T) {
	cl := cluster.New(cluster.Config{Mode: cluster.Baseline, Seed: 7})
	defer cl.Shutdown()
	res, err := radosbench.Run(cl.Env, cl.Client, radosbench.Config{
		Op:          radosbench.Write,
		Threads:     2,
		ObjectBytes: 256 << 10,
		Duration:    sim.Second,
		Warmup:      100 * sim.Millisecond,
		OnWarmupEnd: cl.ResetHostStats,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops <= 0 {
		t.Fatal("no ops completed")
	}
	if res.Bytes != res.Ops*(256<<10) {
		t.Errorf("bytes = %d, want ops*size = %d", res.Bytes, res.Ops*(256<<10))
	}
	if res.Window <= 0 {
		t.Errorf("window = %v", res.Window)
	}
	if !(res.MinLatency <= res.P50 && res.P50 <= res.P99 && res.P99 <= res.MaxLatency) {
		t.Errorf("latency ordering violated: min %v, p50 %v, p99 %v, max %v",
			res.MinLatency, res.P50, res.P99, res.MaxLatency)
	}
	if res.AvgLatency < res.MinLatency || res.AvgLatency > res.MaxLatency {
		t.Errorf("avg latency %v outside [min, max]", res.AvgLatency)
	}
	if res.IOPS() <= 0 || res.ThroughputBps() <= 0 {
		t.Errorf("derived rates empty: %v", res)
	}
}

// TestRunFixedWork pins the OpsPerThread contract: exactly Threads *
// OpsPerThread operations complete regardless of timing, and the window is
// measured rather than configured.
func TestRunFixedWork(t *testing.T) {
	cl := cluster.New(cluster.Config{Mode: cluster.Baseline, Seed: 7})
	defer cl.Shutdown()
	res, err := radosbench.Run(cl.Env, cl.Client, radosbench.Config{
		Op:           radosbench.Write,
		Threads:      3,
		ObjectBytes:  64 << 10,
		OpsPerThread: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(3 * 5); res.Ops != want {
		t.Fatalf("ops = %d, want %d", res.Ops, want)
	}
	if res.Bytes != res.Ops*(64<<10) {
		t.Errorf("bytes = %d, want %d", res.Bytes, res.Ops*(64<<10))
	}
	if res.Window <= 0 {
		t.Errorf("window = %v", res.Window)
	}
}

// TestRunObjectNames: the driver names objects without fmt, and the names stay
// byte-identical to the fmt forms "<prefix>_w<worker>_<i>" (writes) and
// "<prefix>_prepop_<i>" (the read set): after a mixed run every one of them
// is there to stat. A read name that differed from its prepopulated object
// would have failed the run with not-found.
func TestRunObjectNames(t *testing.T) {
	cl := cluster.New(cluster.Config{Mode: cluster.Baseline, Seed: 7})
	defer cl.Shutdown()
	const threads, ops, readPct, prepop = 3, 40, 30, 12
	res, err := radosbench.Run(cl.Env, cl.Client, radosbench.Config{
		Op: radosbench.Mixed, Threads: threads, ObjectBytes: 4 << 10, OpsPerThread: ops,
		ReadPercent: readPct, PrepopulateObjects: prepop, Prefix: "names",
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < prepop; i++ {
		want = append(want, fmt.Sprintf("%s_prepop_%d", "names", i))
	}
	for w := 0; w < threads; w++ {
		for i := 0; i < ops; i++ {
			if (w*7919+i*104729)%100 >= readPct {
				want = append(want, fmt.Sprintf("%s_w%d_%d", "names", w, i))
			}
		}
	}
	if writes := int64(len(want) - prepop); res.WriteStats.Ops != writes || res.ReadStats.Ops != threads*ops-writes {
		t.Fatalf("%d writes, %d reads; want %d and %d", res.WriteStats.Ops, res.ReadStats.Ops, writes, threads*ops-writes)
	}
	checked := false
	cl.Env.Spawn("stat", func(p *sim.Proc) {
		p.SetThread(sim.NewThread("stat", "client"))
		for _, obj := range want {
			if size, _, err := cl.Client.Stat(p, obj); err != nil || size != 4<<10 {
				t.Errorf("%s: size %d, err %v", obj, size, err)
			}
		}
		checked = true
	})
	if err := cl.Env.RunUntil(cl.Env.Now().Add(10 * sim.Second)); err != nil || !checked {
		t.Fatalf("stat pass did not finish: %v", err)
	}
}
