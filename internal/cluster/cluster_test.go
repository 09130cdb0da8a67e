package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"doceph/internal/messenger"
	"doceph/internal/objstore"
	"doceph/internal/radosbench"
	"doceph/internal/sim"
	"doceph/internal/wire"
)

func runBody(t *testing.T, cl *Cluster, body func(p *sim.Proc)) {
	t.Helper()
	done := false
	cl.Env.Spawn("test-body", func(p *sim.Proc) {
		p.SetThread(sim.NewThread("tester", "client"))
		body(p)
		done = true
	})
	err := cl.Env.RunUntil(sim.Time(10 * 60 * sim.Second))
	if !done {
		t.Fatalf("body did not finish: %v", err)
	}
	cl.Shutdown()
}

// patterned returns n bytes that differ from one offset to the next.
func patterned(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i * 31)
	}
	return data
}

// checkRangedReads reads object back at offsets, each range byte-compared
// with data, the object's whole content: one inside the first 2 MiB DMA
// segment, one straddling the segment boundary and one running past EOF,
// which comes back clamped.
func checkRangedReads(t *testing.T, p *sim.Proc, cl *Cluster, object string, data []byte) {
	t.Helper()
	const seg = 2 << 20
	for _, r := range []struct{ off, length int }{
		{4096, 64 << 10},
		{seg - 1000, 5000},
		{len(data) - 100, 4096},
	} {
		got, err := cl.Client.Read(p, object, uint64(r.off), uint64(r.length))
		if err != nil {
			t.Fatalf("read [%d,+%d): %v", r.off, r.length, err)
		}
		if want := data[r.off:min(r.off+r.length, len(data))]; !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("read [%d,+%d): %d bytes, want %d bytes of the written data",
				r.off, r.length, got.Length(), len(want))
		}
	}
}

func TestBaselineClusterEndToEnd(t *testing.T) {
	cl := New(Config{Mode: Baseline, Messenger: messenger.Config{WireEncode: true}})
	runBody(t, cl, func(p *sim.Proc) {
		data := patterned(3 << 20)
		if err := cl.Client.Write(p, "obj", wire.FromBytes(data)); err != nil {
			t.Fatal(err)
		}
		got, err := cl.Client.Read(p, "obj", 0, 0)
		if err != nil || !bytes.Equal(got.Bytes(), data) {
			t.Fatalf("read err=%v", err)
		}
		checkRangedReads(t, p, cl, "obj", data)
	})
}

func TestDoCephClusterEndToEnd(t *testing.T) {
	cl := New(Config{Mode: DoCeph, Messenger: messenger.Config{WireEncode: true}})
	runBody(t, cl, func(p *sim.Proc) {
		data := patterned(3 << 20)
		bl := wire.FromBytes(data)
		if err := cl.Client.Write(p, "obj", bl); err != nil {
			t.Fatal(err)
		}
		got, err := cl.Client.Read(p, "obj", 0, 0)
		if err != nil || got.CRC32C() != bl.CRC32C() {
			t.Fatalf("read mismatch err=%v", err)
		}
		checkRangedReads(t, p, cl, "obj", data)
		// Data must really reside in the host BlueStore, replicated.
		pg := cl.Client.Map().PGForObject("obj")
		coll := fmt.Sprintf("pg.%d", pg)
		for i, n := range cl.Nodes {
			blh, err := objstore.Read(p, n.Store, coll, "obj", 0, 0)
			if err != nil || blh.CRC32C() != bl.CRC32C() {
				t.Fatalf("node %d host store mismatch: %v", i, err)
			}
		}
		// The DMA path was actually used.
		if cl.Nodes[0].Bridge.EngUp.Stats().Transfers == 0 &&
			cl.Nodes[1].Bridge.EngUp.Stats().Transfers == 0 {
			t.Fatal("no DMA transfers recorded")
		}
	})
}

func TestDoCephHostRunsOnlyBlueStoreSide(t *testing.T) {
	cl := New(Config{Mode: DoCeph})
	runBody(t, cl, func(p *sim.Proc) {
		if err := cl.Client.Write(p, "x", wire.FromBytes(make([]byte, 1<<20))); err != nil {
			t.Fatal(err)
		}
		p.Wait(sim.Second)
	})
	// Host CPUs must have no messenger or OSD-thread work in DoCeph mode.
	m := func() map[string]sim.Duration {
		out := map[string]sim.Duration{}
		for _, n := range cl.Nodes {
			for k, v := range n.HostCPU.Stats().BusyByCat {
				out[k] += v
			}
		}
		return out
	}()
	if m[messenger.ThreadCat] > 0 || m["tp_osd_tp"] > 0 {
		t.Fatalf("host ran Ceph daemon work: %v", m)
	}
	if m["bstore"] <= 0 {
		t.Fatal("host BlueStore idle")
	}
}

func TestBaselineMessengerDominatesHostCPU(t *testing.T) {
	cl := New(Config{Mode: Baseline})
	cfg := radosbench.Config{
		Threads: 8, ObjectBytes: 1 << 20,
		Duration: 5 * sim.Second, Warmup: sim.Second,
		OnWarmupEnd: cl.ResetHostStats,
	}
	res, err := radosbench.Run(cl.Env, cl.Client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.Shutdown()
	if res.Ops == 0 {
		t.Fatal("no ops completed")
	}
	m := cl.HostCPUMerged()
	share := m.ShareOf(messenger.ThreadCat)
	if share < 0.5 {
		t.Fatalf("messenger share=%.2f, want the dominant component", share)
	}
}

func TestBenchWriteProducesStats(t *testing.T) {
	cl := New(Config{Mode: Baseline})
	res, err := radosbench.Run(cl.Env, cl.Client, radosbench.Config{
		Threads: 4, ObjectBytes: 1 << 20,
		Duration: 4 * sim.Second, Warmup: sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Shutdown()
	if res.Ops == 0 || res.IOPS() <= 0 || res.ThroughputBps() <= 0 {
		t.Fatalf("res=%+v", res)
	}
	if res.AvgLatency <= 0 || res.MinLatency > res.AvgLatency || res.AvgLatency > res.MaxLatency {
		t.Fatalf("latency ordering: %+v", res)
	}
	if res.P50 > res.P99 {
		t.Fatalf("percentiles: p50=%v p99=%v", res.P50, res.P99)
	}
	if len(res.PerSecond) == 0 {
		t.Fatal("no per-second samples")
	}
	// Little's law sanity: ops_in_flight = IOPS x latency ~= threads.
	inFlight := res.IOPS() * res.AvgLatency.Seconds()
	if inFlight < 2 || inFlight > 5 {
		t.Fatalf("Little's law violated: %f in flight for 4 threads", inFlight)
	}
}

func TestBenchReadWorkload(t *testing.T) {
	cl := New(Config{Mode: Baseline})
	res, err := radosbench.Run(cl.Env, cl.Client, radosbench.Config{
		Threads: 4, ObjectBytes: 512 << 10, Op: radosbench.Read,
		PrepopulateObjects: 16,
		Duration:           3 * sim.Second, Warmup: sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Shutdown()
	if res.Ops == 0 || res.Bytes != res.Ops*(512<<10) {
		t.Fatalf("res=%+v", res)
	}
}

func TestDoCephBenchRuns(t *testing.T) {
	cl := New(Config{Mode: DoCeph})
	res, err := radosbench.Run(cl.Env, cl.Client, radosbench.Config{
		Threads: 8, ObjectBytes: 4 << 20,
		Duration: 5 * sim.Second, Warmup: sim.Second,
		OnWarmupEnd: cl.ResetHostStats,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := cl.ProxyBreakdownMerged()
	cl.Shutdown()
	if res.Ops == 0 {
		t.Fatal("no ops")
	}
	if b.Requests == 0 || b.DMA <= 0 {
		t.Fatalf("breakdown=%+v", b)
	}
}

func TestHostCPUBaselineVsDoCeph(t *testing.T) {
	util := func(mode Mode) float64 {
		cl := New(Config{Mode: mode})
		_, err := radosbench.Run(cl.Env, cl.Client, radosbench.Config{
			Threads: 16, ObjectBytes: 4 << 20,
			Duration: 5 * sim.Second, Warmup: sim.Second,
			OnWarmupEnd: cl.ResetHostStats,
		})
		if err != nil {
			t.Fatal(err)
		}
		u := cl.HostCPUMerged().SingleCoreUtilization()
		cl.Shutdown()
		return u
	}
	base, doceph := util(Baseline), util(DoCeph)
	if doceph >= base/4 {
		t.Fatalf("DoCeph host CPU %.3f not clearly below baseline %.3f", doceph, base)
	}
}

func TestBenchMixedWorkload(t *testing.T) {
	cl := New(Config{Mode: DoCeph})
	res, err := radosbench.Run(cl.Env, cl.Client, radosbench.Config{
		Threads: 8, ObjectBytes: 1 << 20, Op: radosbench.Mixed,
		ReadPercent: 50, PrepopulateObjects: 16,
		Duration: 4 * sim.Second, Warmup: sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.Shutdown()
	if res.Ops == 0 {
		t.Fatal("no ops")
	}
	// Both paths exercised: the host stores served reads and the proxies
	// shipped write transactions during the whole run (including warmup).
	var reads, writes int64
	for _, n := range cl.Nodes {
		reads += n.Store.Stats().BytesRead
		writes += n.Bridge.Proxy.Stats().DataPlaneTxns
	}
	if reads == 0 || writes == 0 {
		t.Fatalf("reads=%d writeTxns=%d", reads, writes)
	}
}

// TestPrimaryLoadBalanced: with 128 PGs over 2 equal hosts, primary duty
// (and therefore client traffic) must split roughly evenly.
func TestPrimaryLoadBalanced(t *testing.T) {
	cl := New(Config{Mode: Baseline})
	defer cl.Shutdown()
	counts := map[int32]int{}
	m := cl.Client.Map()
	for pg := uint32(0); pg < m.PGCount; pg++ {
		counts[m.Primary(pg)]++
	}
	a, b := counts[0], counts[1]
	if a+b != int(m.PGCount) {
		t.Fatalf("counts=%v", counts)
	}
	ratio := float64(a) / float64(b)
	if ratio < 0.6 || ratio > 1.67 {
		t.Fatalf("primary imbalance: %d vs %d", a, b)
	}
}

// TestMgrCollectsDuringBench: the manager's polls ride the same messengers
// as the workload and keep reporting under load.
func TestMgrCollectsDuringBench(t *testing.T) {
	cl := New(Config{Mode: DoCeph})
	_, err := radosbench.Run(cl.Env, cl.Client, radosbench.Config{
		Threads: 8, ObjectBytes: 1 << 20,
		Duration: 10 * sim.Second, Warmup: sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Shutdown()
	if cl.Mgr.Replies() == 0 {
		t.Fatal("mgr got no reports during the bench")
	}
	if cl.Mgr.ClusterTotal("client_writes") == 0 {
		t.Fatal("mgr reports show no writes")
	}
	h := cl.Mgr.AssessHealth(cl.Mon.Map())
	if h.Grade != "HEALTH_OK" {
		t.Fatalf("health=%v", h)
	}
}
