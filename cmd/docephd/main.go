// Command docephd runs one simulated cluster with a configurable workload
// and prints a full summary: benchmark metrics, per-category CPU accounting
// on host and DPU, per-second throughput/latency series, and (in DoCeph
// mode) the proxy's data-plane statistics and latency breakdown.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"doceph"
	"doceph/internal/report"
)

func main() {
	mode := flag.String("mode", "doceph", "deployment: baseline or doceph")
	sizeMB := flag.Int("size", 4, "object size in MiB")
	threads := flag.Int("threads", 16, "concurrent clients")
	seconds := flag.Int("seconds", 10, "measured window (s)")
	warmup := flag.Int("warmup", 2, "warmup (s)")
	nodes := flag.Int("nodes", 2, "storage nodes")
	replicas := flag.Int("replicas", 2, "replication factor")
	link := flag.Float64("gbps", 100, "link rate in Gbit/s")
	seed := flag.Int64("seed", 42, "simulation seed")
	op := flag.String("op", "write", "workload: write or read")
	perSecond := flag.Bool("persec", false, "print the per-second series")
	flag.Parse()
	// Flag values no cluster can be built from are usage errors (exit 2).
	for _, f := range []struct {
		name string
		v    int
	}{{"nodes", *nodes}, {"replicas", *replicas}, {"size", *sizeMB}, {"threads", *threads}, {"seconds", *seconds}} {
		if f.v < 1 {
			fmt.Fprintf(os.Stderr, "docephd: -%s must be at least 1 (got %d)\n", f.name, f.v)
			os.Exit(2)
		}
	}
	if *replicas > *nodes {
		fmt.Fprintf(os.Stderr, "docephd: -replicas %d exceeds -nodes %d: one OSD per node holds one copy\n", *replicas, *nodes)
		os.Exit(2)
	}

	m := doceph.Baseline
	if *mode == "doceph" {
		m = doceph.DoCeph
	} else if *mode != "baseline" {
		log.Fatalf("unknown -mode %q", *mode)
	}
	workload := doceph.WriteWorkload
	if *op == "read" {
		workload = doceph.ReadWorkload
	} else if *op != "write" {
		log.Fatalf("unknown -op %q", *op)
	}

	cl := doceph.NewCluster(doceph.ClusterConfig{
		Mode:            m,
		StorageNodes:    *nodes,
		Replicas:        *replicas,
		LinkBytesPerSec: *link * 1e9 / 8,
		Seed:            *seed,
	})
	defer cl.Shutdown()

	res, err := doceph.RunBench(cl, doceph.BenchConfig{
		Threads:     *threads,
		ObjectBytes: int64(*sizeMB) << 20,
		Duration:    doceph.Duration(*seconds) * doceph.Second,
		Warmup:      doceph.Duration(*warmup) * doceph.Second,
		Op:          workload,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("cluster: %s | %d nodes x %d replicas | %.0f Gbps | seed %d\n",
		*mode, cl.Config().StorageNodes, cl.Config().Replicas, *link, cl.Config().Seed)
	fmt.Println(res)
	fmt.Printf("latency: min %.4fs  p50 %.4fs  p99 %.4fs  max %.4fs\n",
		res.MinLatency.Seconds(), res.P50.Seconds(),
		res.P99.Seconds(), res.MaxLatency.Seconds())

	host := cl.HostCPUMerged()
	fmt.Printf("\nhost CPU (1-core norm): %s\n", report.Pct(host.SingleCoreUtilization()))
	cats := host.Categories()
	sort.Slice(cats, func(i, j int) bool { return host.BusyByCat[cats[i]] > host.BusyByCat[cats[j]] })
	for _, c := range cats {
		fmt.Printf("  %-14s %8s  (switches %d)\n", c, report.Pct(host.ShareOf(c)),
			host.SwitchesByCat[c])
	}
	if m == doceph.DoCeph {
		d := cl.DPUCPUMerged()
		fmt.Printf("DPU ARM CPU (1-core norm): %s\n", report.Pct(d.SingleCoreUtilization()))
		b := cl.ProxyBreakdownMerged()
		hw, dma, wait := b.Avg()
		fmt.Printf("proxy breakdown (avg per txn): host-write %.4fs  dma %.4fs  dma-wait %.4fs\n",
			hw.Seconds(), dma.Seconds(), wait.Seconds())
		for i, n := range cl.Nodes {
			st := n.Bridge.Proxy.Stats()
			fmt.Printf("  node%d: dma-txns %d, fallbacks %d, control-calls %d, probes %d\n",
				i, st.DataPlaneTxns, st.FallbackTxns+st.FallbackSegments,
				st.ControlCalls, st.Probes)
		}
	}
	if *perSecond {
		fmt.Println("\nper-second series:")
		for _, s := range res.PerSecond {
			fmt.Printf("  t=%2ds  ops=%4d  %7.1f MB/s  avg-lat %.4fs\n",
				s.Second, s.Ops, float64(s.Bytes)/1e6, s.AvgLat.Seconds())
		}
	}
}
