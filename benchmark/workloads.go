package main

import (
	"fmt"

	"doceph/internal/cluster"
	"doceph/internal/radosbench"
	"doceph/internal/sim"
)

// workload is one fixed-work input set. Exactly one of bench (a radosbench
// run on one cluster) or scale (the partitioned multi-rack assembly) is
// used. Op counts are part of the definition: host cost per op grows with
// run length, so two runs compare only at the same length.
type workload struct {
	name string
	why  string

	cluster cluster.Config
	bench   radosbench.Config

	scale   *cluster.ScaleOutConfig
	workers int

	// paper is the paper's §5 result at 4 MB, 16 threads, 100 Gbps for this
	// deployment, keyed by the end-to-end metric it corresponds to; nil
	// elsewhere.
	paper map[string]float64
	// engaged fails when the path the workload exists to measure did not
	// run, so no workload silently measures another one's path.
	engaged func(r *repResult) error
}

// workloads returns the six workloads in report order. Sizes give roughly
// one second of host time per repetition on a 2-core host while keeping
// at least 1,100 measured ops, so ten samples lie beyond the p99.
func workloads() []workload {
	return []workload{
		{
			name:    "paper-4M-baseline",
			why:     "paper's 4 MB reference row: messenger on host cores, so dpu/doca/core changes must not move it",
			cluster: cluster.Config{Mode: cluster.Baseline},
			bench: radosbench.Config{Threads: 16, ObjectBytes: 4 << 20, OpsPerThread: 1000,
				Warmup: 5 * sim.Second},
			paper:   map[string]float64{"sim_host_cpu_pct": 70.1, "sim_iops": 119, "sim_lat_avg_ms": 130},
			engaged: func(r *repResult) error { return want(r.bridges == 0, "baseline assembled %d DPU bridges", r.bridges) },
		},
		{
			name:    "paper-4M-doceph",
			why:     "paper's headline row: each txn crosses PCIe as 2 MiB segments, so proxy staging, engine wait and host polling do the work",
			cluster: cluster.Config{Mode: cluster.DoCeph},
			bench: radosbench.Config{Threads: 16, ObjectBytes: 4 << 20, OpsPerThread: 550,
				Warmup: 5 * sim.Second},
			paper:   map[string]float64{"sim_host_cpu_pct": 5.75, "sim_iops": 112, "sim_lat_avg_ms": 140},
			engaged: func(r *repResult) error { return want(r.c[cProxyTxns] > 0, "no transaction crossed the proxy") },
		},
		{
			name:    "mix70-4K-doceph",
			why:     "4 KiB 70% reads: payload is negligible, so fixed per-op costs (events, framing, codec, dispatch, kv-sync) do all the work",
			cluster: cluster.Config{Mode: cluster.DoCeph},
			bench: radosbench.Config{Threads: 16, ObjectBytes: 4 << 10, OpsPerThread: 1000,
				Op: radosbench.Mixed, ReadPercent: 70, PrepopulateObjects: 1024,
				Warmup: 500 * sim.Millisecond},
			engaged: func(r *repResult) error {
				return want(r.c[cClientReads] > 0 && r.c[cClientWrites] > 0, "mix ran %d reads, %d writes",
					r.c[cClientReads], r.c[cClientWrites])
			},
		},
		{
			name: "batch-64K-mq4",
			why:  "64 KiB writes through batched frames, 4 DMA queues, 4 op shards, 4 lanes: many small txns coalesced into one transfer",
			cluster: func() cluster.Config {
				c := cluster.Config{Mode: cluster.DoCeph}
				c.Bridge.Batch.Enable = true
				c.Bridge.Engine.Queues = 4
				c.OSD.OpShards = 4
				c.Messenger.Lanes = 4
				return c
			}(),
			bench: radosbench.Config{Threads: 16, ObjectBytes: 64 << 10, OpsPerThread: 600,
				Warmup: 200 * sim.Millisecond},
			engaged: func(r *repResult) error { return want(r.c[cBatchedTxns] > 0, "batching did not engage") },
		},
		{
			name: "stream-16M-doceph",
			why:  "16 MiB writes through the credit-windowed chunk stream and per-chunk OSD ingest: the third staging path and the costliest op",
			cluster: func() cluster.Config {
				c := cluster.Config{Mode: cluster.DoCeph}
				c.Messenger.Stream.Enable = true
				return c
			}(),
			bench: radosbench.Config{Threads: 4, ObjectBytes: 16 << 20, OpsPerThread: 340,
				Warmup: 5 * sim.Second},
			engaged: func(r *repResult) error { return want(r.c[cStreamWrites] > 0, "streaming did not engage") },
		},
		{
			name: "scaleout-128osd-zipf",
			why:  "16 racks x 8 OSDs, Zipf 70% reads on 2 kernel workers: the only workload where barrier windows and cross-partition delivery do the work",
			scale: &cluster.ScaleOutConfig{Pods: 16, OSDsPerPod: 8, Mode: cluster.DoCeph,
				Threads: 2, ObjectBytes: 64 << 10, ReadPercent: 70,
				Popularity:   radosbench.Popularity{Kind: radosbench.PopZipf},
				BalanceReads: true, Duration: 1500 * sim.Millisecond, Warmup: 500 * sim.Millisecond},
			workers: 2,
			engaged: func(r *repResult) error {
				return want(r.delivered > 0 && r.c[cBalancedReads] > 0,
					"scale-out delivered %d cross-partition messages, %d balanced reads", r.delivered, r.c[cBalancedReads])
			},
		},
	}
}

func want(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf("path not engaged: "+format, args...)
}

// seeded returns w with every input derived from seed: the kernel RNG (DMA
// jitter), the object names (and so CRUSH placement) and the popularity
// draws.
func (w workload) seeded(seed int64) workload {
	if w.scale != nil {
		sc := *w.scale
		sc.Seed = seed
		w.scale = &sc
		return w
	}
	w.cluster.Seed = seed
	w.bench.Prefix = fmt.Sprintf("bench_s%d", seed)
	return w
}

// threads is the closed-loop client count.
func (w workload) threads() int {
	if w.scale != nil {
		return w.scale.Pods * w.scale.Threads
	}
	return w.bench.Threads
}
