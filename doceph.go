// Package doceph is the public facade of the DoCeph reproduction: a
// deterministic, discrete-event simulated Ceph cluster that can run either
// as the paper's Baseline (full Ceph on the host CPUs, SmartNIC in NIC
// mode) or as DoCeph (OSDs and messengers on BlueField-3-class DPU ARM
// cores, only BlueStore plus a thin RPC/DMA server left on the host).
//
// Quick start:
//
//	cl := doceph.NewCluster(doceph.ClusterConfig{Mode: doceph.DoCeph})
//	res, err := doceph.RunBench(cl, doceph.BenchConfig{
//		Threads: 16, ObjectBytes: 4 << 20,
//		Duration: 10 * doceph.Second, Warmup: doceph.Second,
//	})
//	fmt.Println(res, cl.HostCPUMerged().SingleCoreUtilization())
//
// The experiment registry (registry.go; Experiment, Select, Options) holds
// every table and figure of the paper's evaluation plus the extensions —
// cmd/docephbench is a loop over it; see EXPERIMENTS.md for measured-vs-paper
// numbers.
package doceph

import (
	"doceph/internal/cluster"
	"doceph/internal/radosbench"
	"doceph/internal/sim"
)

// Deployment modes (paper §5.1).
const (
	// Baseline runs the full Ceph stack on the host CPUs.
	Baseline = cluster.Baseline
	// DoCeph offloads OSDs and messengers to the DPU.
	DoCeph = cluster.DoCeph
)

// Re-exported types forming the public API surface.
type (
	// Mode selects Baseline or DoCeph deployment.
	Mode = cluster.Mode
	// ClusterConfig describes the simulated testbed.
	ClusterConfig = cluster.Config
	// Cluster is an assembled testbed.
	Cluster = cluster.Cluster
	// StorageNode is one cluster node.
	StorageNode = cluster.StorageNode
	// BenchConfig describes a RADOS-bench-style workload.
	BenchConfig = radosbench.Config
	// BenchResult carries a workload's measurements.
	BenchResult = radosbench.Result
	// ClassStats carries per-op-class (read or write) metrics of a mixed
	// workload.
	ClassStats = radosbench.ClassStats
	// Duration is virtual time in nanoseconds.
	Duration = sim.Duration
)

// Workload patterns.
const (
	// WriteWorkload is rados bench's write-only pattern.
	WriteWorkload = radosbench.Write
	// ReadWorkload is the read pattern (paper §5.5 / future work).
	ReadWorkload = radosbench.Read
	// MixedWorkload interleaves reads and writes per BenchConfig.ReadPercent.
	MixedWorkload = radosbench.Mixed
)

// Time units for configuring workloads.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Link rates for ClusterConfig.LinkBytesPerSec.
const (
	Link100G = cluster.Link100G
	Link1G   = cluster.Link1G
)

// NewCluster assembles a simulated testbed.
func NewCluster(cfg ClusterConfig) *Cluster { return cluster.New(cfg) }

// RunBench executes a closed-loop benchmark against cl's client and returns
// its measurements. If cfg.OnWarmupEnd is nil, the cluster's host-CPU
// accounting windows are reset at the warmup boundary so utilization
// numbers cover exactly the measured window.
func RunBench(cl *Cluster, cfg BenchConfig) (BenchResult, error) {
	if cfg.OnWarmupEnd == nil {
		cfg.OnWarmupEnd = cl.ResetHostStats
	}
	return radosbench.Run(cl.Env, cl.Client, cfg)
}
