// Package cluster assembles the two deployments the paper compares on its
// three-node testbed (§5.1):
//
//   - Baseline: the BlueField-3 operates as a plain NIC; monitor, OSDs and
//     BlueStore all run on the host CPUs.
//   - DoCeph: the SmartNIC switches to DPU mode; monitor and OSDs (with
//     their messengers) run on the DPU ARM cores, each OSD backed by a
//     core.Proxy, while the host retains only BlueStore plus the small
//     RPC/DMA server.
//
// The calibration constants that map simulated cycles to the paper's
// measured shapes live in calibrate.go and are documented in EXPERIMENTS.md.
package cluster

import (
	"fmt"

	"doceph/internal/bluestore"
	"doceph/internal/core"
	"doceph/internal/crush"
	"doceph/internal/doca"
	"doceph/internal/dpu"
	"doceph/internal/faultinject"
	"doceph/internal/messenger"
	"doceph/internal/mgr"
	"doceph/internal/mon"
	"doceph/internal/objstore"
	"doceph/internal/osd"
	"doceph/internal/osdmap"
	"doceph/internal/rados"
	"doceph/internal/sim"
	"doceph/internal/telemetry"
	"doceph/internal/trace"
)

// Mode selects the deployment.
type Mode int

// Deployment modes.
const (
	Baseline Mode = iota
	DoCeph
)

func (m Mode) String() string {
	if m == DoCeph {
		return "doceph"
	}
	return "baseline"
}

// Config describes a testbed. Zero values take the paper's §5.1 defaults.
type Config struct {
	Mode         Mode
	StorageNodes int
	Replicas     int
	PGs          uint32
	Seed         int64

	// MinSize is the Ceph-style write quorum floor (osdmap.Map.MinSize):
	// PGs accept degraded writes down to MinSize acting members and reject
	// them with ResNoQuorum below that. Zero (the default) disables the
	// gate, preserving the legacy accept-always behaviour.
	MinSize int

	// LinkBytesPerSec is the Ethernet line rate (12.5e9 = 100 Gbps,
	// 0.125e9 = 1 Gbps).
	LinkBytesPerSec float64
	LinkLatency     sim.Duration

	// Host hardware (per node): AMD EPYC 9474F-like.
	HostCores   int
	HostFreqGHz float64

	// Disk: Samsung PM893-like SATA SSD.
	DiskWriteBps float64
	DiskReadBps  float64
	DiskIOLat    sim.Duration

	// Layer overrides (zero-valued fields inherit each layer's defaults,
	// already calibrated in calibrate.go).
	Messenger messenger.Config
	OSD       osd.Config
	BlueStore bluestore.Config
	DPU       dpu.Config
	Bridge    core.BridgeConfig
	Client    rados.Config

	// Trace threads an op-level span tracer through every layer (client,
	// messengers, OSDs, stores, DPU proxy and host server); the assembled
	// tracer is exposed as Cluster.Tracer. Off (the default) every hook
	// stays on its zero-cost nil path. Tracing is pure bookkeeping: it
	// never changes simulated timing or results.
	Trace bool
}

func (c Config) withDefaults() Config {
	if c.StorageNodes == 0 {
		c.StorageNodes = 2
	}
	if c.Replicas == 0 {
		c.Replicas = 2
	}
	if c.PGs == 0 {
		c.PGs = 128
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.LinkBytesPerSec == 0 {
		c.LinkBytesPerSec = Link100G
	}
	if c.LinkLatency == 0 {
		c.LinkLatency = 5 * sim.Microsecond
	}
	if c.HostCores == 0 {
		c.HostCores = 48
	}
	if c.HostFreqGHz == 0 {
		c.HostFreqGHz = 3.6
	}
	if c.DiskWriteBps == 0 {
		c.DiskWriteBps = 520e6
	}
	if c.DiskReadBps == 0 {
		c.DiskReadBps = 550e6
	}
	if c.DiskIOLat == 0 {
		c.DiskIOLat = 30 * sim.Microsecond
	}
	return c
}

// Link rates used by the experiments.
const (
	Link100G = 12.5e9
	Link1G   = 0.125e9
)

// StorageNode is one cluster node: always a host CPU + disk + BlueStore; in
// DoCeph mode additionally the DPU complex.
type StorageNode struct {
	Name    string
	HostCPU *sim.CPU
	Disk    *sim.Disk
	Store   *bluestore.Store
	OSD     *osd.OSD
	// DPU and Bridge are nil in Baseline mode.
	DPU    *dpu.DPU
	Bridge *core.Bridge
}

// Cluster is an assembled testbed ready to run workloads.
type Cluster struct {
	Env      *sim.Env
	Fabric   *sim.Fabric
	Registry *messenger.Registry
	Mon      *mon.Monitor
	Mgr      *mgr.Manager
	Nodes    []*StorageNode
	Client   *rados.Client
	// ClientCPU is the client node's CPU (not measured by the paper).
	ClientCPU *sim.CPU
	// Tracer is the op-level span tracer, nil unless Config.Trace is set.
	Tracer *trace.Tracer

	cfg Config
}

// validate panics on a defaulted configuration no cluster can be built
// from, naming the field and the values that clash. Zero still means "the
// layer's default" for every count below; only a negative one is rejected.
func (c Config) validate() {
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"StorageNodes", int64(c.StorageNodes)}, {"Replicas", int64(c.Replicas)}, {"MinSize", int64(c.MinSize)},
		{"OSD.OpWorkers", int64(c.OSD.OpWorkers)}, {"OSD.OpShards", int64(c.OSD.OpShards)},
		{"Messenger.Lanes", int64(c.Messenger.Lanes)},
		{"Messenger.Stream.ChunkBytes", c.Messenger.Stream.ChunkBytes},
		{"Messenger.Stream.Window", int64(c.Messenger.Stream.Window)},
		{"Bridge.Engine.Queues", int64(c.Bridge.Engine.Queues)},
		{"Bridge.Batch.MaxBatchBytes", c.Bridge.Batch.MaxBatchBytes},
		{"Bridge.Batch.MaxOpBytes", c.Bridge.Batch.MaxOpBytes},
	} {
		if f.v < 0 {
			panic(fmt.Sprintf("cluster: %s (%d) must not be negative", f.name, f.v))
		}
	}
	if c.Replicas > c.StorageNodes {
		panic(fmt.Sprintf("cluster: Replicas (%d) exceeds StorageNodes (%d): one OSD per node holds one copy",
			c.Replicas, c.StorageNodes))
	}
	if c.MinSize > c.Replicas {
		panic(fmt.Sprintf("cluster: MinSize (%d) exceeds Replicas (%d): no write could reach quorum",
			c.MinSize, c.Replicas))
	}
}

// New assembles a cluster per cfg; a configuration that cannot be built
// panics (see validate).
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	cfg.validate()
	cfg = calibrate(cfg)
	env := sim.NewEnv(cfg.Seed)
	fabric := sim.NewFabric(env, "eth", cfg.LinkLatency)
	reg := messenger.NewRegistry()

	crushMap := crush.BuildUniform(cfg.StorageNodes, 1, 1.0)
	baseMap := osdmap.New(crushMap, cfg.PGs, cfg.Replicas)
	baseMap.MinSize = cfg.MinSize

	cl := &Cluster{Env: env, Fabric: fabric, Registry: reg, cfg: cfg}
	if cfg.Trace {
		cl.Tracer = trace.New(env)
	}

	fabric.AddNode("client-node", cfg.LinkBytesPerSec)
	cl.ClientCPU = sim.NewCPU(env, "client-cpu", 32, 3.2, 2000)

	for i := 0; i < cfg.StorageNodes; i++ {
		node := &StorageNode{Name: fmt.Sprintf("node%d", i)}
		fabric.AddNode(node.Name, cfg.LinkBytesPerSec)
		node.HostCPU = sim.NewCPU(env, "host-"+node.Name, cfg.HostCores, cfg.HostFreqGHz, 2500)
		node.Disk = sim.NewDisk(env, "ssd-"+node.Name, cfg.DiskWriteBps, cfg.DiskReadBps, cfg.DiskIOLat)
		node.Store = bluestore.New(env, node.Name, node.HostCPU, node.Disk, cfg.BlueStore)
		node.Store.SetTracer(cl.Tracer)

		// The CPU that runs Ceph daemons (OSD + messenger + MON) depends on
		// the mode; the store backend the OSD sees does too.
		daemonCPU := node.HostCPU
		var backend objstore.Store = node.Store
		if cfg.Mode == DoCeph {
			node.DPU = dpu.New(env, fmt.Sprintf("bf3-%d", i), cfg.DPU)
			node.Bridge = core.NewBridge(env, node.DPU, node.HostCPU, node.Store, cfg.Bridge)
			node.Bridge.Proxy.SetTracer(cl.Tracer)
			node.Bridge.Host.SetTracer(cl.Tracer)
			daemonCPU = node.DPU.CPU
			backend = node.Bridge.Proxy
		}

		if i == 0 {
			mmsgr := messenger.New(env, reg, fabric, daemonCPU, "mon.0", node.Name, cfg.Messenger)
			cl.Mon = mon.New(env, daemonCPU, mmsgr, baseMap.Next(), mon.Config{})
		}
		omsgr := messenger.New(env, reg, fabric, daemonCPU, osd.Name(int32(i)), node.Name, cfg.Messenger)
		omsgr.SetTracer(cl.Tracer)
		ocfg := cfg.OSD
		ocfg.Monitor = "mon.0"
		node.OSD = osd.New(env, daemonCPU, int32(i), omsgr, backend, baseMap, ocfg)
		node.OSD.SetTracer(cl.Tracer)
		cl.Mon.Subscribe(osd.Name(int32(i)))
		cl.Nodes = append(cl.Nodes, node)
	}

	// The MGR polls every OSD from the first node's daemon CPU (paper
	// §5.1: "the full Ceph cluster (MON, MGR, and OSD)").
	mgrCPU := cl.Nodes[0].HostCPU
	if cfg.Mode == DoCeph {
		mgrCPU = cl.Nodes[0].DPU.CPU
	}
	var osdNames []string
	for i := range cl.Nodes {
		osdNames = append(osdNames, osd.Name(int32(i)))
	}
	gmsgr := messenger.New(env, reg, fabric, mgrCPU, "mgr.0", cl.Nodes[0].Name, cfg.Messenger)
	cl.Mgr = mgr.New(env, mgrCPU, gmsgr, osdNames, mgr.Config{})

	cmsgr := messenger.New(env, reg, fabric, cl.ClientCPU, "client.0", "client-node", cfg.Messenger)
	cmsgr.SetTracer(cl.Tracer)
	ccfg := cfg.Client
	ccfg.Monitor = "mon.0"
	cl.Client = rados.New(env, cl.ClientCPU, cmsgr, baseMap, ccfg)
	cl.Client.SetTracer(cl.Tracer)
	cl.Mon.Subscribe("client.0")
	return cl
}

// Config returns the post-default, post-calibration configuration.
func (c *Cluster) Config() Config { return c.cfg }

// FaultTargets binds this cluster's live components for fault injection.
// In Baseline mode the DPU target maps stay empty, so DPU fault kinds are
// no-ops — the same plan can drive both deployments.
func (c *Cluster) FaultTargets() faultinject.Targets {
	t := faultinject.Targets{
		Fabric:   c.Fabric,
		Stores:   make(map[string]*bluestore.Store),
		StoreOSD: make(map[string]int32),
		OSDs:     make(map[int32]*osd.OSD),
		Mon:      c.Mon,
		Engines:  make(map[string][]*doca.Engine),
		Channels: make(map[string]*doca.CommChannel),
	}
	for i, n := range c.Nodes {
		t.Stores[n.Name] = n.Store
		t.StoreOSD[n.Name] = int32(i)
		t.OSDs[int32(i)] = n.OSD
		if n.Bridge != nil {
			t.Engines[n.Name] = []*doca.Engine{n.Bridge.EngUp, n.Bridge.EngDown}
			t.Channels[n.Name] = n.Bridge.CC
		}
	}
	return t
}

// ResetHostStats starts fresh accounting windows on every host CPU (and DPU
// CPU) — called at the end of benchmark warmup. The tracer window resets
// with it so traced CPU stays comparable to the CPU accounting.
func (c *Cluster) ResetHostStats() {
	c.Tracer.Reset()
	c.ClientCPU.ResetStats()
	for _, n := range c.Nodes {
		n.HostCPU.ResetStats()
		if n.DPU != nil {
			n.DPU.CPU.ResetStats()
		}
		if n.Bridge != nil {
			n.Bridge.Proxy.ResetBreakdown()
		}
	}
}

// HostCPUMerged returns the merged host-CPU accounting across storage nodes
// — the quantity behind Figures 5 and 7 and Table 2.
func (c *Cluster) HostCPUMerged() telemetry.MergedCPU {
	stats := make([]sim.CPUStats, 0, len(c.Nodes))
	for _, n := range c.Nodes {
		stats = append(stats, n.HostCPU.Stats())
	}
	return telemetry.Merge(stats...)
}

// DPUCPUMerged returns the merged DPU ARM accounting (DoCeph mode only).
func (c *Cluster) DPUCPUMerged() telemetry.MergedCPU {
	stats := make([]sim.CPUStats, 0, len(c.Nodes))
	for _, n := range c.Nodes {
		if n.DPU != nil {
			stats = append(stats, n.DPU.CPU.Stats())
		}
	}
	return telemetry.Merge(stats...)
}

// ProxyBreakdownMerged sums the per-phase write accounting across nodes
// (DoCeph mode only).
func (c *Cluster) ProxyBreakdownMerged() core.Breakdown {
	var b core.Breakdown
	for _, n := range c.Nodes {
		if n.Bridge == nil {
			continue
		}
		nb := n.Bridge.Proxy.BreakdownSnapshot()
		b.Requests += nb.Requests
		b.HostWrite += nb.HostWrite
		b.DMA += nb.DMA
		b.DMAWait += nb.DMAWait
	}
	return b
}

// Shutdown reclaims all simulation goroutines.
func (c *Cluster) Shutdown() { c.Env.Shutdown() }
