// Scale-out assembly: a multi-rack cluster built on the partitioned
// parallel kernel (sim.Group). Each rack ("pod") is a complete DoCeph
// sub-cluster — OSDs, BlueStore, DPU bridges, rack-local MON/MGR and a
// closed-loop client group — living in its own partition with its own
// event heap and worker; replica placement is rack-local (CRUSH failure
// domain = rack). A coordinator partition runs the root monitor: every
// rack agent beacons its health and op counters up on a cross-rack link,
// and the root monitor aggregates them into cluster epochs acked back
// down. Cross-rack links are the only state crossing a partition
// boundary, and their latency is the kernel's lookahead window.
package cluster

import (
	"fmt"

	"doceph/internal/crush"
	"doceph/internal/doca"
	"doceph/internal/osdmap"
	"doceph/internal/rados"
	"doceph/internal/radosbench"
	"doceph/internal/sim"
	"doceph/internal/wire"
)

// PartitionPlan maps a flat space of osds OSD ids onto pods partitions as
// contiguous blocks (rack-style placement: consecutive OSDs share a rack).
// The first osds%pods pods take one extra OSD when the division is uneven.
func PartitionPlan(osds, pods int) [][]int32 {
	if pods <= 0 || osds <= 0 {
		panic(fmt.Sprintf("cluster: partition plan needs positive osds (%d) and pods (%d)", osds, pods))
	}
	if pods > osds {
		pods = osds
	}
	plan := make([][]int32, pods)
	per, extra := osds/pods, osds%pods
	next := int32(0)
	for i := range plan {
		n := per
		if i < extra {
			n++
		}
		for j := 0; j < n; j++ {
			plan[i] = append(plan[i], next)
			next++
		}
	}
	return plan
}

// CrossRackLookahead derives the conservative lookahead bound for
// pod<->coordinator links from the model's own latency floors: five
// rack-link propagation delays for the spine crossing (cfg.LinkLatency),
// plus the DPU DMA engine's first-touch setup floor (doca: descriptor
// setup + doorbell) and the disk I/O floor (cfg.DiskIOLat) — the minimum
// service a cross-rack control message must traverse before it can alter
// a remote rack's data path. Every cross-rack message really takes this
// long, so partitions may safely run ahead of each other by the same
// bound.
func CrossRackLookahead(cfg Config) sim.Duration {
	cfg = cfg.withDefaults()
	eng := doca.DefaultEngineConfig()
	return 5*cfg.LinkLatency + eng.SetupTime + cfg.DiskIOLat
}

// ScaleOutConfig describes a partitioned multi-rack cluster plus the
// closed-loop workload its racks run. Zero values take scale-out defaults
// (8 racks x 4 OSDs = the 32-OSD scenario).
type ScaleOutConfig struct {
	// Pods is the number of racks, one partition each (default 8).
	Pods int
	// OSDsPerPod is the rack size (default 4).
	OSDsPerPod int
	// Mode selects Baseline or DoCeph racks (zero value is Baseline,
	// matching Config; the perf scenarios set DoCeph explicitly).
	Mode Mode
	// Seed seeds the coordinator; rack r derives seed Seed + (r+1)<<32.
	Seed int64
	// PGs per rack pool (default 64; racks are independent pools).
	PGs uint32

	// Threads is the closed-loop client count per rack (default 4).
	Threads int
	// ObjectBytes is the write size (default 256 KiB).
	ObjectBytes int64
	// ReadPercent mixes reads into each rack's workload: that share of ops
	// reads back rack-local prepopulated objects, derived from (worker,
	// op-index) like radosbench's fixed-work split so the op set is a pure
	// function of the configuration. 0 (the default) keeps the historical
	// write-only workload with no prepopulation phase.
	ReadPercent int
	// Duration is the measured window (default 2s); Warmup precedes it
	// (default 500ms) and is excluded from the counters.
	Duration sim.Duration
	Warmup   sim.Duration

	// BeaconPeriod is the rack agent's reporting interval (default 50ms).
	BeaconPeriod sim.Duration
	// CrossRackLatency overrides the pod<->coordinator link latency — the
	// lookahead window (default CrossRackLookahead of the rack config).
	CrossRackLatency sim.Duration

	// Popularity switches the workload to a catalog-driven object-popularity
	// model (uniform, Zipf or N-hot). A global rack-aware CRUSH map
	// (crush.BuildRacks over all Pods x OSDsPerPod devices, failure domain =
	// rack) homes each catalog object to the rack owning its global PG's
	// primary, and every rack's clients then draw from their rack's share of
	// the catalog under the model — so real CRUSH drives workload routing
	// while the data plane stays rack-local (the partition constraint).
	// Popularity.Objects sizes the global catalog (default 8 x total OSDs).
	// PopNone (the default) keeps the historical workload and event stream.
	Popularity radosbench.Popularity
	// BalanceReads flags reads CEPH_OSD_FLAG_BALANCE_READS so any rack-local
	// acting-set member may serve them, flattening hot primaries.
	BalanceReads bool
	// CollectImbalance gathers per-OSD/per-PG served-op counts and per-tick
	// OSD queue-depth samples into the result (raw arrays; perf computes the
	// max/mean and p99:p50 figures). Sampling rides the existing rack-agent
	// beacon tick, so it adds no events and results stay worker-independent.
	CollectImbalance bool
}

func (c ScaleOutConfig) withDefaults() ScaleOutConfig {
	if c.Pods == 0 {
		c.Pods = 8
	}
	if c.OSDsPerPod == 0 {
		c.OSDsPerPod = 4
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.PGs == 0 {
		c.PGs = 64
	}
	if c.Threads == 0 {
		c.Threads = 4
	}
	if c.ObjectBytes == 0 {
		c.ObjectBytes = 256 << 10
	}
	if c.Duration == 0 {
		c.Duration = 2 * sim.Second
	}
	if c.Warmup == 0 {
		c.Warmup = 500 * sim.Millisecond
	}
	if c.BeaconPeriod == 0 {
		c.BeaconPeriod = 50 * sim.Millisecond
	}
	if c.CrossRackLatency == 0 {
		c.CrossRackLatency = CrossRackLookahead(c.rackConfig(0))
	}
	if c.Popularity.Kind != radosbench.PopNone {
		c.Popularity = c.Popularity.WithDefaults()
		if c.Popularity.Objects == 0 {
			c.Popularity.Objects = 8 * c.Pods * c.OSDsPerPod
		}
	}
	return c
}

// rackReplicas is the rack-local replication factor.
const rackReplicas = 2

// rackConfig is the per-rack cluster configuration.
func (c ScaleOutConfig) rackConfig(pod int) Config {
	return Config{
		Mode:         c.Mode,
		StorageNodes: c.OSDsPerPod,
		Replicas:     rackReplicas,
		PGs:          c.PGs,
		Seed:         c.Seed + int64(pod+1)<<32,
		Client:       rados.Config{BalanceReads: c.BalanceReads},
	}
}

// buildCatalogs homes the global object catalog to racks through the
// rack-aware CRUSH hierarchy: object name → global PG → primary OSD → rack
// (device ids are rack-major, so rack = id / OSDsPerPod). Catalog index is
// popularity rank (object 0 hottest); each rack's slice preserves global
// rank order, so rack-local draws keep the configured skew shape. The
// homing map has 2 x total OSDs PGs and min(3, Pods) replicas; both shape
// catalog homing only — rack pools keep their own PGs and replication.
func (c ScaleOutConfig) buildCatalogs() [][]string {
	gm := osdmap.New(crush.BuildRacks(c.Pods, c.OSDsPerPod, 1, 1.0),
		2*uint32(c.Pods*c.OSDsPerPod), min(3, c.Pods))
	cats := make([][]string, c.Pods)
	for i := 0; i < c.Popularity.Objects; i++ {
		name := fmt.Sprintf("so_obj_%d", i)
		prim := gm.Primary(gm.PGForObject(name))
		if prim < 0 {
			panic(fmt.Sprintf("cluster: catalog object %s has no primary", name))
		}
		rack := int(prim) / c.OSDsPerPod
		cats[rack] = append(cats[rack], name)
	}
	for r, cat := range cats {
		if len(cat) == 0 {
			panic(fmt.Sprintf("cluster: rack %d drew an empty catalog — "+
				"grow Popularity.Objects (%d over %d racks)", r, c.Popularity.Objects, c.Pods))
		}
	}
	return cats
}

// Beacon is the rack agent's periodic report to the root monitor.
type Beacon struct {
	Pod  int
	Ops  int64
	Sent sim.Time
}

// EpochAck is the root monitor's reply: the cluster epoch the beacon was
// folded into.
type EpochAck struct {
	Epoch int64
}

// Pod is one rack: a full sub-cluster bound to its partition plus the
// cross-rack links and the rack-local workload counters.
type Pod struct {
	ID int
	// OSDs are the rack's global OSD ids per the partition plan.
	OSDs    []int32
	Cluster *Cluster
	// Up carries beacons to the coordinator; Down carries epoch acks back.
	Up, Down *sim.XLink

	ops     int64
	bytes   int64
	latSum  sim.Duration
	beacons int64
	acks    int64
	epoch   int64
	err     error
	// qdepth holds per-beacon-tick OSD queue-depth samples (node order,
	// tick-major), populated only under CollectImbalance.
	qdepth []int64
}

// ScaleOut is an assembled partitioned cluster ready to Run.
type ScaleOut struct {
	Cfg   ScaleOutConfig
	Group *sim.Group
	// Coord is the coordinator partition's environment (root monitor).
	Coord *sim.Env
	Pods  []*Pod

	beaconsRx int64
	epochs    int64
	reported  []bool
	pendingRe int
}

// PodResult is one rack's share of a run.
type PodResult struct {
	Pod       int     `json:"pod"`
	OSDs      []int32 `json:"osds"`
	Ops       int64   `json:"ops"`
	Bytes     int64   `json:"bytes"`
	LatSumNs  int64   `json:"lat_sum_ns"`
	Beacons   int64   `json:"beacons"`
	Acks      int64   `json:"acks"`
	LastEpoch int64   `json:"last_epoch"`
	Events    uint64  `json:"events"`
	ClockNs   int64   `json:"clock_ns"`
}

// ScaleOutResult aggregates a run. Every field is a pure function of the
// configuration and seed — never of worker count, GOMAXPROCS or wall
// clock — which is what the determinism property test asserts.
type ScaleOutResult struct {
	Pods       []PodResult `json:"pods"`
	TotalOps   int64       `json:"total_ops"`
	TotalBytes int64       `json:"total_bytes"`
	Beacons    int64       `json:"beacons"`
	Epochs     int64       `json:"epochs"`
	Events     uint64      `json:"events"`
	Rounds     uint64      `json:"rounds"`
	Windows    uint64      `json:"windows"`
	Delivered  uint64      `json:"delivered"`

	// Raw imbalance material, populated only under CollectImbalance
	// (omitted from JSON otherwise, so legacy fingerprints are unchanged).
	// Indexing: OSD arrays by global OSD id (partition-plan order), PGOps
	// by pod*PGs+localPG, QueueDepthSamples pooled over (tick, OSD).
	// ComputeImbalance turns these into the max/mean and p99:p50 figures.
	OSDOps            []int64 `json:"osd_ops,omitempty"`
	OSDReads          []int64 `json:"osd_reads,omitempty"`
	OSDBalancedReads  []int64 `json:"osd_balanced_reads,omitempty"`
	PGOps             []int64 `json:"pg_ops,omitempty"`
	QueueDepthSamples []int64 `json:"queue_depth_samples,omitempty"`
}

// AvgLatency returns the mean op latency over the measured window.
func (r ScaleOutResult) AvgLatency() sim.Duration {
	if r.TotalOps == 0 {
		return 0
	}
	var sum sim.Duration
	for _, p := range r.Pods {
		sum += sim.Duration(p.LatSumNs)
	}
	return sum / sim.Duration(r.TotalOps)
}

// NewScaleOut assembles the partitioned cluster: one partition per rack
// plus the coordinator, cross-linked with the lookahead-bounded rack
// links, with the root monitor and every rack's agent, ack listener,
// warmup reset and client group already spawned. Call Run to execute.
func NewScaleOut(cfg ScaleOutConfig) *ScaleOut {
	cfg = cfg.withDefaults()
	g := sim.NewGroup()
	coord := sim.NewEnv(cfg.Seed)
	coordID := g.Add("coord", coord)
	plan := PartitionPlan(cfg.Pods*cfg.OSDsPerPod, cfg.Pods)

	s := &ScaleOut{Cfg: cfg, Group: g, Coord: coord, reported: make([]bool, cfg.Pods)}
	for i := 0; i < cfg.Pods; i++ {
		cl := New(cfg.rackConfig(i))
		pid := g.Add(fmt.Sprintf("pod%d", i), cl.Env)
		pod := &Pod{ID: i, OSDs: plan[i], Cluster: cl}
		pod.Up = g.Connect(fmt.Sprintf("pod%d-up", i), pid, coordID, cfg.CrossRackLatency)
		pod.Down = g.Connect(fmt.Sprintf("pod%d-down", i), coordID, pid, cfg.CrossRackLatency)
		s.Pods = append(s.Pods, pod)
	}

	// Root monitor: one receiver per rack link. Coordinator state is only
	// touched from coordinator procs, so it needs no locking.
	for _, pod := range s.Pods {
		pod := pod
		coord.SpawnDaemon(fmt.Sprintf("root-mon-rx%d", pod.ID), func(p *sim.Proc) {
			for {
				m := pod.Up.Recv(p)
				b := m.Payload.(Beacon)
				s.beaconsRx++
				if !s.reported[b.Pod] {
					s.reported[b.Pod] = true
					s.pendingRe++
					if s.pendingRe == len(s.Pods) {
						// Every rack reported since the last epoch: advance.
						s.epochs++
						s.pendingRe = 0
						for i := range s.reported {
							s.reported[i] = false
						}
					}
				}
				pod.Down.Send(p, EpochAck{Epoch: s.epochs})
			}
		})
	}

	deadline := sim.Time(0).Add(cfg.Warmup + cfg.Duration)
	measureStart := sim.Time(0).Add(cfg.Warmup)
	payload := radosbench.Payload(cfg.ObjectBytes)
	nPrepop := cfg.Threads * 4
	// Catalog-driven mode: home the global catalog to racks through the
	// rack-aware CRUSH map and give each rack a generator over its share.
	var catalogs [][]string
	var gens []*radosbench.PopGen
	if cfg.Popularity.Kind != radosbench.PopNone {
		catalogs = cfg.buildCatalogs()
		gens = make([]*radosbench.PopGen, cfg.Pods)
		for i, cat := range catalogs {
			g, err := radosbench.NewPopGen(cfg.Popularity, len(cat))
			if err != nil {
				panic(fmt.Sprintf("cluster: popularity generator: %v", err))
			}
			gens[i] = g
		}
	}
	for _, pod := range s.Pods {
		pod := pod
		env := pod.Cluster.Env
		var catalog []string
		var gen *radosbench.PopGen
		if gens != nil {
			catalog, gen = catalogs[pod.ID], gens[pod.ID]
		}
		if cfg.Warmup > 0 {
			env.Spawn(fmt.Sprintf("warmup-reset-p%d", pod.ID), func(p *sim.Proc) {
				p.Wait(cfg.Warmup)
				pod.Cluster.ResetHostStats()
			})
		}
		// A mixed workload prepopulates rack-local read targets first — the
		// rack's catalog share in popularity mode, the legacy per-thread
		// stride set otherwise. The write-only default spawns none of this
		// machinery, keeping its event stream (and goldens) untouched.
		var prepopDone *sim.Event
		if cfg.ReadPercent > 0 {
			prepopDone = sim.NewEvent()
			env.Spawn(fmt.Sprintf("bench-prepop-p%d", pod.ID), func(p *sim.Proc) {
				p.SetThread(sim.NewThread(fmt.Sprintf("bench-prepop-p%d", pod.ID), rados.ThreadCat))
				n := nPrepop
				if catalog != nil {
					n = len(catalog)
				}
				for i := 0; i < n; i++ {
					obj := fmt.Sprintf("so_p%d_prepop_%d", pod.ID, i)
					if catalog != nil {
						obj = catalog[i]
					}
					if err := pod.Cluster.Client.Write(p, obj, payload); err != nil {
						pod.err = fmt.Errorf("pod %d prepopulate: %w", pod.ID, err)
						break
					}
				}
				prepopDone.Fire()
			})
		}
		for t := 0; t < cfg.Threads; t++ {
			t := t
			env.Spawn(fmt.Sprintf("bench-p%d-t%d", pod.ID, t), func(p *sim.Proc) {
				p.SetThread(sim.NewThread(fmt.Sprintf("bench-p%d-t%d", pod.ID, t), rados.ThreadCat))
				if prepopDone != nil {
					prepopDone.Wait(p)
				}
				// A read's data is viewed into read, emptied per read.
				var read wire.Inline2
				for i := 0; pod.err == nil && p.Now() < deadline; i++ {
					start := p.Now()
					var err error
					bytes := cfg.ObjectBytes
					// Same fixed (worker, index) split as radosbench's
					// fixed-work mode: the op set never depends on timing.
					doRead := cfg.ReadPercent > 0 && (t*7919+i*104729)%100 < cfg.ReadPercent
					if gen != nil {
						// Catalog-driven op: the target is a pure function
						// of (seed, pod, thread, op index) — reads and
						// writes both land on the popularity-ranked
						// catalog, so skew shapes write-primary load too.
						stream := uint64(pod.ID)<<48 ^ uint64(t)<<32 ^ uint64(uint32(i))
						obj := catalog[gen.Pick(cfg.Seed, stream)]
						if doRead {
							bl := read.Init()
							if err = pod.Cluster.Client.ReadInto(p, obj, 0, 0, bl); err == nil {
								bytes = int64(bl.Length())
							}
						} else {
							err = pod.Cluster.Client.Write(p, obj, payload)
						}
					} else if doRead {
						obj := fmt.Sprintf("so_p%d_prepop_%d", pod.ID, (t*7919+i)%nPrepop)
						bl := read.Init()
						if err = pod.Cluster.Client.ReadInto(p, obj, 0, 0, bl); err == nil {
							bytes = int64(bl.Length())
						}
					} else {
						obj := fmt.Sprintf("so_p%d_w%d_%d", pod.ID, t, i)
						err = pod.Cluster.Client.Write(p, obj, payload)
					}
					if err != nil {
						pod.err = fmt.Errorf("pod %d worker %d: %w", pod.ID, t, err)
						return
					}
					if end := p.Now(); end > measureStart && end <= deadline {
						pod.ops++
						pod.bytes += bytes
						pod.latSum += end.Sub(start)
					}
				}
			})
		}
		env.Spawn(fmt.Sprintf("rack-agent-p%d", pod.ID), func(p *sim.Proc) {
			for {
				// The agent is the rack's only cross-rack sender and speaks
				// on its own tick, so it promises the kernel silence until
				// then: peers run a beacon period ahead, not a link latency.
				pod.Up.Hold(p.Now().Add(cfg.BeaconPeriod))
				p.Wait(cfg.BeaconPeriod)
				if p.Now() >= deadline {
					return
				}
				if cfg.CollectImbalance && p.Now() > measureStart {
					// Backlog snapshot on the agent's own tick: node-order
					// deterministic and event-free, so worker count cannot
					// perturb it.
					for _, n := range pod.Cluster.Nodes {
						pod.qdepth = append(pod.qdepth, int64(n.OSD.QueueDepth()))
					}
				}
				pod.Up.Send(p, Beacon{Pod: pod.ID, Ops: pod.ops, Sent: p.Now()})
				pod.beacons++
			}
		})
		env.SpawnDaemon(fmt.Sprintf("rack-ack-p%d", pod.ID), func(p *sim.Proc) {
			for {
				m := pod.Down.Recv(p)
				a := m.Payload.(EpochAck)
				pod.acks++
				pod.epoch = a.Epoch
			}
		})
	}
	return s
}

// Run drives the partitioned kernel to the workload deadline on up to
// workers goroutines and returns the aggregated, deterministic result.
func (s *ScaleOut) Run(workers int) (ScaleOutResult, error) {
	deadline := sim.Time(0).Add(s.Cfg.Warmup + s.Cfg.Duration)
	if err := s.Group.Run(workers, deadline); err != nil {
		return ScaleOutResult{}, err
	}
	res := ScaleOutResult{
		Beacons: s.beaconsRx,
		Epochs:  s.epochs,
		Events:  s.Group.Events(),
	}
	st := s.Group.Stats()
	res.Rounds, res.Windows, res.Delivered = st.Rounds, st.Windows, st.Delivered
	for _, pod := range s.Pods {
		if pod.err != nil {
			return ScaleOutResult{}, pod.err
		}
		res.Pods = append(res.Pods, PodResult{
			Pod: pod.ID, OSDs: pod.OSDs,
			Ops: pod.ops, Bytes: pod.bytes, LatSumNs: int64(pod.latSum),
			Beacons: pod.beacons, Acks: pod.acks, LastEpoch: pod.epoch,
			Events:  pod.Cluster.Env.Events(),
			ClockNs: int64(pod.Cluster.Env.Now()),
		})
		res.TotalOps += pod.ops
		res.TotalBytes += pod.bytes
	}
	if s.Cfg.CollectImbalance {
		s.collectImbalance(&res)
	}
	return res, nil
}

// collectImbalance harvests the raw per-OSD/per-PG counters and queue-depth
// samples from every rack into the result's global-index arrays.
func (s *ScaleOut) collectImbalance(res *ScaleOutResult) {
	totalOSDs := s.Cfg.Pods * s.Cfg.OSDsPerPod
	res.OSDOps = make([]int64, totalOSDs)
	res.OSDReads = make([]int64, totalOSDs)
	res.OSDBalancedReads = make([]int64, totalOSDs)
	res.PGOps = make([]int64, s.Cfg.Pods*int(s.Cfg.PGs))
	for _, pod := range s.Pods {
		for local, node := range pod.Cluster.Nodes {
			g := int(pod.OSDs[local])
			st := node.OSD.Stats()
			res.OSDReads[g] = st.ClientReads
			res.OSDBalancedReads[g] = st.BalancedReads
			for pg, n := range node.OSD.PGOps() {
				res.PGOps[pod.ID*int(s.Cfg.PGs)+int(pg)] += n
				res.OSDOps[g] += n
			}
		}
		res.QueueDepthSamples = append(res.QueueDepthSamples, pod.qdepth...)
	}
}

// Shutdown reclaims every partition's simulation goroutines.
func (s *ScaleOut) Shutdown() {
	for _, pod := range s.Pods {
		pod.Cluster.Shutdown()
	}
	s.Coord.Shutdown()
}
