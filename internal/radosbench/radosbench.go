// Package radosbench reimplements the RADOS bench workload generator the
// paper evaluates with (§5.1): a closed-loop benchmark in which a fixed
// number of concurrent client threads issue fixed-size object operations
// for a fixed duration, reporting average latency, IOPS and throughput plus
// per-second samples (rados bench's built-in instrumentation).
package radosbench

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"doceph/internal/rados"
	"doceph/internal/sim"
	"doceph/internal/wire"
)

// payloadCache memoizes the benchmark payload per object size. The fill
// pattern is a pure function of the byte index (seed-independent), and the
// data plane never mutates payload segments (Bufferlist aliasing contract),
// so one immutable buffer per size serves every run in the process — a
// benchmark sweep stops re-generating megabytes of pattern data per
// scenario.
var payloadCache = struct {
	sync.Mutex
	bySize map[int64]*wire.Bufferlist
}{bySize: make(map[int64]*wire.Bufferlist)}

// benchPayload returns the shared, immutable payload for the given size.
func benchPayload(size int64) *wire.Bufferlist {
	payloadCache.Lock()
	defer payloadCache.Unlock()
	if bl, ok := payloadCache.bySize[size]; ok {
		return bl
	}
	b := wire.GetBuffer(int(size))[:size]
	for i := range b {
		b[i] = byte(i * 2654435761)
	}
	bl := wire.FromBytes(b)
	payloadCache.bySize[size] = bl
	return bl
}

// Payload returns the shared, immutable benchmark payload used for writes
// of the given size, so tests can verify stored content op-for-op.
func Payload(size int64) *wire.Bufferlist { return benchPayload(size) }

// Op selects the workload pattern.
type Op int

// Workload patterns.
const (
	Write Op = iota
	Read
	// Mixed interleaves reads and writes per ReadPercent.
	Mixed
)

// Config describes one benchmark run.
type Config struct {
	// Threads is the number of concurrent client workers (-t; paper: 16).
	Threads int
	// ObjectBytes is the request size (paper: 1/4/8/16 MB).
	ObjectBytes int64
	// Duration is the measured interval after warmup. Ignored when
	// OpsPerThread is set.
	Duration sim.Duration
	// OpsPerThread switches the run from fixed-duration to fixed-work:
	// each worker issues exactly this many operations and the run ends
	// when the last one completes. The op set (object names, sizes,
	// read/write split) then depends only on the config — not on timing —
	// which is what lets metamorphic tests compare two runs of the same
	// workload under different transports op-for-op.
	OpsPerThread int
	// QueueDepth is the number of outstanding operations each worker
	// keeps in flight (closed loop). The default (0 or 1) is the classic
	// rados-bench shape: one op per thread at a time. Higher depths spawn
	// that many issue slots per worker sharing one op-index counter, so
	// the op set (names, sizes, read/write split) is still a pure
	// function of the config; only which slot carries which index depends
	// on scheduling, and the simulation schedules deterministically.
	QueueDepth int
	// Warmup is discarded from all statistics; stats windows on the
	// cluster should be reset at its end via OnWarmupEnd.
	Warmup sim.Duration
	// Op is the workload pattern. Read and Mixed prepopulate first.
	Op Op
	// ReadPercent is the read share of a Mixed workload (default 70).
	ReadPercent int
	// PrepopulateObjects writes this many objects before the measured
	// phase (read and mixed workloads).
	PrepopulateObjects int
	// Prefix names the benchmark objects.
	Prefix string
	// Popularity skews read-target selection over the prepopulated set:
	// prepop object i is popularity rank i (rank 0 hottest). The zero value
	// (PopNone) keeps the historical uniform (worker, index) stride. Draws
	// are pure functions of (popSeed, worker, op index), so fixed-work runs
	// stay comparable op-for-op.
	Popularity Popularity
	// OnWarmupEnd is invoked at the warmup/measurement boundary (reset
	// cluster CPU windows here).
	OnWarmupEnd func()
}

func (c Config) withDefaults() Config {
	if c.Threads == 0 {
		c.Threads = 16
	}
	if c.ObjectBytes == 0 {
		c.ObjectBytes = 4 << 20
	}
	if c.Duration == 0 {
		c.Duration = 60 * sim.Second
	}
	if c.Prefix == "" {
		c.Prefix = "benchmark_data"
	}
	if c.Op == Mixed && c.ReadPercent == 0 {
		c.ReadPercent = 70
	}
	return c
}

// ClassStats carries per-op-class (read or write) metrics over the
// measured window.
type ClassStats struct {
	Ops        int64
	Bytes      int64
	AvgLatency sim.Duration
	MinLatency sim.Duration
	MaxLatency sim.Duration
	P50        sim.Duration
	P99        sim.Duration
}

// IOPS returns the class's completed operations per second over window.
func (c ClassStats) IOPS(window sim.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return float64(c.Ops) / window.Seconds()
}

// ThroughputBps returns the class's bytes per second over window.
func (c ClassStats) ThroughputBps(window sim.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return float64(c.Bytes) / window.Seconds()
}

func classStats(lats []sim.Duration, ops, bytes int64) ClassStats {
	cs := ClassStats{Ops: ops, Bytes: bytes}
	if len(lats) == 0 {
		return cs
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var sum sim.Duration
	for _, l := range lats {
		sum += l
	}
	cs.AvgLatency = sum / sim.Duration(len(lats))
	cs.MinLatency = lats[0]
	cs.MaxLatency = lats[len(lats)-1]
	cs.P50 = lats[len(lats)/2]
	cs.P99 = lats[len(lats)*99/100]
	return cs
}

// SecondSample is one per-second instrumentation row.
type SecondSample struct {
	Second int
	Ops    int64
	Bytes  int64
	AvgLat sim.Duration
}

// Result carries the run's metrics over the measured window.
type Result struct {
	Op          Op
	ObjectBytes int64
	Threads     int
	Window      sim.Duration

	Ops        int64
	Bytes      int64
	AvgLatency sim.Duration
	MinLatency sim.Duration
	MaxLatency sim.Duration
	P50        sim.Duration
	P99        sim.Duration

	// ReadStats/WriteStats split the window's metrics by op class, so
	// mixed workloads report per-class latency percentiles and IOPS.
	ReadStats  ClassStats
	WriteStats ClassStats

	PerSecond []SecondSample
}

// IOPS returns completed operations per second.
func (r Result) IOPS() float64 {
	if r.Window <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Window.Seconds()
}

// ThroughputBps returns bytes per second.
func (r Result) ThroughputBps() float64 {
	if r.Window <= 0 {
		return 0
	}
	return float64(r.Bytes) / r.Window.Seconds()
}

func (r Result) String() string {
	return fmt.Sprintf("%d threads x %d B: %d ops in %v -> %.1f IOPS, %.1f MB/s, avg lat %.4fs",
		r.Threads, r.ObjectBytes, r.Ops, r.Window, r.IOPS(),
		r.ThroughputBps()/1e6, r.AvgLatency.Seconds())
}

// popSeed seeds the popularity draws.
const popSeed int64 = 1

// Run executes the benchmark against client inside env. It must be called
// before env is driven; it spawns the workers and a controller, drives the
// environment itself until the measured window ends, and returns the
// result. The environment can be reused (Shutdown is left to the caller).
func Run(env *sim.Env, client *rados.Client, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{Op: cfg.Op, ObjectBytes: cfg.ObjectBytes, Threads: cfg.Threads}

	// One shared payload: segments are shared zero-copy by every write, so
	// memory stays O(ObjectBytes), not O(total data written). The pattern
	// is deterministic per size, so it is memoized across runs too.
	payload := benchPayload(cfg.ObjectBytes)

	qd := cfg.QueueDepth
	if qd < 1 {
		qd = 1
	}

	nPrepop := cfg.PrepopulateObjects
	if nPrepop == 0 {
		nPrepop = cfg.Threads * 4
	}
	var popGen *PopGen
	if cfg.Popularity.Kind != PopNone {
		var err error
		if popGen, err = NewPopGen(cfg.Popularity, nPrepop); err != nil {
			return res, err
		}
	}

	var (
		measuring    bool
		stopped      bool
		measureStart sim.Time
		lats         []sim.Duration
		readLats     []sim.Duration
		writeLats    []sim.Duration
		perSecOps    []int64
		perSecBy     []int64
		perSecLat    []sim.Duration
		benchErr     error
		workersLeft  = cfg.Threads * qd
		lastEnd      sim.Time
	)
	record := func(start, end sim.Time, bytes int64, read bool) {
		if !measuring || stopped {
			return
		}
		lat := end.Sub(start)
		lats = append(lats, lat)
		res.Ops++
		res.Bytes += bytes
		if read {
			readLats = append(readLats, lat)
			res.ReadStats.Ops++
			res.ReadStats.Bytes += bytes
		} else {
			writeLats = append(writeLats, lat)
			res.WriteStats.Ops++
			res.WriteStats.Bytes += bytes
		}
		sec := int(end.Sub(measureStart) / sim.Duration(sim.Second))
		for len(perSecOps) <= sec {
			perSecOps = append(perSecOps, 0)
			perSecBy = append(perSecBy, 0)
			perSecLat = append(perSecLat, 0)
		}
		perSecOps[sec]++
		perSecBy[sec] += bytes
		perSecLat[sec] += lat
	}

	// prepopNames are the objects reads draw from, named once here so that
	// a read costs no name.
	var prepopNames []string
	prepopDone := sim.NewEvent()
	if cfg.Op == Read || cfg.Op == Mixed {
		prepopNames = make([]string, nPrepop)
		for i := range prepopNames {
			prepopNames[i] = cfg.Prefix + "_prepop_" + strconv.Itoa(i)
		}
		env.Spawn("bench-prepop", func(p *sim.Proc) {
			p.SetThread(sim.NewThread("bench-prepop", rados.ThreadCat))
			for _, obj := range prepopNames {
				if err := client.Write(p, obj, payload); err != nil {
					benchErr = fmt.Errorf("radosbench: prepopulate %s: %w", obj, err)
					break
				}
			}
			prepopDone.Fire()
		})
	} else {
		prepopDone.Fire()
	}

	for w := 0; w < cfg.Threads; w++ {
		worker := w
		// All of a worker's issue slots share one op-index counter, so the
		// op set is a function of (worker, index) regardless of depth. The
		// event loop is cooperative, so the counter needs no locking.
		next := 0
		for q := 0; q < qd; q++ {
			procName := fmt.Sprintf("bench-worker-%d", worker)
			threadName := fmt.Sprintf("bench-%d", worker)
			if q > 0 {
				procName = fmt.Sprintf("bench-worker-%d-q%d", worker, q)
				threadName = fmt.Sprintf("bench-%d.%d", worker, q)
			}
			env.Spawn(procName, func(p *sim.Proc) {
				p.SetThread(sim.NewThread(threadName, rados.ThreadCat))
				prepopDone.Wait(p)
				// A write's name is this prefix and its index ("<prefix>_w3_17").
				name := []byte(cfg.Prefix + "_w" + strconv.Itoa(worker) + "_")
				namePrefix := len(name)
				for benchErr == nil {
					i := next
					if cfg.OpsPerThread > 0 {
						if i >= cfg.OpsPerThread {
							break
						}
					} else if stopped {
						break
					}
					next++
					start := p.Now()
					var err error
					var bytes int64
					doRead := cfg.Op == Read
					if cfg.Op == Mixed {
						if cfg.OpsPerThread > 0 {
							// Fixed-work runs derive the read/write split from
							// (worker, i) so the op set is identical no matter
							// how the transport schedules the workers.
							doRead = (worker*7919+i*104729)%100 < cfg.ReadPercent
						} else {
							doRead = env.Rand().Intn(100) < cfg.ReadPercent
						}
					}
					if !doRead {
						name = strconv.AppendInt(name[:namePrefix], int64(i), 10)
						err = client.Write(p, string(name), payload)
						bytes = cfg.ObjectBytes
					} else {
						idx := (worker*7919 + i) % nPrepop
						if popGen != nil {
							idx = popGen.Pick(popSeed,
								uint64(worker)<<32|uint64(uint32(i)))
						}
						var bl *wire.Bufferlist
						bl, err = client.Read(p, prepopNames[idx], 0, 0)
						if err == nil {
							bytes = int64(bl.Length())
						}
					}
					if err != nil {
						benchErr = fmt.Errorf("radosbench: worker %d: %w", worker, err)
						return
					}
					record(start, p.Now(), bytes, doRead)
				}
				if cfg.OpsPerThread > 0 {
					workersLeft--
					if workersLeft == 0 {
						lastEnd = p.Now()
						stopped = true
					}
				}
			})
		}
	}

	// Controller: flips the measurement window.
	env.Spawn("bench-controller", func(p *sim.Proc) {
		prepopDone.Wait(p)
		p.Wait(cfg.Warmup)
		measuring = true
		measureStart = p.Now()
		if cfg.OnWarmupEnd != nil {
			cfg.OnWarmupEnd()
		}
		if cfg.OpsPerThread > 0 {
			return // fixed-work runs end when the last worker finishes
		}
		p.Wait(cfg.Duration)
		stopped = true
	})

	// Drive in chunks until the controller stops the run (prepopulation
	// shifts the end instant, so poll rather than precompute).
	for !stopped && benchErr == nil {
		if err := env.RunUntil(env.Now().Add(sim.Second)); err != nil {
			return res, err
		}
	}
	if benchErr != nil {
		return res, benchErr
	}

	if cfg.OpsPerThread > 0 {
		res.Window = lastEnd.Sub(measureStart)
	} else {
		res.Window = cfg.Duration
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		var sum sim.Duration
		for _, l := range lats {
			sum += l
		}
		res.AvgLatency = sum / sim.Duration(len(lats))
		res.MinLatency = lats[0]
		res.MaxLatency = lats[len(lats)-1]
		res.P50 = lats[len(lats)/2]
		res.P99 = lats[len(lats)*99/100]
	}
	res.ReadStats = classStats(readLats, res.ReadStats.Ops, res.ReadStats.Bytes)
	res.WriteStats = classStats(writeLats, res.WriteStats.Ops, res.WriteStats.Bytes)
	for s := range perSecOps {
		smp := SecondSample{Second: s, Ops: perSecOps[s], Bytes: perSecBy[s]}
		if perSecOps[s] > 0 {
			smp.AvgLat = perSecLat[s] / sim.Duration(perSecOps[s])
		}
		res.PerSecond = append(res.PerSecond, smp)
	}
	return res, nil
}
