package main

import (
	"math"
	"sort"
)

// Metric sources. End-to-end metrics have none: they are whole-run results.
const (
	srcStats    = 'S' // Stats() counter delta over the measured window
	srcTrace    = 'T' // span sums from the traced repetition
	srcIsolated = 'I' // isolated driver timing one layer's public calls
	srcProfile  = 'P' // CPU-profile samples folded by package
)

// metric names one reported number. BENCHMARK.json lists the same names,
// units, directions and bounds; metrics_test.go holds the two together.
type metric struct {
	name        string
	unit        string
	lowerBetter bool
	// bound is the share by which an end-to-end metric may worsen before
	// it counts as a regression; zero on per-layer metrics.
	bound float64
	src   rune
	// host marks host-clock metrics, which vary run to run and are
	// reported as a median. All others are simulated or counted and must
	// repeat exactly across repetitions.
	host bool
	// hostTime marks the host-clock rows that are times, and so are put on
	// a host of nominal speed (reference.go).
	hostTime bool
	// partial marks an end-to-end metric that BENCHMARK.json cannot bound:
	// its driver wants every end-to-end metric from every workload, never
	// constant from seed to seed. The ledger still bounds it; the driver
	// gets it with the per-layer rows.
	partial bool
}

// endToEnd is what a researcher running a sweep pays (host clock) and what
// the table that comes out says (virtual clock; units sim_ms and sim_us
// are virtual time). failed_op_ratio is the twelfth: it is reported from
// the attempted/failed counts.
//
// Bounds are what ten runs on ten seeds can resolve on a shared 2-core
// host, not what one would wish: host time there drifts by 6-11% between
// runs whatever the run length, and mix70-4K-doceph's simulated IOPS move
// 1.6% with the seed's object placement. README.md has the measurements.
var endToEnd = []metric{
	{name: "wall_us_per_op", unit: "us", lowerBetter: true, bound: 0.25, host: true, hostTime: true},
	{name: "cpu_us_per_op", unit: "us", lowerBetter: true, bound: 0.25, host: true, hostTime: true},
	{name: "allocs_per_op", unit: "count", lowerBetter: true, bound: 0.02, host: true},
	{name: "alloc_bytes_per_op", unit: "B", lowerBetter: true, bound: 0.05, host: true},
	{name: "heap_live_mb", unit: "MB", lowerBetter: true, bound: 0.05, host: true},
	{name: "setup_s", unit: "s", lowerBetter: true, bound: 0.25, host: true, hostTime: true},
	{name: "sim_iops", unit: "op/s", bound: 0.05},
	{name: "sim_lat_avg_ms", unit: "sim_ms", lowerBetter: true, bound: 0.05},
	// Scale-out keeps a latency sum, not samples, and the baseline's
	// steady state is periodic: its percentiles do not move with the seed.
	{name: "sim_lat_p50_ms", unit: "sim_ms", lowerBetter: true, bound: 0.01, partial: true},
	{name: "sim_lat_p99_ms", unit: "sim_ms", lowerBetter: true, bound: 0.01, partial: true},
	{name: "sim_host_cpu_pct", unit: "%", lowerBetter: true, bound: 0.05},
}

// perLayer is the ledger: one row per thing a layer counts, is busy with,
// waits for, fails at or costs the host.
var perLayer = []metric{
	{name: "sim.events_per_op", unit: "count", lowerBetter: true, src: srcStats},
	{name: "sim.host_ns_per_event", unit: "ns", lowerBetter: true, src: srcStats, host: true, hostTime: true},
	{name: "sim.link_lat_us_per_op", unit: "sim_us", lowerBetter: true, src: srcTrace},
	{name: "sim.ctx_switches_per_op", unit: "count", lowerBetter: true, src: srcStats},
	{name: "sim.group_windows", unit: "count", lowerBetter: true, src: srcStats},
	{name: "sim.group_events_per_window", unit: "count", src: srcStats},
	{name: "sim.group_xmsgs_per_window", unit: "count", lowerBetter: true, src: srcStats},
	{name: "sim.event_ns", unit: "ns", lowerBetter: true, src: srcIsolated, host: true},
	{name: "sim.cpu_exec_ns", unit: "ns", lowerBetter: true, src: srcIsolated, host: true},
	{name: "sim.group_window_ns", unit: "ns", lowerBetter: true, src: srcIsolated, host: true},

	{name: "wire.encode_ns", unit: "ns", lowerBetter: true, src: srcIsolated, host: true},
	{name: "wire.decode_ns", unit: "ns", lowerBetter: true, src: srcIsolated, host: true},
	{name: "wire.crc32c_ns_per_mib", unit: "ns", lowerBetter: true, src: srcIsolated, host: true},

	{name: "cephmsg.encode_osdop_ns", unit: "ns", lowerBetter: true, src: srcIsolated, host: true},
	{name: "cephmsg.decode_osdop_ns", unit: "ns", lowerBetter: true, src: srcIsolated, host: true},
	{name: "cephmsg.assembler_ns_per_chunk", unit: "ns", lowerBetter: true, src: srcIsolated, host: true},

	{name: "messenger.msgs_per_op", unit: "count", lowerBetter: true, src: srcStats},
	{name: "messenger.bytes_per_op", unit: "B", lowerBetter: true, src: srcStats},
	{name: "messenger.send_cpu_us_per_op", unit: "sim_us", lowerBetter: true, src: srcTrace},
	{name: "messenger.recv_cpu_us_per_op", unit: "sim_us", lowerBetter: true, src: srcTrace},
	{name: "messenger.queue_wait_us_per_op", unit: "sim_us", lowerBetter: true, src: srcTrace},
	{name: "messenger.stream_chunks_per_op", unit: "count", lowerBetter: true, src: srcStats},
	{name: "messenger.stream_window_wait_us_per_op", unit: "sim_us", lowerBetter: true, src: srcTrace},
	{name: "messenger.redeliveries", unit: "count", lowerBetter: true, src: srcStats},
	{name: "messenger.roundtrip_ns", unit: "ns", lowerBetter: true, src: srcIsolated, host: true},

	{name: "rados.op_self_us_per_op", unit: "sim_us", lowerBetter: true, src: srcTrace},

	{name: "osd.rep_ops_per_op", unit: "count", lowerBetter: true, src: srcStats},
	{name: "osd.rep_retries", unit: "count", lowerBetter: true, src: srcStats},
	{name: "osd.op_cpu_us_per_op", unit: "sim_us", lowerBetter: true, src: srcTrace},
	{name: "osd.op_queue_wait_us_per_op", unit: "sim_us", lowerBetter: true, src: srcTrace},
	{name: "osd.replication_wait_us_per_op", unit: "sim_us", lowerBetter: true, src: srcTrace},
	{name: "osd.stream_stage_us_per_chunk", unit: "sim_us", lowerBetter: true, src: srcTrace},
	{name: "osd.balanced_read_share", unit: "ratio", src: srcStats},

	{name: "core.txns_per_op", unit: "count", lowerBetter: true, src: srcStats},
	{name: "core.fallback_txns", unit: "count", lowerBetter: true, src: srcStats},
	{name: "core.peak_staging_mb", unit: "MB", lowerBetter: true, src: srcStats},
	{name: "core.serialize_cpu_us_per_op", unit: "sim_us", lowerBetter: true, src: srcTrace},
	{name: "core.stage_cpu_us_per_op", unit: "sim_us", lowerBetter: true, src: srcTrace},
	{name: "core.dma_wait_us_per_op", unit: "sim_us", lowerBetter: true, src: srcTrace},
	{name: "core.host_commit_us_per_op", unit: "sim_us", lowerBetter: true, src: srcTrace},
	{name: "core.batch_ops_per_frame", unit: "count", src: srcStats},
	{name: "core.batch_flush_idle_share", unit: "ratio", lowerBetter: true, src: srcStats},
	{name: "core.polls_per_segment", unit: "count", lowerBetter: true, src: srcStats},
	{name: "core.txn_ns", unit: "ns", lowerBetter: true, src: srcIsolated, host: true},

	{name: "doca.transfers_per_op", unit: "count", lowerBetter: true, src: srcStats},
	{name: "doca.bytes_per_transfer", unit: "B", src: srcStats},
	{name: "doca.errors", unit: "count", lowerBetter: true, src: srcStats},
	{name: "doca.negotiations_per_op", unit: "count", lowerBetter: true, src: srcStats},
	{name: "doca.busy_us_per_op", unit: "sim_us", lowerBetter: true, src: srcStats},
	{name: "doca.wait_us_per_op", unit: "sim_us", lowerBetter: true, src: srcStats},
	{name: "doca.occupancy_pct", unit: "%", lowerBetter: true, src: srcStats},
	{name: "doca.transfer_ns", unit: "ns", lowerBetter: true, src: srcIsolated, host: true},

	{name: "dpu.cpu_pct", unit: "%", lowerBetter: true, src: srcStats},

	{name: "bluestore.txns_per_op", unit: "count", lowerBetter: true, src: srcStats},
	{name: "bluestore.txns_per_kvsync", unit: "count", src: srcStats},
	{name: "bluestore.deferred_write_share", unit: "ratio", lowerBetter: true, src: srcStats},
	{name: "bluestore.bytes_written_per_user_byte", unit: "ratio", lowerBetter: true, src: srcStats},
	{name: "bluestore.aio_cpu_us_per_op", unit: "sim_us", lowerBetter: true, src: srcTrace},
	{name: "bluestore.kv_cpu_us_per_op", unit: "sim_us", lowerBetter: true, src: srcTrace},
	{name: "bluestore.kv_queue_wait_us_per_op", unit: "sim_us", lowerBetter: true, src: srcTrace},
	{name: "bluestore.txn_ns_4k", unit: "ns", lowerBetter: true, src: srcIsolated, host: true},
	{name: "bluestore.txn_ns_4m", unit: "ns", lowerBetter: true, src: srcIsolated, host: true},

	{name: "crush.select_ns", unit: "ns", lowerBetter: true, src: srcIsolated, host: true},

	{name: "cluster.host_cpu_msgr_pct", unit: "%", lowerBetter: true, src: srcStats},
	{name: "cluster.host_cpu_bstore_pct", unit: "%", lowerBetter: true, src: srcStats},
	{name: "cluster.host_cpu_osd_pct", unit: "%", lowerBetter: true, src: srcStats},
	{name: "cluster.paper_err_pct", unit: "%", lowerBetter: true, src: srcStats},

	{name: "trace.overhead_pct", unit: "%", lowerBetter: true, src: srcTrace, host: true},
	{name: "trace.spans_per_op", unit: "count", lowerBetter: true, src: srcTrace},

	{name: "runtime.gc_cycles_per_kop", unit: "count", lowerBetter: true, src: srcStats, host: true},
	{name: "runtime.gc_cpu_pct", unit: "%", lowerBetter: true, src: srcStats, host: true},

	{name: "sim.host_share_pct", unit: "%", lowerBetter: true, src: srcProfile, host: true},
	{name: "messenger.host_share_pct", unit: "%", lowerBetter: true, src: srcProfile, host: true},
	{name: "cephmsg.host_share_pct", unit: "%", lowerBetter: true, src: srcProfile, host: true},
	{name: "wire.host_share_pct", unit: "%", lowerBetter: true, src: srcProfile, host: true},
	{name: "rados.host_share_pct", unit: "%", lowerBetter: true, src: srcProfile, host: true},
	{name: "osd.host_share_pct", unit: "%", lowerBetter: true, src: srcProfile, host: true},
	{name: "core.host_share_pct", unit: "%", lowerBetter: true, src: srcProfile, host: true},
	{name: "doca.host_share_pct", unit: "%", lowerBetter: true, src: srcProfile, host: true},
	{name: "bluestore.host_share_pct", unit: "%", lowerBetter: true, src: srcProfile, host: true},
	{name: "runtime.host_share_pct", unit: "%", lowerBetter: true, src: srcProfile, host: true},
	{name: "other.host_share_pct", unit: "%", lowerBetter: true, src: srcProfile, host: true},
}

// values maps metric names to one run's numbers. A metric that does not
// apply to the workload (no tracer hook, no DPU) is NaN, never zero.
type values map[string]float64

var na = math.NaN()

// ratio is a/b, or not-applicable when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return na
	}
	return a / b
}

// summary is the spread of one host-clock metric over repetitions.
type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	N      int       `json:"n"`
	Raw    []float64 `json:"raw"`
}

// summarize reports the median, quartiles and minimum of xs. Quartiles
// interpolate linearly between order statistics at (n-1)p, so one sample
// is its own quartiles and two samples put them at the quarter points.
func summarize(xs []float64) summary {
	s := summary{N: len(xs), Raw: xs}
	if len(xs) == 0 {
		s.Median, s.Q1, s.Q3, s.Min = na, na, na, na
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	q := func(p float64) float64 {
		pos := p * float64(len(sorted)-1)
		lo := int(pos)
		if lo+1 >= len(sorted) {
			return sorted[len(sorted)-1]
		}
		return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
	}
	s.Median, s.Q1, s.Q3, s.Min = q(0.5), q(0.25), q(0.75), sorted[0]
	return s
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 { return ratio(s.Q3-s.Q1, math.Abs(s.Median)) }

// driverLists splits the metrics the way BENCHMARK.json lists them.
func driverLists() (e2e, layers []metric) {
	for _, m := range endToEnd {
		if m.partial {
			layers = append(layers, m)
		} else {
			e2e = append(e2e, m)
		}
	}
	return e2e, append(layers, perLayer...)
}
