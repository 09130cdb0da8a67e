// Load-imbalance metrics for the scale-out assembly: the cluster layer
// exports raw per-OSD/per-PG op counts and queue-depth samples
// (cluster.ScaleOutResult, CollectImbalance) and this file turns them into
// the figures the experiments table reports — max/mean op share, p99:p50
// queue depth, hot-primary read share. Kept here rather than in cluster so
// the metric definitions live next to the harness that publishes them.
package perf

import (
	"sort"

	"doceph/internal/cluster"
)

// Imbalance summarizes how evenly a scale-out run spread its load.
type Imbalance struct {
	// MaxMeanOSDShare is the hottest OSD's served-op count over the mean
	// (1.0 = perfectly even).
	MaxMeanOSDShare float64 `json:"max_mean_osd_share"`
	// MaxMeanPGShare is the same ratio over PGs.
	MaxMeanPGShare float64 `json:"max_mean_pg_share"`
	// QueueDepthP99P50 is the p99:p50 ratio over the pooled per-tick OSD
	// queue-depth samples (p50 floored at 1 — idle clusters sit at 0).
	QueueDepthP99P50 float64 `json:"queue_depth_p99_p50"`
	// HotReadShare is the hottest OSD's share of all served reads — the
	// number replica-read balancing exists to flatten.
	HotReadShare float64 `json:"hot_read_share"`
	// BalancedReadShare is the fraction of reads served by non-primary
	// acting-set members (0 with balancing off).
	BalancedReadShare float64 `json:"balanced_read_share"`
}

// MaxMeanRatio returns max(xs)/mean(xs), or 0 when the series is empty or
// sums to zero.
func MaxMeanRatio(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, max int64
	for _, x := range xs {
		sum += x
		if x > max {
			max = x
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(xs))
	return float64(max) / mean
}

// P99P50 returns the p99:p50 ratio of the samples under nearest-rank
// percentiles (the same indexing radosbench's latency stats use), with the
// p50 floored at 1 so an idle median doesn't divide by zero. Returns 0 for
// an empty series.
func P99P50(samples []int64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := make([]int64, len(samples))
	copy(s, samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	p50, p99 := s[len(s)/2], s[len(s)*99/100]
	if p50 < 1 {
		p50 = 1
	}
	return float64(p99) / float64(p50)
}

// HotReadShare returns the hottest OSD's fraction of all served reads, or 0
// when no reads were served.
func HotReadShare(reads []int64) float64 {
	var sum, max int64
	for _, r := range reads {
		sum += r
		if r > max {
			max = r
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) / float64(sum)
}

// ComputeImbalance derives the imbalance figures from a scale-out result
// collected with CollectImbalance.
func ComputeImbalance(res cluster.ScaleOutResult) Imbalance {
	im := Imbalance{
		MaxMeanOSDShare:  MaxMeanRatio(res.OSDOps),
		MaxMeanPGShare:   MaxMeanRatio(res.PGOps),
		QueueDepthP99P50: P99P50(res.QueueDepthSamples),
		HotReadShare:     HotReadShare(res.OSDReads),
	}
	var reads, balanced int64
	for _, r := range res.OSDReads {
		reads += r
	}
	for _, b := range res.OSDBalancedReads {
		balanced += b
	}
	if reads > 0 {
		im.BalancedReadShare = float64(balanced) / float64(reads)
	}
	return im
}
