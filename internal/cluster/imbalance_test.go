package cluster

import (
	"math"
	"testing"

	"doceph/internal/radosbench"
	"doceph/internal/sim"
)

func almost(got, want float64) bool { return math.Abs(got-want) < 1e-9 }

func TestMaxMeanRatio(t *testing.T) {
	cases := []struct {
		name string
		xs   []int64
		want float64
	}{
		{"empty", nil, 0},
		{"all zero", []int64{0, 0, 0}, 0},
		{"uniform", []int64{5, 5, 5, 5}, 1.0},
		{"one hot", []int64{10, 1, 1, 0}, 10.0 / 3.0},
		{"single element", []int64{7}, 1.0},
		{"half idle", []int64{4, 0, 4, 0}, 2.0},
	}
	for _, tc := range cases {
		if got := maxMeanRatio(tc.xs); !almost(got, tc.want) {
			t.Errorf("%s: maxMeanRatio = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestP99P50(t *testing.T) {
	// 98 samples at depth 1, two spikes at 50: nearest-rank p50 = 1,
	// p99 = sorted[99] = 50.
	spiky := make([]int64, 100)
	for i := range spiky {
		spiky[i] = 1
	}
	spiky[13], spiky[77] = 50, 50
	// 1..100: p50 = sorted[50] = 51, p99 = sorted[99] = 100.
	ramp := make([]int64, 100)
	for i := range ramp {
		ramp[i] = int64(i + 1)
	}
	cases := []struct {
		name    string
		samples []int64
		want    float64
	}{
		{"empty", nil, 0},
		{"all idle", []int64{0, 0, 0, 0}, 0},
		{"idle median floors at 1", []int64{0, 0, 0, 8}, 8},
		{"flat", []int64{3, 3, 3, 3}, 1.0},
		{"spiky tail", spiky, 50.0},
		{"ramp", ramp, 100.0 / 51.0},
	}
	for _, tc := range cases {
		if got := p99p50(tc.samples); !almost(got, tc.want) {
			t.Errorf("%s: p99p50 = %v, want %v", tc.name, got, tc.want)
		}
	}
	// The input slice must not be reordered.
	in := []int64{9, 1, 5}
	p99p50(in)
	if in[0] != 9 || in[1] != 1 || in[2] != 5 {
		t.Fatalf("p99p50 mutated its input: %v", in)
	}
}

func TestHotReadShare(t *testing.T) {
	cases := []struct {
		name  string
		reads []int64
		want  float64
	}{
		{"empty", nil, 0},
		{"no reads", []int64{0, 0}, 0},
		{"hot primary", []int64{30, 10, 10}, 0.6},
		{"even", []int64{5, 5, 5, 5}, 0.25},
	}
	for _, tc := range cases {
		if got := hotReadShare(tc.reads); !almost(got, tc.want) {
			t.Errorf("%s: hotReadShare = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestComputeImbalanceSynthetic(t *testing.T) {
	res := ScaleOutResult{
		OSDOps:            []int64{90, 10, 10, 10}, // max 90, mean 30
		PGOps:             []int64{40, 0, 0, 0},    // max 40, mean 10
		OSDReads:          []int64{60, 20, 20, 0},  // hottest 0.6 of 100
		OSDBalancedReads:  []int64{0, 20, 20, 0},   // 40 of 100 reads balanced
		QueueDepthSamples: []int64{0, 0, 1, 12},    // p50 floored at 1, p99 = 12
	}
	im := ComputeImbalance(res)
	if !almost(im.MaxMeanOSDShare, 3.0) {
		t.Errorf("MaxMeanOSDShare = %v, want 3", im.MaxMeanOSDShare)
	}
	if !almost(im.MaxMeanPGShare, 4.0) {
		t.Errorf("MaxMeanPGShare = %v, want 4", im.MaxMeanPGShare)
	}
	if !almost(im.QueueDepthP99P50, 12.0) {
		t.Errorf("QueueDepthP99P50 = %v, want 12", im.QueueDepthP99P50)
	}
	if !almost(im.HotReadShare, 0.6) {
		t.Errorf("HotReadShare = %v, want 0.6", im.HotReadShare)
	}
	if !almost(im.BalancedReadShare, 0.4) {
		t.Errorf("BalancedReadShare = %v, want 0.4", im.BalancedReadShare)
	}
	// Empty result: everything zero, nothing panics.
	if im := ComputeImbalance(ScaleOutResult{}); im != (Imbalance{}) {
		t.Errorf("empty result: %+v", im)
	}
}

// TestBalanceReadsFlattenHotPrimary runs the Zipf arm of the scale-out
// fixture with replica-read balancing off and then on: balancing must serve
// a real fraction of reads from secondaries and measurably lower the hottest
// OSD's read share. This is the end-to-end claim behind the balance column
// in the 128-OSD experiment, checked on a cluster small enough for CI.
// The replica is picked by a stable per-object hash, so balancing spreads
// load across objects, not within one object — on a 2-rack fixture the Zipf
// head can collide onto one replica and the max share goes the wrong way. A
// 4x4 cluster has enough objects per rack for the averaging to win at every
// seed tried; the test pins several to keep the claim from being one lucky
// draw.
func TestBalanceReadsFlattenHotPrimary(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		run := func(balance bool) Imbalance {
			so := NewScaleOut(ScaleOutConfig{
				Pods:             4,
				OSDsPerPod:       4,
				Mode:             DoCeph,
				Seed:             seed,
				Threads:          2,
				ObjectBytes:      64 << 10,
				ReadPercent:      70,
				Duration:         300 * sim.Millisecond,
				Warmup:           50 * sim.Millisecond,
				Popularity:       radosbench.Popularity{Kind: radosbench.PopZipf},
				BalanceReads:     balance,
				CollectImbalance: true,
			})
			defer so.Shutdown()
			res, err := so.Run(2)
			if err != nil {
				t.Fatal(err)
			}
			return ComputeImbalance(res)
		}
		off, on := run(false), run(true)
		if off.BalancedReadShare != 0 {
			t.Fatalf("seed=%d: balancing off but BalancedReadShare = %v", seed, off.BalancedReadShare)
		}
		if on.BalancedReadShare <= 0.1 {
			t.Fatalf("seed=%d: balancing on but BalancedReadShare = %v, want > 0.1", seed, on.BalancedReadShare)
		}
		if off.HotReadShare == 0 || on.HotReadShare >= off.HotReadShare {
			t.Fatalf("seed=%d: hot-read share did not drop: off %v, on %v", seed, off.HotReadShare, on.HotReadShare)
		}
	}
}
