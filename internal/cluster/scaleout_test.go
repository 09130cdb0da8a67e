package cluster

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"doceph/internal/crush"
	"doceph/internal/osdmap"
	"doceph/internal/radosbench"
	"doceph/internal/sim"
)

func smallScaleOut(seed int64) ScaleOutConfig {
	return ScaleOutConfig{
		Pods:         4,
		OSDsPerPod:   2,
		Mode:         DoCeph,
		Seed:         seed,
		Threads:      2,
		ObjectBytes:  64 << 10,
		Duration:     40 * sim.Millisecond,
		Warmup:       10 * sim.Millisecond,
		BeaconPeriod: 10 * sim.Millisecond,
	}
}

func scaleOutFingerprint(t *testing.T, cfg ScaleOutConfig, workers int) string {
	t.Helper()
	so := NewScaleOut(cfg)
	defer so.Shutdown()
	res, err := so.Run(workers)
	if err != nil {
		t.Fatalf("seed=%d workers=%d: %v", cfg.Seed, workers, err)
	}
	if res.TotalOps == 0 {
		t.Fatalf("seed=%d workers=%d: no ops completed", cfg.Seed, workers)
	}
	if res.Beacons == 0 || res.Epochs == 0 {
		t.Fatalf("seed=%d workers=%d: no cross-partition control traffic (beacons=%d epochs=%d)",
			cfg.Seed, workers, res.Beacons, res.Epochs)
	}
	// Rounds/Windows are kernel bookkeeping, identical across workers for a
	// fixed partitioning; include them so any drift fails loudly.
	fp, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(fp)
}

// TestScaleOutBitIdenticalAcrossWorkersAndGOMAXPROCS is the tentpole
// property: the scale-out result is a pure function of (config, seed) —
// worker count and GOMAXPROCS must not leak into any observable field.
func TestScaleOutBitIdenticalAcrossWorkersAndGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep is slow")
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	maxprocs := []int{1, runtime.NumCPU()}
	if maxprocs[1] == 1 {
		maxprocs = maxprocs[:1]
	}
	for seed := int64(1); seed <= 8; seed++ {
		cfg := smallScaleOut(seed)
		runtime.GOMAXPROCS(prev)
		want := scaleOutFingerprint(t, cfg, 1)
		for _, mp := range maxprocs {
			runtime.GOMAXPROCS(mp)
			for _, workers := range []int{1, 2, 4, 8} {
				if got := scaleOutFingerprint(t, cfg, workers); got != want {
					t.Fatalf("seed=%d workers=%d GOMAXPROCS=%d diverged:\n got %s\nwant %s",
						seed, workers, mp, got, want)
				}
			}
		}
	}
}

func TestScaleOutRunTwiceDeterminism(t *testing.T) {
	cfg := smallScaleOut(7)
	a := scaleOutFingerprint(t, cfg, 4)
	b := scaleOutFingerprint(t, cfg, 4)
	if a != b {
		t.Fatalf("reruns diverged:\n %s\n %s", a, b)
	}
}

// TestScaleOutMixedReadDeterminism runs the 70/30 mixed workload (rack-local
// prepopulation + fixed read/write split) on the partitioned kernel with 4
// workers: for every seed, reruns must be bit-identical, and the mix must
// not change the worker-independence property.
func TestScaleOutMixedReadDeterminism(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		cfg := smallScaleOut(seed)
		cfg.ReadPercent = 70
		a := scaleOutFingerprint(t, cfg, 4)
		b := scaleOutFingerprint(t, cfg, 4)
		if a != b {
			t.Fatalf("seed=%d: mixed reruns diverged:\n %s\n %s", seed, a, b)
		}
		if seed == 1 {
			if c := scaleOutFingerprint(t, cfg, 1); c != a {
				t.Fatalf("seed=%d: mixed result depends on worker count:\n w4 %s\n w1 %s", seed, a, c)
			}
			// The mix must actually change the trajectory vs write-only, or
			// this gate is vacuous.
			if wo := scaleOutFingerprint(t, smallScaleOut(seed), 4); wo == a {
				t.Fatal("70/30 mix produced the write-only trajectory")
			}
		}
	}
}

func TestScaleOutSeedsDiffer(t *testing.T) {
	// Different seeds must actually change the trajectory, or the property
	// test above is vacuous.
	a := scaleOutFingerprint(t, smallScaleOut(1), 2)
	b := scaleOutFingerprint(t, smallScaleOut(2), 2)
	if a == b {
		t.Fatal("seeds 1 and 2 produced identical results")
	}
}

func TestPartitionPlan(t *testing.T) {
	got := PartitionPlan(32, 8)
	if len(got) != 8 {
		t.Fatalf("pods=%d", len(got))
	}
	if !reflect.DeepEqual(got[0], []int32{0, 1, 2, 3}) || !reflect.DeepEqual(got[7], []int32{28, 29, 30, 31}) {
		t.Fatalf("plan=%v", got)
	}
	// Uneven split: leading pods absorb the remainder.
	got = PartitionPlan(7, 3)
	want := [][]int32{{0, 1, 2}, {3, 4}, {5, 6}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	// More pods than OSDs clamps to one OSD per pod.
	if got = PartitionPlan(2, 5); len(got) != 2 {
		t.Fatalf("clamp failed: %v", got)
	}
}

func TestCrossRackLookaheadIsPositiveAndModelDerived(t *testing.T) {
	la := CrossRackLookahead(Config{})
	if la <= 0 {
		t.Fatalf("lookahead=%v", la)
	}
	cfg := Config{}.withDefaults()
	if la <= 5*cfg.LinkLatency {
		t.Fatalf("lookahead %v must include DPU setup and disk floors beyond link latency", la)
	}
	// The default scale-out config derives its link latency from the model.
	so := ScaleOutConfig{}.withDefaults()
	if so.CrossRackLatency != CrossRackLookahead(so.rackConfig(0)) {
		t.Fatalf("default cross-rack latency %v != derived lookahead", so.CrossRackLatency)
	}
	// So are the two values that stopped being fields: the catalog is homed
	// through a map of 2 x total OSDs PGs and min(3, Pods) replicas.
	for _, pods := range []int{2, 16} {
		so := ScaleOutConfig{Pods: pods, OSDsPerPod: 2,
			Popularity: radosbench.Popularity{Kind: radosbench.PopZipf}}.withDefaults()
		home := func(pgs uint32, replicas int) [][]string {
			gm := osdmap.New(crush.BuildRacks(pods, 2, 1, 1.0), pgs, replicas)
			cats := make([][]string, pods)
			for i := 0; i < so.Popularity.Objects; i++ {
				name := fmt.Sprintf("so_obj_%d", i)
				rack := int(gm.Primary(gm.PGForObject(name))) / 2
				cats[rack] = append(cats[rack], name)
			}
			return cats
		}
		got := so.buildCatalogs()
		if want := home(uint32(2*pods*2), min(3, pods)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d pods: catalogs not homed by 2 x OSDs PGs and min(3, pods) replicas:\n%v\n%v", pods, got, want)
		}
		// A primary is the first pick whatever the replica count, so only
		// the PG count has a counter-example.
		if reflect.DeepEqual(got, home(uint32(3*pods*2), min(3, pods))) {
			t.Fatalf("%d pods: homing does not depend on the PG count", pods)
		}
	}
}

// TestScaleOutSteadyStateAllocations: a small scale-out (2 racks x 4 OSDs,
// the benchmark's Zipf 70 % read mix) run 6 s and 1.5 s of virtual time
// allocates at most half an object per op the longer run adds. Set-up, PG
// creation, sessions and lanes, prepopulation and the pools' growth cost the
// same in both runs, so the difference is the steady state's: reads view the
// data through lists their records own, names are shared with the stores'
// indexes, overwrites reuse their extents' slots and heartbeats their
// records. The least of three pairs, as the runtime's own allocations (a new
// OS thread, a GC sudog) land in a run now and then.
func TestScaleOutSteadyStateAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("two 8-OSD runs per pair")
	}
	run := func(d sim.Duration) (allocs uint64, ops int64) {
		so := NewScaleOut(ScaleOutConfig{Pods: 2, OSDsPerPod: 4, Mode: DoCeph, Seed: 42,
			Threads: 2, ObjectBytes: 64 << 10, ReadPercent: 70,
			Popularity:   radosbench.Popularity{Kind: radosbench.PopZipf},
			BalanceReads: true, Duration: d, Warmup: 500 * sim.Millisecond})
		defer so.Shutdown()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := so.Run(2)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs, res.TotalOps
	}
	per := math.Inf(1)
	for range 3 {
		shortAllocs, shortOps := run(1500 * sim.Millisecond)
		longAllocs, longOps := run(6 * sim.Second)
		if longOps <= shortOps {
			t.Fatalf("%d ops in the long run, %d in the short", longOps, shortOps)
		}
		per = min(per, (float64(longAllocs)-float64(shortAllocs))/float64(longOps-shortOps))
	}
	t.Logf("%.3f allocations per op of the steady state", per)
	if per > 0.5 {
		t.Fatalf("%.3f allocations per op of the steady state, want at most 0.5", per)
	}
}
