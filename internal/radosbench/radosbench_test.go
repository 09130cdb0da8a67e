package radosbench

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"doceph/internal/sim"
)

// TestBenchPayloadMemoized pins the payload cache contract: one immutable
// buffer per size, aliased across calls, with the documented deterministic
// fill pattern.
func TestBenchPayloadMemoized(t *testing.T) {
	a := benchPayload(4096)
	if got := a.Length(); got != 4096 {
		t.Fatalf("payload length = %d, want 4096", got)
	}
	if b := benchPayload(4096); b != a {
		t.Error("repeated size must return the same aliased Bufferlist")
	}
	if c := benchPayload(8192); c == a || c.Length() != 8192 {
		t.Errorf("distinct size must get its own buffer (len %d)", c.Length())
	}
	raw := a.Bytes()
	for _, i := range []int{0, 1, 255, 4095} {
		if want := byte(i * 2654435761); raw[i] != want {
			t.Errorf("payload[%d] = %#x, want %#x (fill must stay a pure function of the index)", i, raw[i], want)
		}
	}
}

func TestResultDerivedRates(t *testing.T) {
	r := Result{Ops: 10, Bytes: 100 << 20, Window: 2 * sim.Second}
	if got := r.IOPS(); got != 5 {
		t.Errorf("IOPS = %v, want 5", got)
	}
	if got := r.ThroughputBps(); got != float64(50<<20) {
		t.Errorf("throughput = %v, want %v", got, float64(50<<20))
	}
	// A zero or negative window must not divide by zero.
	for _, w := range []sim.Duration{0, -sim.Second} {
		r.Window = w
		if r.IOPS() != 0 || r.ThroughputBps() != 0 {
			t.Errorf("window %v: rates must be 0", w)
		}
	}
}

// oracleSummary is the latency summary as Run used to compute it, the oracle
// of TestSummaryMatchesOneSortPerList: one list of every latency plus one per
// class, each sorted with sort.Slice.
func oracleSummary(res *Result, readLats, writeLats []sim.Duration) {
	lats := append(append([]sim.Duration(nil), readLats...), writeLats...)
	rand.New(rand.NewSource(int64(len(lats)))).Shuffle(len(lats), func(i, j int) { lats[i], lats[j] = lats[j], lats[i] })
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
	class := func(lats []sim.Duration, ops, bytes int64) ClassStats {
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
	res.ReadStats = class(readLats, res.ReadStats.Ops, res.ReadStats.Bytes)
	res.WriteStats = class(writeLats, res.WriteStats.Ops, res.WriteStats.Bytes)
}

// TestSummaryMatchesOneSortPerList: deriving the overall figures by merging
// the two sorted classes gives every Result field the one sorted list of all
// latencies gave — on random inputs with an empty class, one latency in all,
// and ties within and across the classes.
func TestSummaryMatchesOneSortPerList(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := [][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {0, 57}, {230, 0}, {2, 3}, {99, 1}, {1, 100}, {700, 300}, {10500, 4500}}
	for i := 0; i < 200; i++ {
		sizes = append(sizes, [2]int{rng.Intn(300), rng.Intn(300)})
	}
	for _, n := range sizes {
		// A narrow range makes ties common; a wide one, rare.
		span := []int64{1, 5, 1000, 1e9}[rng.Intn(4)]
		draw := func(k int) []sim.Duration {
			lats := make([]sim.Duration, k)
			for i := range lats {
				lats[i] = sim.Duration(1 + rng.Int63n(span))
			}
			return lats
		}
		reads, writes := draw(n[0]), draw(n[1])
		base := Result{Ops: int64(n[0] + n[1]), Bytes: 7,
			ReadStats: ClassStats{Ops: int64(n[0]), Bytes: 3}, WriteStats: ClassStats{Ops: int64(n[1]), Bytes: 4}}
		want, got := base, base
		oracleSummary(&want, slices.Clone(reads), slices.Clone(writes))
		summarize(&got, reads, writes)
		if !reflect.DeepEqual(got, want) {
			// fields drops Result's String method, so every field is printed.
			type fields Result
			t.Fatalf("%d reads, %d writes in [1, %d]:\n got %+v\nwant %+v", n[0], n[1], span, fields(got), fields(want))
		}
	}
}
