package doceph

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"doceph/internal/dpu"
	"doceph/internal/radosbench"
	"doceph/internal/sim"
	"doceph/internal/trace"
	"doceph/internal/wire"
)

// The knob table. The ProxyObjectStore is a drop-in ObjectStore under an
// unmodified OSD (§3.1), so every mechanism this repository adds to the path
// may change when and where work happens, never what is stored or returned. A
// knob is one row: its mutator (grid.go's where one exists), the deployments
// and sizes its single arm runs at, where it must engage and the proof that it
// did, and where it must leave the run bit-identical — the same events,
// average latency and Chrome-trace hash — rather than only semantically
// identical. Every arm, single or pair, runs one workload (runArm) and is held
// to the all-off run at its deployment and size; a new knob is a new row and
// is paired with every other by TestMetamorphicKnobPairs.
type knob struct {
	name    string
	mut     func(*ClusterConfig)
	modes   []Mode
	sizes   []int64
	live    func(Mode, int64) bool
	engaged func(arm) error
	inert   func(Mode) bool // nil: never
}

// streamChunk is messenger.StreamConfig's default chunk: an object of at most
// one chunk bypasses the stream.
const streamChunk = 2 << 20

var (
	bothModes  = []Mode{Baseline, DoCeph}
	knobSizes  = []int64{4 << 10, 64 << 10, 1 << 20, 4 << 20}
	pairSizes  = []int64{64 << 10, 4 << 20}
	always     = func(Mode) bool { return true }
	onBaseline = func(m Mode) bool { return m == Baseline }
	everywhere = func(Mode, int64) bool { return true }
	onDoCeph   = func(m Mode, _ int64) bool { return m == DoCeph }
	smallOnDPU = func(m Mode, size int64) bool { return m == DoCeph && size <= 64<<10 }
)

func streamOn(c *ClusterConfig)  { c.Messenger.Stream.Enable = true }
func balanceOn(c *ClusterConfig) { c.Client.BalanceReads = true }
func cacheOn(c *ClusterConfig)   { c.Bridge.ReadCache.Enable = true }

// counted adapts one of grid.go's engagement predicates to an arm; staged
// also wants the trace stages the knob's path records.
func counted(f func(runResult) error) func(arm) error {
	return func(a arm) error { return f(a.runResult) }
}

func staged(prefix string, f func(runResult) error) func(arm) error {
	return func(a arm) error {
		return errors.Join(expect(a.count(prefix) >= 2, "%d %s* trace stages", a.count(prefix), prefix), f(a.runResult))
	}
}

var knobs = []knob{
	{name: "batching", mut: batchOn, modes: bothModes, sizes: knobSizes,
		live: smallOnDPU, engaged: staged("batch.", batchedEngaged), inert: onBaseline},
	{name: "multi-queue", mut: multiQueue(4), modes: []Mode{DoCeph}, sizes: []int64{4 << 10, 64 << 10},
		live: smallOnDPU, engaged: staged("batch.", queuesEngaged(4))},
	{name: "streaming", mut: streamOn, modes: bothModes, sizes: []int64{streamChunk, 4 << 20, 8 << 20},
		live: everywhere, engaged: func(a arm) error {
			if a.size > streamChunk {
				return staged("stream.", streamEngaged(true))(a)
			}
			return streamEngaged(false)(a.runResult)
		}},
	{name: "balance-reads", mut: balanceOn, modes: bothModes, sizes: knobSizes,
		live: everywhere, engaged: counted(balanceEngaged)},
	{name: "read-cache", mut: cacheOn, modes: bothModes, sizes: knobSizes,
		live: onDoCeph, engaged: counted(cacheEngaged), inert: onBaseline},
	{name: "breaker", mut: func(c *ClusterConfig) {
		c.Bridge.Breaker = dpu.DefaultBreakerConfig()
		c.Bridge.Breaker.Enable = true
	}, modes: bothModes, sizes: pairSizes, live: onDoCeph, inert: always, engaged: func(a arm) error {
		return expect(a.breakers == a.nodes, "%d of %d proxies have a breaker", a.breakers, a.nodes)
	}},
	{name: "min_size+qos", mut: func(c *ClusterConfig) { c.MinSize = 1; recoveryQoS(c) },
		modes: bothModes, sizes: pairSizes, live: everywhere, inert: always, engaged: func(a arm) error {
			return expect(a.minSize == 1 && a.degradedWrites == 0,
				"min_size %d, %d writes degraded on a fault-free run", a.minSize, a.degradedWrites)
		}},
}

// The workload: knobThreads workers each issue knobOps fixed-work ops, half
// of them reads of knobPrepop prepopulated objects (so reads revisit).
const (
	knobThreads = 4
	knobOps     = 6
	knobPrepop  = 8
	knobReadPct = 50
)

// knobObjects lists every object the workload writes: the prepopulated set,
// then each worker's writes (radosbench's fixed-work read/write split).
func knobObjects() (objs []string) {
	for i := 0; i < knobPrepop; i++ {
		objs = append(objs, fmt.Sprintf("benchmark_data_prepop_%d", i))
	}
	for w := 0; w < knobThreads; w++ {
		for i := 0; i < knobOps; i++ {
			if (w*7919+i*104729)%100 >= knobReadPct {
				objs = append(objs, fmt.Sprintf("benchmark_data_w%d_%d", w, i))
			}
		}
	}
	return objs
}

// arm is what one run of the workload leaves behind.
type arm struct {
	runResult // the record grid.go's engagement predicates read
	// crc is every object as read back; ghostErr the never-written read's.
	crc      map[string]uint32
	ghostErr string
	stages   map[string]bool
	minSize  int
	hash     string
	errs     []error // what the run itself found wrong
}

// count is how many distinct trace stages start with prefix.
func (a arm) count(prefix string) (n int) {
	for s := range a.stages {
		if strings.HasPrefix(s, prefix) {
			n++
		}
	}
	return n
}

// point is one arm: a deployment, a size and a set of rows (bit i = knobs[i]).
type point struct {
	mode Mode
	size int64
	set  uint
}

func (p point) String() string { return fmt.Sprintf("%v_%dKB", p.mode, p.size>>10) }

// arms holds a *armOnce per point run so far.
var arms sync.Map

type armOnce struct {
	sync.Once
	a arm
}

// get runs p once per test binary; single and pair arms share their
// all-off and single-knob neighbours.
func (p point) get() arm {
	v, _ := arms.LoadOrStore(p, new(armOnce))
	e := v.(*armOnce)
	e.Do(func() { e.a = runArm(p) })
	return e.a
}

// runArm drives the workload on a fresh traced cluster: concurrent mixed
// ops, then one client reads every object back and byte-compares it, rewrites
// one it has read with other bytes and reads it again (a stale copy anywhere
// on the read path shows here), reads an object never written, and waits out
// a 1 s settle after which no served queue may hold work.
func runArm(p point) arm {
	cfg := ClusterConfig{Mode: p.mode, Seed: 42, Trace: true}
	for i, k := range knobs {
		if p.set&(1<<i) != 0 {
			k.mut(&cfg)
		}
	}
	cl := NewCluster(cfg)
	defer cl.Shutdown()
	a := arm{crc: map[string]uint32{}, stages: map[string]bool{}}
	fail := func(format string, args ...any) { a.errs = append(a.errs, fmt.Errorf(format, args...)) }
	bench := BenchConfig{Threads: knobThreads, ObjectBytes: p.size,
		OpsPerThread: knobOps, Op: MixedWorkload, ReadPercent: knobReadPct, PrepopulateObjects: knobPrepop}
	res, err := radosbench.Run(cl.Env, cl.Client, bench)
	if err != nil {
		fail("bench: %v", err)
		return a
	}
	if res.Ops != knobThreads*knobOps || res.ReadStats.Ops == 0 || res.WriteStats.Ops == 0 {
		fail("workload shape wrong: %d ops, %d reads", res.Ops, res.ReadStats.Ops)
	}
	want := radosbench.Payload(p.size).Bytes()
	other := bytes.Clone(want)
	for i := range other {
		other[i] = ^other[i]
	}
	objs, done := knobObjects(), false
	cl.Env.Spawn("knob-readback", func(pr *sim.Proc) {
		pr.SetThread(sim.NewThread("knob-readback", "client"))
		read := func(obj, as string, want []byte) {
			bl, err := cl.Client.Read(pr, obj, 0, 0)
			if err != nil {
				fail("read %s: %v", as, err)
			} else if a.crc[as] = bl.CRC32C(); !bytes.Equal(bl.Bytes(), want) {
				fail("read %s: %d bytes that are not the %d written", as, bl.Length(), len(want))
			}
		}
		for _, obj := range objs {
			read(obj, obj, want)
		}
		if err := cl.Client.Write(pr, objs[0], wire.FromBytes(other)); err != nil {
			fail("overwrite %s: %v", objs[0], err)
		}
		read(objs[0], objs[0]+" overwritten", other)
		if _, err := cl.Client.Read(pr, "never_written", 0, 0); err != nil {
			a.ghostErr = err.Error()
		}
		pr.Wait(sim.Second)
		done = true
	})
	for i := 0; !done && i < 120; i++ {
		if err := cl.Env.RunUntil(cl.Env.Now().Add(sim.Second)); err != nil {
			fail("readback: %v", err)
			return a
		}
	}
	if !done {
		fail("readback did not finish")
	}
	if b := cl.Env.Backlog(); len(b) > 0 {
		fail("served queues still hold work after the settle: %v", b)
	}

	a.runResult = measure(cl, res)
	a.mode, a.size, a.workload = p.mode, p.size, bench
	a.minSize = cl.Nodes[0].OSD.Map().MinSize
	// A knob's counter stays zero unless its switch is on.
	for _, c := range []struct {
		what string
		on   bool
		n    int64
	}{
		{"batched txns", cfg.Bridge.Batch.Enable, a.batchedTxns},
		{"streamed writes", cfg.Messenger.Stream.Enable, a.streamWrites},
		{"balanced reads", cfg.Client.BalanceReads, a.balancedReads},
		{"read-cache lookups", cfg.Bridge.ReadCache.Enable, a.cacheHits + a.cacheMisses},
	} {
		if !c.on && c.n != 0 {
			fail("%d %s with the knob off", c.n, c.what)
		}
	}
	a.stages, err = traceStages(a.runResult)
	a.errs = append(a.errs, a.checkTrace(), err)
	a.hash = chromeHash(a.spans)
	return a
}

// traceStages holds a traced run to what every run of the table satisfies
// beyond the runner's span checks: some spans, batch and stream stages only
// where their counters moved, and batch DMA stages per queue — on more than
// one — once the engines run several. It returns the stage set.
func traceStages(r runResult) (map[string]bool, error) {
	a := arm{stages: map[string]bool{}}
	for _, s := range r.spans {
		a.stages[s.Stage] = true
	}
	var errs []error
	if a.count("batch.") > 0 && r.batchedTxns == 0 || a.count("stream.") > 0 && r.streamWrites == 0 {
		errs = append(errs, fmt.Errorf("batch or stream stages with nothing batched or streamed: %v", a.stages))
	}
	if r.engQueues > 1 && (a.stages[trace.StageBatchDMA] || a.count("batch.") > 0 && a.count(trace.StageBatchDMA+".q") < 2) {
		errs = append(errs, fmt.Errorf("%d DMA queues but stages %v", r.engQueues, a.stages))
	}
	if len(r.spans) == 0 {
		errs = append(errs, errors.New("no spans recorded"))
	}
	return a.stages, errors.Join(errs...)
}

// check holds the arm p to the all-off run at its deployment and size: the
// same replies and stored bytes, each of its rows engaged where live, and
// bit-identical to the arm without a row wherever that row is inert.
func check(t *testing.T, p point) {
	a, off := p.get(), point{p.mode, p.size, 0}.get()
	for _, err := range append(a.errs, off.errs...) {
		if err != nil {
			t.Error(err)
		}
	}
	if a.bench.Ops != off.bench.Ops || a.bench.ReadStats.Ops != off.bench.ReadStats.Ops {
		t.Errorf("op counts changed: %d/%d vs %d/%d", a.bench.Ops, a.bench.ReadStats.Ops, off.bench.Ops, off.bench.ReadStats.Ops)
	}
	if off.ghostErr == "" || a.ghostErr != off.ghostErr {
		t.Errorf("ghost-read error changed: %q vs %q", off.ghostErr, a.ghostErr)
	}
	if len(a.crc) != len(knobObjects())+1 || len(a.crc) != len(off.crc) {
		t.Errorf("read back %d objects, the all-off run %d", len(a.crc), len(off.crc))
	}
	for obj, crc := range off.crc {
		if a.crc[obj] != crc {
			t.Errorf("%s reads back as %08x, in the all-off run as %08x", obj, a.crc[obj], crc)
		}
	}
	for i, k := range knobs {
		if p.set&(1<<i) == 0 {
			continue
		}
		if k.live(p.mode, p.size) {
			if err := k.engaged(a); err != nil {
				t.Errorf("%s not engaged: %v", k.name, err)
			}
		}
		if k.inert != nil && k.inert(p.mode) {
			b := point{p.mode, p.size, p.set &^ (1 << i)}.get()
			if a.events != b.events || a.bench.AvgLatency != b.bench.AvgLatency || a.hash != b.hash {
				t.Errorf("%s is not inert: events %d/%d, avg latency %v/%v, trace %.12s/%.12s",
					k.name, b.events, a.events, b.bench.AvgLatency, a.bench.AvgLatency, b.hash, a.hash)
			}
		}
	}
}

// knobNamed is the index of the row called name.
func knobNamed(name string) int {
	for i, k := range knobs {
		if k.name == name {
			return i
		}
	}
	panic("no knob " + name)
}

// singles checks each named row alone at the first row's deployments and
// sizes (one deployment: the subtest is named by size only).
func singles(t *testing.T, names ...string) {
	first := knobs[knobNamed(names[0])]
	for _, mode := range first.modes {
		for _, size := range first.sizes {
			p := point{mode: mode, size: size}
			name := p.String()
			if len(first.modes) == 1 {
				name = fmt.Sprintf("%dKB", size>>10)
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				for _, n := range names {
					p.set = 1 << knobNamed(n)
					check(t, p)
				}
			})
		}
	}
}

func TestMetamorphicBatchingPreservesSemantics(t *testing.T)   { singles(t, "batching") }
func TestMetamorphicMultiQueuePreservesSemantics(t *testing.T) { singles(t, "multi-queue") }
func TestMetamorphicStreamingPreservesSemantics(t *testing.T)  { singles(t, "streaming") }
func TestMetamorphicReadPathKnobsPreserveSemantics(t *testing.T) {
	singles(t, "balance-reads", "read-cache")
}
func TestMetamorphicFaultKnobsInertWhenFaultFree(t *testing.T) { singles(t, "breaker", "min_size+qos") }

// TestMetamorphicKnobPairs runs every pair of rows on both deployments.
func TestMetamorphicKnobPairs(t *testing.T) {
	for i := range knobs {
		for j := i + 1; j < len(knobs); j++ {
			t.Run(knobs[i].name+"+"+knobs[j].name, func(t *testing.T) {
				for _, mode := range bothModes {
					for _, size := range pairSizes {
						p := point{mode, size, 1<<i | 1<<j}
						t.Run(p.String(), func(t *testing.T) {
							t.Parallel()
							check(t, p)
						})
					}
				}
			})
		}
	}
}

// Run-twice determinism: each row is one configuration that, per seed, must
// reproduce every simulated value and the byte-exact Chrome trace when run
// again. Cell rows run on the experiments' own runner (runWorkloadCfg) with
// the knob rows' mutators and engagement predicates.
var seedRows = map[string]struct {
	seeds []int64
	run   func(seed int64) (any, error)
}{
	"golden":      {[]int64{1, 2, 3, 5, 8, 13, 21, 42, 1337}, tracedCell(cell{size: 1 << 20}, Second)},
	"batched":     {knobSeeds, tracedCell(cell{size: 64 << 10}, 0, "batching")},
	"multi-queue": {knobSeeds, tracedCell(cell{size: 4 << 10}, 0, "multi-queue")},
	"streamed":    {knobSeeds, tracedCell(cell{size: 4 << 20, bench: BenchConfig{Threads: 4}}, 0, "streaming")},
	"mixed read path": {knobSeeds, tracedCell(cell{size: 64 << 10, engaged: func(r runResult) error {
		rs, ws := r.bench.ReadStats.Ops, r.bench.WriteStats.Ops
		return expect(rs > 0 && ws > 0, "mix collapsed: %d reads, %d writes", rs, ws)
	}, bench: BenchConfig{Op: MixedWorkload, ReadPercent: 70, QueueDepth: 2}}, 0, "balance-reads", "read-cache")},
	"block device": {knobSeeds, func(seed int64) (any, error) {
		r, err := runBlockDeviceCell(DoCeph, true, seed)
		return r, errors.Join(err, expect(r.Intact && r.CacheHits > 0,
			"block device readback intact %v, client cache hits %d", r.Intact, r.CacheHits))
	}},
}

var knobSeeds = []int64{1, 2, 3, 5, 8, 13, 21, 42}

// tracedCell runs c traced on DoCeph with the named rows on, 8 clients for 1 s
// after warmup (200 ms when 0), through the checks every arm gets.
func tracedCell(c cell, warmup Duration, rows ...string) func(int64) (any, error) {
	if warmup == 0 {
		warmup = 200 * Millisecond
	}
	c.mode = DoCeph
	c.mut = func(cfg *ClusterConfig) {
		cfg.Trace = true
		for _, n := range rows {
			knobs[knobNamed(n)].mut(cfg)
		}
	}
	return func(seed int64) (any, error) {
		r, err := runWorkloadCfg(c, Options{Duration: Second, Warmup: warmup, Threads: 8, Seed: seed})
		if err != nil {
			return nil, err
		}
		stages, err := traceStages(r)
		errs := []error{err}
		for _, n := range rows {
			errs = append(errs, knobs[knobNamed(n)].engaged(arm{runResult: r, stages: stages}))
		}
		return r, errors.Join(errs...)
	}
}

func runTwice(t *testing.T, row string) {
	for _, seed := range seedRows[row].seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			a, err := seedRows[row].run(seed)
			if err != nil {
				t.Fatal(err)
			}
			if b, _ := seedRows[row].run(seed); !reflect.DeepEqual(a, b) {
				t.Errorf("%s run not deterministic:\n 1: %+v\n 2: %+v", row, a, b)
			}
		})
	}
}

func TestMultiSeedDeterminism(t *testing.T)              { runTwice(t, "golden") }
func TestMultiSeedDeterminismBatched(t *testing.T)       { runTwice(t, "batched") }
func TestMultiSeedDeterminismMultiQueue(t *testing.T)    { runTwice(t, "multi-queue") }
func TestMultiSeedDeterminismStreaming(t *testing.T)     { runTwice(t, "streamed") }
func TestMultiSeedDeterminismMixedReadPath(t *testing.T) { runTwice(t, "mixed read path") }
func TestMultiSeedDeterminismBlockDevice(t *testing.T)   { runTwice(t, "block device") }
