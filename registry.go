package doceph

import (
	"fmt"
	"strconv"
	"strings"

	"doceph/internal/report"
)

// Options is the one knob set every experiment reads. Zero fields are filled
// from the experiment's registry window, then from the window's defaults.
type Options struct {
	// Duration is the measured window (fault runs: the workload length, which
	// the fault plan's windows scale with); Warmup precedes it.
	Duration Duration
	Warmup   Duration
	// Threads is the closed-loop client count (default 16). The scale-out
	// experiments size their per-rack clients themselves and ignore it.
	Threads int
	Seed    int64
	// ObjectBytes is the write size of the fault runs (default 1 MB).
	ObjectBytes int64
	// Workers are the kernel worker counts the scale-out experiments compare
	// (default 1, 2, 4, 8).
	Workers []int
	// TraceOut, when set, makes the trace experiment write Chrome trace_event
	// JSON to <TraceOut>-baseline.json and <TraceOut>-doceph.json.
	TraceOut string
}

// ParseWorkers parses docephbench's -sim-workers flag: a comma-separated
// list of positive kernel worker counts for Options.Workers.
func ParseWorkers(list string) ([]int, error) {
	var workers []int
	for _, part := range strings.Split(list, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad -sim-workers entry %q (want positive integers, e.g. 1,2,8)", part)
		}
		workers = append(workers, w)
	}
	return workers, nil
}

// or fills o's zero fields from d.
func (o Options) or(d Options) Options {
	if o.Duration == 0 {
		o.Duration = d.Duration
	}
	if o.Warmup == 0 {
		o.Warmup = d.Warmup
	}
	if o.Threads == 0 {
		o.Threads = d.Threads
	}
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	if o.ObjectBytes == 0 {
		o.ObjectBytes = d.ObjectBytes
	}
	if len(o.Workers) == 0 {
		o.Workers = d.Workers
	}
	if o.TraceOut == "" {
		o.TraceOut = d.TraceOut
	}
	return o
}

// withDefaults fills whatever is still unset from the paper's methodology.
func (o Options) withDefaults() Options { return o.or(FullOptions()) }

// Window names how long experiments run.
type Window int

const (
	// Full is the paper's methodology (60 s runs, 16 clients).
	Full Window = iota
	// Quick keeps the shapes with an 8 s measured window.
	Quick
	// Smoke is the shortest honest run, sized for the race detector.
	Smoke
)

// FullOptions mirrors the paper's methodology (60 s runs, 16 clients).
func FullOptions() Options {
	return Options{Duration: 60 * Second, Warmup: 5 * Second, Threads: 16, Seed: 42,
		ObjectBytes: 1 << 20, Workers: []int{1, 2, 4, 8}}
}

// QuickOptions is a fast variant for tests and `go test -bench`.
func QuickOptions() Options {
	return Options{Duration: 8 * Second, Warmup: 2 * Second, Threads: 16, Seed: 42}
}

// SmokeOptions is the default smoke window: every code path, few ops.
func SmokeOptions() Options {
	return Options{Duration: Second, Warmup: 250 * Millisecond, Threads: 4, Seed: 42}
}

// Experiment is one entry of the registry — the only place that knows which
// experiments exist. cmd/docephbench, `make smoke`, the README table and the
// registry tests all iterate it.
type Experiment struct {
	Name string
	// Doc is the one-line description shown by -exp list and while running.
	Doc string
	// Paper marks the members of -exp all: the paper's own tables and figures
	// plus the ablations of its design choices.
	Paper bool
	// Sub names the tables Run returns, in order, when each is selectable on
	// its own (-exp fig7 runs the sweep and prints only Figure 7).
	Sub []string
	// Full, Quick and Smoke override the window defaults where the experiment
	// has its own floor or scale (zero fields inherit).
	Full, Quick, Smoke Options
	// Run receives fully resolved Options (see Experiment.Options).
	Run func(Options) ([]*report.Table, error)
}

// Options resolves what e runs with under window w: the caller's explicit
// settings, then e's own window, then the window's defaults.
func (e *Experiment) Options(w Window, set Options) Options {
	own, def := e.Full, FullOptions()
	switch w {
	case Quick:
		own, def = e.Quick, QuickOptions()
	case Smoke:
		own, def = e.Smoke, SmokeOptions()
	}
	return set.or(own).or(def).withDefaults()
}

var smallOpSmoke = Options{Duration: 250 * Millisecond, Warmup: 100 * Millisecond}

// registry lists every experiment in -exp all / -exp smoke order.
var registry = []Experiment{
	{Name: "profile", Paper: true, Sub: []string{"fig5", "fig6", "table2"},
		Doc: "baseline messenger profile, 1G vs 100G: CPU shares, throughput, context switches (§5.2)",
		Run: grid(func(Options) []cell { return profileCells }, profileTables)},
	{Name: "sweep", Paper: true, Sub: []string{"fig7", "fig8", "table3", "fig9", "fig10"},
		Doc: "Baseline vs DoCeph over 1-16MB writes: host CPU, latency and its breakdown, IOPS (§5.3-5.4)",
		Run: grid(func(Options) []cell { return versus(PaperSizes, BenchConfig{}) }, sweepTables)},
	{Name: "read", Paper: true,
		Doc: "read path, Baseline vs DoCeph over 1-16MB (§5.5 future work)",
		Run: grid(func(o Options) []cell { return readCells(o.Threads, PaperSizes) }, readTables)},
	{Name: "stability", Paper: true,
		Doc: "per-second 4MB write throughput of both deployments (the abstract's stability claim)",
		Run: grid(func(Options) []cell { return versus([]int64{4 << 20}, BenchConfig{}) }, stabilityTables)},
	{Name: "scale", Paper: true,
		Doc: "2/4/8 storage nodes: do the host-CPU savings and throughput scaling persist",
		Run: grid(func(o Options) []cell { return scaleCells(o.Threads, []int{2, 4, 8}) }, scaleTables)},
	{Name: "ablation", Paper: true,
		Doc: "DoCeph design choices: pipelining, MR cache, staging size, DMA channels, batching, injected DMA failures",
		Run: grid(func(Options) []cell { return ablationCells() }, ablationTables)},
	// Small ops retire thousands of IOPS: a quarter second already batches,
	// balances and caches plenty, and more only costs events.
	{Name: "smallops",
		Doc:   "4-256KB writes: Baseline vs DoCeph vs DoCeph with adaptive batching",
		Smoke: smallOpSmoke,
		Run:   grid(func(Options) []cell { return smallOpsCells() }, smallOpsTables)},
	{Name: "mq",
		Doc:   "batched DoCeph at 1/2/4/8 DMA queues (= OSD op shards = messenger lanes), 4-64KB writes",
		Smoke: smallOpSmoke,
		Run: grid(func(Options) []cell {
			return mqCells([]int{1, 2, 4, 8}, []int64{4 << 10, 16 << 10, 64 << 10})
		}, mqTables)},
	{Name: "streaming",
		Doc: "store-and-forward vs credit-windowed chunk pipelining, 4-64MB writes, both deployments",
		Run: grid(func(o Options) []cell { return streamingCells(o.Threads) }, streamingTables)},
	{Name: "readpath", Sub: []string{"readmix", "blockdevice"},
		Doc:   "op mix x replica-read balancing x DPU read cache x deployment, then the striped block device",
		Smoke: smallOpSmoke,
		Run:   runReadPath},
	// The scale-out experiments keep the short windows they have always run:
	// a virtual second of 32 or 128 OSDs is already thousands of ops. Their
	// smoke cost is building the clusters, so the smoke windows only need to
	// span a few beacon periods (two barrier rounds each); 4 workers on 8 or
	// 16 racks makes a rack's procs resume on a different worker goroutine
	// window to window.
	{Name: "scaleout",
		Doc:   "32-OSD multi-rack cluster on the partitioned parallel kernel, per worker count",
		Full:  Options{Duration: 2 * Second, Warmup: 500 * Millisecond},
		Quick: Options{Duration: Second, Warmup: 250 * Millisecond},
		Smoke: Options{Duration: 250 * Millisecond, Warmup: 100 * Millisecond, Workers: []int{1, 4}},
		Run:   runScaleOut},
	{Name: "scaleout128",
		Doc:   "128-OSD multi-rack CRUSH cluster: popularity x balance-reads, plus a worker-count determinism sweep",
		Full:  Options{Duration: Second, Warmup: 500 * Millisecond},
		Quick: Options{Duration: 500 * Millisecond, Warmup: 250 * Millisecond},
		Smoke: Options{Duration: 100 * Millisecond, Warmup: 50 * Millisecond, Workers: []int{1, 4}},
		Run:   runScaleOut128},
	{Name: "chaos",
		Doc:   "the default mixed fault plan against both deployments, integrity-checked",
		Smoke: Options{Duration: 20 * Second},
		Run:   runChaos},
	// 30 s is selfheal's floor: the crash window must outlast the 5 s
	// heartbeat grace or the failure is never detected.
	{Name: "selfheal",
		Doc:   "OSD crash + sustained DPU fault through breaker, degraded writes and recovery QoS, then breaker x QoS",
		Quick: Options{Duration: selfHealFloor},
		Smoke: Options{Duration: selfHealFloor},
		Run:   runSelfHeal},
	{Name: "trace",
		Doc:   "traced 4MB writes: per-stage CPU/latency tables for both deployments (-trace-out writes Chrome JSON)",
		Smoke: Options{Duration: 3 * Second, Threads: 8},
		Run:   runTrace},
}

// Selection is one experiment to run, optionally narrowed to one of its
// tables.
type Selection struct {
	*Experiment
	// Only is the index of the single table to keep, or -1 for all of them.
	Only int
}

// Run executes the selection under window w with the caller's explicit
// settings and returns the selected tables.
func (s Selection) Run(w Window, set Options) ([]*report.Table, error) {
	tables, err := s.Experiment.Run(s.Options(w, set))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	return s.pick(tables), nil
}

func (s Selection) pick(tables []*report.Table) []*report.Table {
	if s.Only >= 0 {
		return tables[s.Only : s.Only+1]
	}
	return tables
}

// Select resolves an -exp argument: "all" is the Paper entries, "smoke" is
// every entry, anything else must be an experiment or one of its Sub tables.
func Select(name string) ([]Selection, error) {
	var out []Selection
	for i := range registry {
		e := &registry[i]
		switch {
		case strings.EqualFold(name, "smoke"), strings.EqualFold(name, "all") && e.Paper,
			strings.EqualFold(name, e.Name):
			out = append(out, Selection{e, -1})
		}
		for t, sub := range e.Sub {
			if strings.EqualFold(name, sub) {
				out = append(out, Selection{e, t})
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown experiment %q; valid: all, smoke, list, %s",
			name, strings.Join(ExperimentNames(), ", "))
	}
	return out, nil
}

// ExperimentNames lists every selectable name: each entry, then its tables.
func ExperimentNames() []string {
	var names []string
	for _, e := range registry {
		names = append(names, e.Name)
		names = append(names, e.Sub...)
	}
	return names
}

// ExperimentList renders the registry; README.md embeds this table and
// TestReadmeExperimentTable fails when the two differ.
func ExperimentList() *report.Table {
	t := &report.Table{Header: []string{"-exp", "in all", "tables", "what it runs"}}
	for _, e := range registry {
		in, sub := "", "-"
		if e.Paper {
			in = "yes"
		}
		if len(e.Sub) > 0 {
			sub = strings.Join(e.Sub, " ")
		}
		t.AddRow(e.Name, in, sub, e.Doc)
	}
	return t
}
