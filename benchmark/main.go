// Command benchmark is the repository's two-clock benchmark: six fixed-work
// workloads, twelve end-to-end metrics on the host and virtual clocks, and
// a per-layer ledger. See README.md in this directory.
//
// With no -workload it runs every workload and prints every metric by name
// (the ledger). With -workload it runs one workload for -seconds and prints
// one JSON object as its last line, as BENCHMARK.json's driver expects.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"doceph/internal/trace"
)

// ledgerReps is the number of timed repetitions per workload in ledger
// mode; -seconds runs take as many as fit, and at least minTimedReps.
const (
	ledgerReps   = 5
	minTimedReps = 3
	// profileFor is how long the profiled pass keeps repeating a workload.
	profileFor = 2 * time.Second
)

func main() {
	seed := flag.Int64("seed", 42, "workload seed: kernel RNG, object names, popularity draws")
	only := flag.String("workloads", "", "comma-separated workload names to run (default: all)")
	out := flag.String("out", filepath.Join("benchmark", "out"), "directory for traces, harness spans and result.json")
	one := flag.String("workload", "", "run this one workload and print one JSON result line")
	seconds := flag.Int("seconds", 10, "with -workload: how long to keep taking timed repetitions")
	traceOn := flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer ledger")
	flag.Parse()

	var err error
	if *one != "" {
		err = driverRun(*one, *seed, time.Duration(*seconds)*time.Second, *traceOn == 1, *out)
	} else {
		err = ledgerRun(*seed, *only, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: FAIL:", err)
		os.Exit(1)
	}
}

func pick(names string) ([]workload, error) {
	all := workloads()
	if names == "" {
		return all, nil
	}
	var out []workload
	for _, name := range strings.Split(names, ",") {
		found := false
		for _, w := range all {
			if w.name == name {
				out, found = append(out, w), true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	return out, nil
}

// result is everything measured for one workload.
type result struct {
	w    workload
	reps []*repResult // timed repetitions, tracing off

	// Observed passes: one traced repetition and a profiled pass, made of
	// repetitions of the timed length. Scale-out has no tracer hook, so traced stays nil.
	traced  *repResult
	extra   values // T and P rows
	samples int64  // CPU-profile samples behind the P rows
}

// timedReps runs one discarded warm-up repetition per workload, then timed
// repetitions round-robin across workloads until each has at least minReps
// and budget has elapsed. Interleaving spreads slow drift of the host
// (thermal, neighbours) over every workload instead of onto the last one.
func timedReps(ws []workload, minReps int, budget time.Duration, rec *spanRecorder) ([]*result, error) {
	results := make([]*result, len(ws))
	for i, w := range ws {
		results[i] = &result{w: w}
		if _, err := runRep(w, false, nil); err != nil {
			return results, fmt.Errorf("warm-up repetition: %w", err)
		}
	}
	start := time.Now()
	for n := 0; ; n++ {
		// Stop before the round whose midpoint would pass the budget, so a
		// run overshoots and undershoots its budget equally often.
		if t := time.Since(start); n >= minReps && t+t/time.Duration(2*n) >= budget {
			break
		}
		for _, res := range results {
			r, err := runRep(res.w, false, rec)
			res.reps = append(res.reps, r)
			if err != nil {
				return results, err
			}
			if r.ref, err = referenceKernel(); err != nil {
				return results, err
			}
		}
	}
	return results, nil
}

// observe runs the traced and the profiled repetition of one workload and
// fills its T and P rows.
func (res *result) observe(rec *spanRecorder) error {
	prof, samples, err := profileShares(func() error {
		// At 100 samples a second one repetition is too few to split eleven
		// ways; repeat until the profile has a few hundred.
		for start := time.Now(); time.Since(start) < profileFor; {
			if _, err := runRep(res.w, false, nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.extra, res.samples = prof, samples
	if res.w.scale != nil {
		return nil
	}
	tr, err := runRep(res.w, true, rec)
	if err != nil {
		return fmt.Errorf("traced repetition: %w", err)
	}
	if err := trace.CheckInvariants(tr.spans); err != nil {
		return fmt.Errorf("%s: %w", res.w.name, err)
	}
	if err := trace.CheckCPUConservation(tr.spans, tr.busy); err != nil {
		return fmt.Errorf("%s: %w", res.w.name, err)
	}
	untraced := res.reps[0].vals
	for _, m := range endToEnd {
		// Tracing is pure bookkeeping: the traced run must simulate exactly
		// what the untraced ones did.
		if !m.host && !same(tr.vals[m.name], untraced[m.name]) {
			return fmt.Errorf("%s: %s is %v traced but %v untraced", res.w.name, m.name, tr.vals[m.name], untraced[m.name])
		}
	}
	res.traced = tr
	wall := make([]float64, len(res.reps))
	for i, r := range res.reps {
		wall[i] = r.vals["wall_us_per_op"]
	}
	for k, x := range traceValues(tr, summarize(wall).Median) {
		res.extra[k] = x
	}
	return nil
}

// entry is one reported number.
type entry struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Host-clock metrics carry their spread; simulated ones repeat exactly.
	*summary `json:",omitempty"`
	// Noisy marks a host-clock end-to-end metric whose interquartile range
	// exceeds its bound: a comparison on it is unresolved, not unchanged.
	Noisy bool `json:"noisy,omitempty"`
}

func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// hostSpeed is the factor that puts this workload's host-time rows on a
// host of nominal speed: nominal over the median time the reference kernel
// took beside its timed repetitions (1 when none was timed).
func (res *result) hostSpeed() float64 {
	var refs []float64
	for _, r := range res.reps {
		if r.ref > 0 {
			refs = append(refs, float64(r.ref))
		}
	}
	if len(refs) == 0 {
		return 1
	}
	return float64(referenceNominal) / summarize(refs).Median
}

// table folds a workload's repetitions into one entry per metric that
// applies to it. Host-clock rows become medians; every other row must be
// bit-identical across repetitions, which is the determinism check.
func (res *result) table(specs []metric) (map[string]entry, error) {
	out := map[string]entry{}
	speed := res.hostSpeed()
	for _, m := range specs {
		e := entry{Unit: m.unit}
		if _, timed := res.reps[0].vals[m.name]; timed {
			xs := make([]float64, len(res.reps))
			for i, r := range res.reps {
				xs[i] = r.vals[m.name]
				if m.hostTime {
					xs[i] *= speed
				}
				if !m.host && !same(xs[i], xs[0]) {
					return nil, fmt.Errorf("%s: %s is not deterministic: repetition %d gave %v, repetition 0 gave %v",
						res.w.name, m.name, i, xs[i], xs[0])
				}
			}
			e.Value = xs[0]
			if m.host {
				s := summarize(xs)
				e.Value, e.summary = s.Median, &s
				e.Noisy = m.bound > 0 && s.spread() > m.bound
			}
		} else if x, ok := res.extra[m.name]; ok {
			e.Value = x
		} else {
			continue
		}
		if !math.IsNaN(e.Value) {
			out[m.name] = e
		}
	}
	for _, r := range res.reps[1:] {
		if r.c != res.reps[0].c {
			return nil, fmt.Errorf("%s: layer counters differ between repetitions", res.w.name)
		}
	}
	return out, nil
}

func (res *result) counts() (attempted, failed int64) {
	for _, r := range res.reps {
		attempted += r.attempted
		failed += r.failed
	}
	return attempted, failed
}

// driverRun is the BENCHMARK.json contract: one workload, one JSON line.
func driverRun(name string, seed int64, budget time.Duration, traced bool, outDir string) error {
	ws, err := pick(name)
	if err != nil {
		return err
	}
	ws[0] = ws[0].seeded(seed)
	rec := newSpanRecorder()
	if traced {
		budget = 0 // the ledger rows need the observed passes, not more repetitions
	}
	results, runErr := timedReps(ws, minTimedReps, budget, rec)
	res := results[0]

	specs, layers := driverLists()
	rows := map[string]entry{}
	if runErr == nil && traced {
		specs = layers
		if runErr = res.observe(rec); runErr == nil {
			iso, _ := runIsolated(rec)
			for k, x := range iso {
				res.extra[k] = x
			}
			runErr = writeArtifacts(outDir, []*result{res}, rec)
		}
	}
	if runErr == nil {
		rows, runErr = res.table(specs)
	}

	attempted, failed := res.counts()
	if runErr != nil && failed == 0 {
		failed = 1 // a determinism or engagement failure is a failed run
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{runErr == nil, max(attempted, 1), failed, map[string]value{}}
	for _, m := range specs {
		// A row that does not apply to this workload reads zero here, because
		// the driver wants every metric from every workload; the ledger
		// prints n/a.
		line.Metrics[m.name] = value{rows[m.name].Value, m.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return runErr
}

// hostInfo records where a result was taken.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

type workloadDoc struct {
	Name          string  `json:"name"`
	Why           string  `json:"why"`
	Threads       int     `json:"threads"`
	MeasuredOps   int64   `json:"measured_ops"`
	Attempted     int64   `json:"attempted"`
	Failed        int64   `json:"failed"`
	FailedOpRatio float64 `json:"failed_op_ratio"`
	// HostSpeed multiplied the raw host times into the values below.
	HostSpeed      float64          `json:"host_speed"`
	EndToEnd       map[string]entry `json:"end_to_end"`
	Layers         map[string]entry `json:"per_layer"`
	ProfileSamples int64            `json:"profile_samples"`
}

type document struct {
	Seed        int64            `json:"seed"`
	Host        hostInfo         `json:"host"`
	Repetitions int              `json:"timed_repetitions"`
	Workloads   []workloadDoc    `json:"workloads"`
	Isolated    map[string]entry `json:"isolated"`
}

// ledgerRun runs every selected workload and prints every metric by name.
func ledgerRun(seed int64, only, outDir string) error {
	ws, err := pick(only)
	if err != nil {
		return err
	}
	for i := range ws {
		ws[i] = ws[i].seeded(seed)
	}
	rec := newSpanRecorder()
	doc := document{Seed: seed, Repetitions: ledgerReps, Isolated: map[string]entry{},
		Host: hostInfo{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH}}
	fmt.Printf("doceph benchmark: seed %d, %d timed repetitions per workload after one warm-up, %s, nproc %d, GOMAXPROCS %d\n",
		seed, ledgerReps, doc.Host.GoVersion, doc.Host.NProc, doc.Host.GOMAXPROCS)

	results, err := timedReps(ws, ledgerReps, 0, rec)
	if err != nil {
		return err
	}
	for _, res := range results {
		if err := res.observe(rec); err != nil {
			return err
		}
		e2e, err := res.table(endToEnd)
		if err != nil {
			return err
		}
		layers, err := res.table(perLayer)
		if err != nil {
			return err
		}
		attempted, failed := res.counts()
		wd := workloadDoc{Name: res.w.name, Why: res.w.why, Threads: res.w.threads(), MeasuredOps: res.reps[0].ops,
			Attempted: attempted, Failed: failed, FailedOpRatio: float64(failed) / float64(attempted),
			HostSpeed: res.hostSpeed(), EndToEnd: e2e, Layers: layers, ProfileSamples: res.samples}
		doc.Workloads = append(doc.Workloads, wd)
		printWorkload(res, wd)
		if failed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed", res.w.name, failed, attempted)
		}
	}

	iso, spreads := runIsolated(rec)
	fmt.Printf("\n== isolated layer drivers (host ns per call, median of %d rounds) ==\n", isolatedRounds)
	for _, m := range perLayer {
		if m.src != srcIsolated {
			continue
		}
		s := spreads[m.name]
		doc.Isolated[m.name] = entry{Value: iso[m.name], Unit: m.unit, summary: &s}
		fmt.Printf("  %-34s %14.1f %-5s  q1 %.1f q3 %.1f min %.1f n=%d\n", m.name, s.Median, m.unit, s.Q1, s.Q3, s.Min, s.N)
	}

	if err := writeArtifacts(outDir, results, rec); err != nil {
		return err
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "result.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nresult: %s   traces and harness spans: %s\n", path, outDir)
	return nil
}

func printWorkload(res *result, wd workloadDoc) {
	fmt.Printf("\n== %s: %s ==\n", wd.Name, wd.Why)
	fmt.Printf("   closed loop, %d clients, %d measured ops per repetition, %d timed repetitions\n",
		wd.Threads, wd.MeasuredOps, len(res.reps))
	fmt.Printf("   host-time rows (wall, cpu, setup, ns per event) are raw x %.3f: the reference kernel took %.1f ms here, %.0f ms nominal\n",
		wd.HostSpeed, float64(referenceNominal.Milliseconds())/wd.HostSpeed, float64(referenceNominal.Milliseconds()))
	printRows := func(specs []metric, rows map[string]entry, src rune) {
		for _, m := range specs {
			if m.src != src {
				continue
			}
			e, ok := rows[m.name]
			if !ok {
				fmt.Printf("  %-40s %14s\n", m.name, "n/a")
				continue
			}
			fmt.Printf("  %-40s %14.4f %-5s", m.name, e.Value, m.unit)
			if e.summary != nil {
				fmt.Printf("  q1 %.4f q3 %.4f min %.4f n=%d", e.Q1, e.Q3, e.Min, e.N)
				if m.bound > 0 {
					fmt.Printf(" spread %.1f%% of bound %.0f%%", 100*e.spread(), 100*m.bound)
				}
				if e.Noisy {
					fmt.Print("  NOISY: comparisons on this row are unresolved")
				}
			} else if m.src == 0 || m.src == srcStats {
				fmt.Print("  exact")
			}
			if paper, ok := res.w.paper[m.name]; ok {
				fmt.Printf("  paper %.4g (%+.1f%%)", paper, 100*(e.Value-paper)/paper)
			}
			fmt.Println()
		}
	}
	fmt.Println(" end-to-end")
	printRows(endToEnd, wd.EndToEnd, 0)
	fmt.Printf("  %-40s %14.4f %-5s  %d failed of %d attempted\n", "failed_op_ratio", wd.FailedOpRatio, "ratio", wd.Failed, wd.Attempted)
	fmt.Println(" per layer, from Stats() counters over the measured window")
	printRows(perLayer, wd.Layers, srcStats)
	if res.traced == nil {
		fmt.Println(" per layer, from the traced repetition: n/a (the scale-out assembly has no tracer hook)")
	} else {
		fmt.Println(" per layer, from the traced repetition")
		printRows(perLayer, wd.Layers, srcTrace)
		writeStageTable(os.Stdout, res.traced)
	}
	fmt.Printf(" host time by package, flat CPU-profile samples of an untraced pass (%d samples)\n", res.samples)
	printRows(perLayer, wd.Layers, srcProfile)
}

// writeArtifacts writes each traced repetition as Chrome trace JSON and the
// harness's own spans.
func writeArtifacts(dir string, results []*result, rec *spanRecorder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, res := range results {
		if res.traced == nil {
			continue
		}
		path := filepath.Join(dir, "trace-"+res.w.name+".json")
		if err := os.WriteFile(path, trace.ChromeTrace(res.traced.spans), 0o644); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(rec.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "harness-spans.json"), append(b, '\n'), 0o644)
}
