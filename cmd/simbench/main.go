// Command simbench measures the simulator's own wall-clock performance
// (events/sec, ns/op, allocs/op over doceph.RunSimSweep) and maintains
// BENCH_sim.json: a pre-optimization baseline recorded once plus the
// current numbers and their ratios, so `make bench` tracks the perf
// trajectory from PR to PR.
//
// A failed run exits non-zero before touching the result file:
// BENCH_sim.json is only ever rewritten from a complete, successful sweep
// (see perf.UpdateFile).
//
// Usage:
//
//	go run ./cmd/simbench                 # update "current", compare to baseline
//	go run ./cmd/simbench -rebaseline     # overwrite the stored baseline too
//	go run ./cmd/simbench -guard BENCH_sim.json
//	                                      # compare against the record instead
//	                                      # of writing: fail on a row whose ops
//	                                      # or events moved, or on a gross
//	                                      # events/s or allocs/op regression
//	go run ./cmd/simbench -sim-workers 1,2,8 -out /tmp/scale.json
//	                                      # scale-out rows at these kernel
//	                                      # worker counts (@wN rows)
//	go run ./cmd/simbench -guard BENCH_sim.json -cpuprofile cpu.pprof -memprofile mem.pprof
//	                                      # kernel hotspot profiles for
//	                                      # `go tool pprof` (see EXPERIMENTS.md)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"doceph"
	"doceph/internal/perf"
)

// The guard's thresholds. The events/s floor is loose because it compares
// across machines; the allocs/op ceiling is tight because allocations are a
// property of the code and the rows are the record's own shapes (they repeat
// to well under 1% run to run). minSpeedup is the nominal @w1-vs-widest
// events/s floor of a scale-out family, scaled down to the host's cores.
const (
	guardRatio  = 0.3
	guardAllocs = 1.10
	minSpeedup  = 3.0
)

func main() {
	var (
		out        = flag.String("out", "BENCH_sim.json", "result file to maintain")
		rebaseline = flag.Bool("rebaseline", false, "record this run as the baseline")
		guard      = flag.String("guard", "", "compare against this file's current record instead of writing -out")
		simWorkers = flag.String("sim-workers", "", "comma-separated kernel worker counts for the scale-out rows (default 1,8)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile taken after the sweep to this file")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(1)
	}

	var o doceph.Options
	if *simWorkers != "" {
		var err error
		if o.Workers, err = doceph.ParseWorkers(*simWorkers); err != nil {
			fail(err)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	rep, err := doceph.RunSimSweep(o)
	if err != nil {
		fail(err)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fail(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail(err)
		}
		f.Close()
	}

	for _, m := range rep.Scenarios {
		fmt.Printf("%-24s %8d ops  %12.0f events/s  %10.0f ns/op  %8.1f allocs/op\n",
			m.Name, m.Ops, m.EventsPerSec, m.NsPerOp, m.AllocsPerOp)
	}
	fmt.Printf("%-24s %21.0f events/s  %10.0f ns/op  %8.1f allocs/op\n",
		"TOTAL", rep.EventsPerSec, rep.NsPerOp, rep.AllocsPerOp)
	sum, err := perf.GuardParallelSpeedup(rep, minSpeedup)
	if sum != "" {
		fmt.Println(sum)
	}
	if err != nil {
		fail(err)
	}
	if *guard != "" {
		if err := perf.Guard(*guard, rep, guardRatio, guardAllocs); err != nil {
			fail(err)
		}
		return
	}

	f, err := perf.UpdateFile(*out, rep, *rebaseline)
	if err != nil {
		fail(err)
	}
	fmt.Printf("vs baseline: %.2fx events/s, %.2fx allocs/op\n",
		f.SpeedupEventsPerSec, f.AllocsPerOpRatio)
}
