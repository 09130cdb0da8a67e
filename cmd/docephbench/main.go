// Command docephbench regenerates the tables and figures of the paper's
// evaluation section, and the repo's extension experiments, from the
// simulation. Every experiment is one entry of the registry in the root
// package; `docephbench -exp list` prints them, `-exp all` (the default)
// runs the paper's own, `-exp smoke` runs every entry at its shortest honest
// window, and any entry or table name (`-exp sweep`, `-exp fig7`) runs alone.
//
// By default runs follow the paper's methodology (60 s measured windows);
// -quick shortens them (8 s) while preserving the shapes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"doceph"
)

func main() {
	exp := flag.String("exp", "all", "all (the paper's tables), smoke (every experiment, shortest window), list, or one of: "+
		strings.Join(doceph.ExperimentNames(), ", "))
	quick := flag.Bool("quick", false, "short runs (8s window) instead of the paper's 60s")
	seconds := flag.Int("seconds", 0, "override the measured window length in seconds")
	threads := flag.Int("threads", 0, "closed-loop bench clients (0 = the window's default: 16, smoke 4)")
	seed := flag.Int64("seed", 42, "simulation seed")
	simWorkers := flag.String("sim-workers", "", "scaleout/scaleout128: comma-separated kernel worker counts to compare (default 1,2,4,8)")
	traceOut := flag.String("trace-out", "", "trace: write Chrome trace_event JSON to <prefix>-baseline.json and <prefix>-doceph.json")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "docephbench:", err)
		os.Exit(1)
	}
	if strings.EqualFold(*exp, "list") {
		fmt.Print(doceph.ExperimentList())
		return
	}
	selected, err := doceph.Select(*exp)
	if err != nil {
		fail(err)
	}

	set := doceph.Options{
		Duration: doceph.Duration(*seconds) * doceph.Second,
		Threads:  *threads,
		Seed:     *seed,
		TraceOut: *traceOut,
	}
	if *simWorkers != "" {
		if set.Workers, err = doceph.ParseWorkers(*simWorkers); err != nil {
			fail(err)
		}
	}
	window := doceph.Full
	if *quick {
		window = doceph.Quick
	}
	if strings.EqualFold(*exp, "smoke") {
		window = doceph.Smoke
	}

	for _, s := range selected {
		fmt.Printf("running %s: %s...\n", s.Name, s.Doc)
		tables, err := s.Run(window, set)
		if err != nil {
			fail(err)
		}
		for _, t := range tables {
			fmt.Println(t)
		}
	}
}
