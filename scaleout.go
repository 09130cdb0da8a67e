package doceph

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"doceph/internal/cluster"
	"doceph/internal/radosbench"
	"doceph/internal/report"
	"doceph/internal/sim"
)

// The scale-out experiments run multi-rack clusters on the conservative
// parallel event kernel: one partition per rack plus a coordinator. Both
// compare kernel worker counts, and both hold the kernel to its core
// contract — determinism regardless of parallelism.

// sweepRun is one kernel worker count of a worker sweep.
type sweepRun struct {
	workers int
	res     cluster.ScaleOutResult
	imb     cluster.Imbalance
	// wall is the host time of the simulation proper, the one figure that
	// may move with the worker count.
	wall time.Duration
	// efficiency and kernel are the kernel's own account of the run: the
	// share of workers x wall its workers spent inside partition windows, and
	// the partitions' counters — shown as switches per event fired (2 when every
	// event resumes a parked proc from the scheduler, 0 when procs and tasks
	// consume them in place), coroutines made and served-queue identities.
	efficiency float64
	kernel     sim.EnvStats
}

func (r sweepRun) wallMs() string { return fmt.Sprintf("%.1f", float64(r.wall)/1e6) }

func (r sweepRun) eventsPerSec() float64 { return float64(r.res.Events) / r.wall.Seconds() }

func (r sweepRun) mbps(window Duration) float64 {
	return float64(r.res.TotalBytes) / 1e6 / window.Seconds()
}

// sweepWorkers runs cfg once per kernel worker count and fails unless the
// full result — every counter and, when collected, every imbalance array and
// queue-depth sample — marshals to the same bytes at each count. A drift is
// an error, not a table footnote; only the wall clock may move. A run the
// configuration's knobs did not reach is an error too: it would measure
// independent serial racks, or the legacy stride, under a scale-out name.
func sweepWorkers(cfg cluster.ScaleOutConfig, workers []int) ([]sweepRun, error) {
	var out []sweepRun
	var first []byte
	for _, w := range workers {
		so := cluster.NewScaleOut(cfg)
		start := time.Now()
		res, err := so.Run(w)
		wall := time.Since(start)
		st := so.Group.Stats()
		so.Shutdown()
		if err != nil {
			return nil, fmt.Errorf("workers=%d: %w", w, err)
		}
		fp, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = fp
		} else if !bytes.Equal(fp, first) {
			return nil, fmt.Errorf("determinism violation: workers=%d result differs from workers=%d",
				w, workers[0])
		}
		// The imbalance arrays are the evidence: without CollectImbalance the
		// workload knobs go unchecked.
		imb := cluster.ComputeImbalance(res)
		switch {
		case res.Delivered == 0:
			return nil, fmt.Errorf("not engaged: no cross-partition messages delivered")
		case cfg.CollectImbalance && imb.MaxMeanOSDShare == 0:
			return nil, fmt.Errorf("not engaged: no per-OSD ops collected")
		case cfg.CollectImbalance && cfg.BalanceReads && imb.BalancedReadShare == 0:
			return nil, fmt.Errorf("not engaged: balance-reads on but no read went to a secondary")
		}
		out = append(out, sweepRun{w, res, imb, wall, st.Efficiency(), st.Kernel})
	}
	return out, nil
}

// scaleOut32 is the 32-OSD scenario: the assembly's defaults (8 racks x 4
// OSDs, 4 clients per rack writing 256 KiB objects).
func scaleOut32(o Options) cluster.ScaleOutConfig {
	return cluster.ScaleOutConfig{Mode: DoCeph, Seed: o.Seed, Duration: o.Duration, Warmup: o.Warmup}
}

// scaleOut128 is the 128-OSD scenario: 16 racks x 8 OSDs, 2 clients per rack,
// 64 KiB ops, 70% reads drawn from a catalog under the given popularity.
func scaleOut128(o Options, kind radosbench.PopKind, balance bool) cluster.ScaleOutConfig {
	return cluster.ScaleOutConfig{
		Pods: 16, OSDsPerPod: 8, Mode: DoCeph, Seed: o.Seed,
		Threads: 2, ObjectBytes: 64 << 10, ReadPercent: 70,
		Duration: o.Duration, Warmup: o.Warmup,
		Popularity:       radosbench.Popularity{Kind: kind},
		BalanceReads:     balance,
		CollectImbalance: true,
	}
}

// runScaleOut is the 32-OSD scenario, once per worker count, comparing
// wall-clock event throughput.
func runScaleOut(o Options) ([]*report.Table, error) {
	runs, err := sweepWorkers(scaleOut32(o), o.Workers)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title: "Extension: partitioned parallel kernel, multi-rack scale-out",
		Header: []string{"kernel workers", "ops", "sim MB/s", "epochs",
			"xpart msgs", "wall ms", "efficiency", "barrier rounds", "events/s", "speedup"},
		Notes: []string{
			"simulated columns are bit-identical across worker counts (enforced); only wall clock moves",
			"wall-clock speedup is bounded by physical cores; see DESIGN.md on the partitioned kernel",
		},
	}
	for _, r := range runs {
		t.AddRow(fmt.Sprint(r.workers), fmt.Sprint(r.res.TotalOps), report.F2(r.mbps(o.Duration)),
			fmt.Sprint(r.res.Epochs), fmt.Sprint(r.res.Delivered),
			r.wallMs(), report.F2(r.efficiency), fmt.Sprint(r.res.Rounds), fmt.Sprintf("%.0f", r.eventsPerSec()),
			report.F2(r.eventsPerSec()/runs[0].eventsPerSec()))
	}
	return []*report.Table{t}, nil
}

// runScaleOut128 is the 128-OSD scenario: uniform vs Zipf vs hotspot
// popularity with balance-reads off and on, at the first worker count; the
// Zipf+balance arm is the one re-run at every further worker count.
func runScaleOut128(o Options) ([]*report.Table, error) {
	t := &report.Table{
		Title: "Extension: 128-OSD multi-rack CRUSH cluster, popularity x balance-reads",
		Header: []string{"workload", "balance", "workers", "ops", "sim MB/s",
			"osd max/mean", "pg max/mean", "qd p99:p50", "hot-read share", "balanced", "wall ms", "efficiency", "switches/event", "coroutines", "identities"},
		Notes: []string{
			"16 racks x 8 OSDs; catalog homed by rack-aware CRUSH (failure domain = rack); reads 70%",
			"extra worker rows re-run the zipf+balance arm; full results are byte-identical across counts (enforced)",
		},
	}
	var extra [][]string
	for _, kind := range []radosbench.PopKind{radosbench.PopUniform, radosbench.PopZipf, radosbench.PopHotspot} {
		for _, balance := range []bool{false, true} {
			workers, onOff := o.Workers[:1], "off"
			if balance {
				onOff = "on"
				if kind == radosbench.PopZipf {
					workers = o.Workers
				}
			}
			runs, err := sweepWorkers(scaleOut128(o, kind, balance), workers)
			if err != nil {
				return nil, fmt.Errorf("%s balance=%v: %w", kind, balance, err)
			}
			for i, r := range runs {
				row := []string{kind.String(), onOff, fmt.Sprint(r.workers), fmt.Sprint(r.res.TotalOps),
					report.F2(r.mbps(o.Duration)), report.F2(r.imb.MaxMeanOSDShare), report.F2(r.imb.MaxMeanPGShare),
					report.F2(r.imb.QueueDepthP99P50), fmt.Sprintf("%.3f", r.imb.HotReadShare),
					fmt.Sprintf("%.3f", r.imb.BalancedReadShare), r.wallMs(), report.F2(r.efficiency),
					report.F2(float64(r.kernel.Switches) / float64(r.kernel.Events)),
					fmt.Sprint(r.kernel.CoroutinesPeak), fmt.Sprint(r.kernel.Identities)}
				if i == 0 {
					t.AddRow(row...)
				} else {
					extra = append(extra, row)
				}
			}
		}
	}
	t.Rows = append(t.Rows, extra...)
	return []*report.Table{t}, nil
}
