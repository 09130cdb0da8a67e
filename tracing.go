package doceph

import (
	"fmt"
	"os"

	"doceph/internal/report"
	"doceph/internal/trace"
)

// runTrace runs one traced 4 MB write benchmark per deployment and renders
// the per-stage breakdowns plus traced CPU per processor side by side — the
// host->DPU shift the paper measures, derived bottom-up from op spans instead
// of thread accounting. With o.TraceOut set it also writes each run's Chrome
// trace_event JSON (open in chrome://tracing or https://ui.perfetto.dev).
func runTrace(o Options) ([]*report.Table, error) {
	const size = 4 << 20
	cpu := &report.Table{
		Title:  fmt.Sprintf("Tracing: traced CPU by processor (%s writes)", report.MB(size)),
		Header: []string{"deployment", "resource", "traced cpu (s)", "share"},
		Notes:  []string{"DoCeph moves messenger/OSD cycles from host-* to bf3-*-arm; the host keeps BlueStore + the RPC/DMA server"},
	}
	var tables []*report.Table
	for _, mode := range []Mode{Baseline, DoCeph} {
		spans, err := runTraced(mode, size, o)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", mode, err)
		}
		tables = append(tables, report.StageTable(fmt.Sprintf(
			"Tracing: per-stage breakdown, %s (%s writes)", mode, report.MB(size)),
			trace.Aggregate(spans)))
		for _, row := range report.CPUAttributionRows(trace.CPUByResource(spans)) {
			cpu.AddRow(append([]string{mode.String()}, row...)...)
		}
		if o.TraceOut != "" {
			path := fmt.Sprintf("%s-%s.json", o.TraceOut, mode)
			if err := os.WriteFile(path, trace.ChromeTrace(spans), 0o644); err != nil {
				return nil, err
			}
		}
	}
	return append(tables, cpu), nil
}

// runTraced builds a traced cluster, runs one write benchmark and checks the
// span set before returning it: spans must nest inside their parents in
// virtual time, and traced CPU must not exceed each processor's accounted
// busy time (background daemons are untraced).
func runTraced(mode Mode, size int64, o Options) ([]trace.Span, error) {
	cl := NewCluster(ClusterConfig{Mode: mode, Seed: o.Seed, Trace: true})
	defer cl.Shutdown()
	if _, err := RunBench(cl, BenchConfig{
		Threads: o.Threads, ObjectBytes: size,
		Duration: o.Duration, Warmup: o.Warmup,
	}); err != nil {
		return nil, err
	}
	spans := cl.Tracer.Spans()
	busy := map[string]Duration{cl.ClientCPU.Name(): cl.ClientCPU.Stats().TotalBusy}
	for _, n := range cl.Nodes {
		busy[n.HostCPU.Name()] = n.HostCPU.Stats().TotalBusy
		if n.DPU != nil {
			busy[n.DPU.CPU.Name()] = n.DPU.CPU.Stats().TotalBusy
		}
	}
	if err := trace.CheckInvariants(spans); err != nil {
		return nil, fmt.Errorf("trace invariants: %w", err)
	}
	if err := trace.CheckCPUConservation(spans, busy); err != nil {
		return nil, fmt.Errorf("trace cpu conservation: %w", err)
	}
	return spans, nil
}
