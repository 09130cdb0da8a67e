package doceph

import (
	"fmt"
	"os"

	"doceph/internal/report"
	"doceph/internal/trace"
)

// runTrace runs one traced 4 MB write cell per deployment and renders the
// per-stage breakdowns plus traced CPU per processor side by side — the
// host->DPU shift the paper measures, derived bottom-up from op spans instead
// of thread accounting. The runner has checked each cell's spans (nesting and
// CPU conservation). With o.TraceOut set it also writes each run's Chrome
// trace_event JSON (open in chrome://tracing or https://ui.perfetto.dev).
func runTrace(o Options) ([]*report.Table, error) {
	const size = 4 << 20
	tracing := func(c *ClusterConfig) { c.Trace = true }
	rs, err := runCells(o, []cell{
		{name: Baseline.String(), mode: Baseline, size: size, mut: tracing},
		{name: DoCeph.String(), mode: DoCeph, size: size, mut: tracing},
	})
	if err != nil {
		return nil, err
	}
	cpu := &report.Table{
		Title:  fmt.Sprintf("Tracing: traced CPU by processor (%s writes)", report.MB(size)),
		Header: []string{"deployment", "resource", "traced cpu (s)", "share"},
		Notes:  []string{"DoCeph moves messenger/OSD cycles from host-* to bf3-*-arm; the host keeps BlueStore + the RPC/DMA server"},
	}
	var tables []*report.Table
	for _, r := range rs {
		tables = append(tables, report.StageTable(fmt.Sprintf(
			"Tracing: per-stage breakdown, %s (%s writes)", r.name, report.MB(size)),
			trace.Aggregate(r.spans)))
		for _, row := range report.CPUAttributionRows(trace.CPUByResource(r.spans)) {
			cpu.AddRow(append([]string{r.name}, row...)...)
		}
		if o.TraceOut != "" {
			path := fmt.Sprintf("%s-%s.json", o.TraceOut, r.name)
			if err := os.WriteFile(path, trace.ChromeTrace(r.spans), 0o644); err != nil {
				return nil, err
			}
		}
	}
	return append(tables, cpu), nil
}
