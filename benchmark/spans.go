package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"doceph/internal/sim"
	"doceph/internal/trace"
)

// harnessSpan is one host-clock span the harness records around a call
// into the program. Spans of one repetition share its root's ID as Parent.
type harnessSpan struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanRecorder keeps harness spans in memory until the run ends. A nil
// recorder records nothing.
type spanRecorder struct {
	t0    time.Time
	spans []harnessSpan
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

func (r *spanRecorder) start(parent int, name string) int {
	if r == nil {
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, harnessSpan{ID: id, Parent: parent, Name: name,
		StartNs: time.Since(r.t0).Nanoseconds()})
	return id
}

func (r *spanRecorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].EndNs = time.Since(r.t0).Nanoseconds()
}

// selfTimes returns, per span ID, the span's latency minus the part of its
// interval that its child spans cover. Overlapping children count once and
// a child is clipped to its parent's interval.
func selfTimes(spans []trace.Span) map[trace.SpanID]sim.Duration {
	type interval struct{ start, end sim.Time }
	children := make(map[trace.SpanID][]interval)
	for i := range spans {
		if s := &spans[i]; s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	self := make(map[trace.SpanID]sim.Duration, len(spans))
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].start < kids[b].start })
		covered := sim.Duration(0)
		edge := s.Start // everything before edge is already accounted for
		for _, k := range kids {
			start, end := max(k.start, edge), min(k.end, s.End)
			if end > start {
				covered += end.Sub(start)
				edge = end
			}
		}
		self[s.ID] = s.Latency() - covered
	}
	return self
}

// stageSum is the per-stage fold of one traced repetition.
type stageSum struct {
	count                    int64
	cpu, latency, wait, self sim.Duration
}

// baseStage folds the per-queue DMA stages ("dma.q2", "batch.dma.q0") into
// their base stage.
func baseStage(stage string) string {
	if i := strings.LastIndex(stage, ".q"); i > 0 {
		return stage[:i]
	}
	return stage
}

// foldStages sums spans per base stage.
func foldStages(spans []trace.Span) map[string]*stageSum {
	self := selfTimes(spans)
	out := make(map[string]*stageSum)
	for i := range spans {
		s := &spans[i]
		stage := baseStage(s.Stage)
		st := out[stage]
		if st == nil {
			st = &stageSum{}
			out[stage] = st
		}
		st.count++
		st.cpu += s.CPU
		st.latency += s.Latency()
		st.wait += s.QueueWait
		st.self += self[s.ID]
	}
	return out
}

// traceValues turns the traced repetition's spans into the T rows, per
// measured op. untracedWallUs is the same-length untraced wall_us_per_op.
func traceValues(r *repResult, untracedWallUs float64) values {
	st := foldStages(r.spans)
	get := func(stage string) stageSum {
		if s := st[stage]; s != nil {
			return *s
		}
		return stageSum{}
	}
	n := float64(r.ops)
	perOp := func(d sim.Duration) float64 { return us(d) / n }

	send, wireSt, recv := get(trace.StageMsgrSend), get(trace.StageWire), get(trace.StageMsgrRecv)
	osdOp, repOp := get(trace.StageOSDOp), get(trace.StageRepOp)
	stage, bstage := get(trace.StageDMAStage), get(trace.StageBatchStage)
	dma, bdma := get(trace.StageDMA), get(trace.StageBatchDMA)
	chunks := get(trace.StageStreamStage)
	kv := get(trace.StageKV)

	v := values{
		"sim.link_lat_us_per_op":                 perOp(wireSt.latency),
		"messenger.send_cpu_us_per_op":           perOp(send.cpu),
		"messenger.recv_cpu_us_per_op":           perOp(recv.cpu),
		"messenger.queue_wait_us_per_op":         perOp(send.wait + wireSt.wait + recv.wait),
		"messenger.stream_window_wait_us_per_op": perOp(get(trace.StageStreamWindow).latency),
		"rados.op_self_us_per_op":                perOp(get(trace.StageOp).self),
		"osd.op_cpu_us_per_op":                   perOp(osdOp.cpu + repOp.cpu),
		"osd.op_queue_wait_us_per_op":            perOp(osdOp.wait + repOp.wait),
		"osd.replication_wait_us_per_op":         perOp(get(trace.StageReplication).latency),
		"osd.stream_stage_us_per_chunk":          ratio(us(chunks.latency), float64(chunks.count)),
		"bluestore.aio_cpu_us_per_op":            perOp(get(trace.StageAIO).cpu),
		"bluestore.kv_cpu_us_per_op":             perOp(kv.cpu),
		"bluestore.kv_queue_wait_us_per_op":      perOp(kv.wait),
		"trace.spans_per_op":                     float64(len(r.spans)) / n,
		"trace.overhead_pct":                     100 * (r.vals["wall_us_per_op"]/untracedWallUs - 1),
		"core.serialize_cpu_us_per_op":           na,
		"core.stage_cpu_us_per_op":               na,
		"core.dma_wait_us_per_op":                na,
		"core.host_commit_us_per_op":             na,
	}
	if r.bridges > 0 {
		v["core.serialize_cpu_us_per_op"] = perOp(get(trace.StageSerialize).cpu)
		v["core.stage_cpu_us_per_op"] = perOp(stage.cpu + bstage.cpu)
		// Waiting on the DMA path: for a staging buffer or batch slot, then
		// in flight on the engine (its queue wait plus the copy).
		v["core.dma_wait_us_per_op"] = perOp(stage.wait + bstage.wait + dma.latency + bdma.latency)
		v["core.host_commit_us_per_op"] = perOp(get(trace.StageHostCommit).cpu)
	}
	return v
}

// writeStageTable prints the per-stage sums of one traced repetition.
func writeStageTable(w io.Writer, r *repResult) {
	st := foldStages(r.spans)
	fmt.Fprintf(w, "  %-20s %9s %12s %12s %12s %12s   (virtual us per op, %d ops)\n",
		"stage", "spans/op", "cpu", "latency", "self", "queue-wait", r.ops)
	n := float64(r.ops)
	for _, row := range trace.Aggregate(r.spans) {
		stage := baseStage(row.Stage)
		s, ok := st[stage]
		if !ok {
			continue
		}
		delete(st, stage) // per-resource and per-queue rows of one stage print once
		fmt.Fprintf(w, "  %-20s %9.2f %12.2f %12.2f %12.2f %12.2f\n", stage,
			float64(s.count)/n, us(s.cpu)/n, us(s.latency)/n, us(s.self)/n, us(s.wait)/n)
	}
}
