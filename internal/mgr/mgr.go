// Package mgr implements the Manager daemon (paper §2.1): it polls every
// OSD for runtime statistics on a fixed cadence, keeps the latest snapshot
// and a small history per counter, and renders the dashboard-style cluster
// report real Ceph's MGR modules expose. Its polling traffic rides the
// messenger like everything else — on the DPU in DoCeph mode.
package mgr

import (
	"fmt"
	"sort"
	"strings"

	"doceph/internal/cephmsg"
	"doceph/internal/messenger"
	"doceph/internal/osdmap"
	"doceph/internal/sim"
)

// ThreadCat is the accounting category for manager work.
const ThreadCat = "mgr"

// Config carries manager tunables.
type Config struct {
	// PollInterval spaces statistics polls (Ceph default: a few seconds).
	PollInterval sim.Duration
	// HistoryDepth bounds the per-counter sample history.
	HistoryDepth int
}

// Snapshot is one daemon's most recent counter report.
type Snapshot struct {
	Source string
	At     sim.Time
	Values map[string]int64
}

// Manager is a single MGR instance.
type Manager struct {
	env  *sim.Env
	cpu  *sim.CPU
	msgr *messenger.Messenger
	cfg  Config
	th   *sim.Thread

	targets []string
	nextTid uint64

	latest  map[string]*Snapshot
	history map[string][]Snapshot

	polls   int64
	replies int64
}

// New creates a manager polling the given OSD entity names.
func New(env *sim.Env, cpu *sim.CPU, msgr *messenger.Messenger,
	targets []string, cfg Config) *Manager {
	if cfg.PollInterval == 0 {
		cfg.PollInterval = 5 * sim.Second
	}
	if cfg.HistoryDepth == 0 {
		cfg.HistoryDepth = 64
	}
	m := &Manager{
		env: env, cpu: cpu, msgr: msgr, cfg: cfg,
		th:      sim.NewThread("mgr", ThreadCat),
		targets: append([]string(nil), targets...),
		latest:  make(map[string]*Snapshot),
		history: make(map[string][]Snapshot),
	}
	msgr.SetDispatcher(m.dispatch)
	env.SpawnDaemon("mgr-poll", func(p *sim.Proc) { m.pollLoop(p) })
	return m
}

// Polls returns how many poll rounds have been issued.
func (m *Manager) Polls() int64 { return m.polls }

// Replies returns how many reports have been received.
func (m *Manager) Replies() int64 { return m.replies }

// Latest returns the most recent snapshot from source, or nil.
func (m *Manager) Latest(source string) *Snapshot { return m.latest[source] }

// History returns up to HistoryDepth snapshots for source, oldest first.
func (m *Manager) History(source string) []Snapshot { return m.history[source] }

// ClusterTotal sums the latest value of key across all reporting daemons.
func (m *Manager) ClusterTotal(key string) int64 {
	var sum int64
	for _, s := range m.latest {
		sum += s.Values[key]
	}
	return sum
}

// Stale reports whether source has not reported within maxAge of now.
func (m *Manager) Stale(source string, now sim.Time, maxAge sim.Duration) bool {
	s := m.latest[source]
	return s == nil || now.Sub(s.At) > maxAge
}

// Rate returns the per-second rate of key for source over its last two
// snapshots (0 until two samples exist).
func (m *Manager) Rate(source, key string) float64 {
	h := m.history[source]
	if len(h) < 2 {
		return 0
	}
	a, b := h[len(h)-2], h[len(h)-1]
	dt := b.At.Sub(a.At).Seconds()
	if dt <= 0 {
		return 0
	}
	return float64(b.Values[key]-a.Values[key]) / dt
}

func (m *Manager) pollLoop(p *sim.Proc) {
	p.SetThread(m.th)
	for {
		p.Wait(m.cfg.PollInterval)
		m.cpu.Exec(p, m.th, 20_000)
		m.polls++
		for _, t := range m.targets {
			m.nextTid++
			m.msgr.Send(t, &cephmsg.MGetStats{Tid: m.nextTid})
		}
	}
}

// dispatch runs on a msgr-worker: a stats reply is recorded once its cost, a
// Charge on that worker, is paid.
func (m *Manager) dispatch(_ *sim.Proc, src string, msg cephmsg.Message) {
	if sr, ok := msg.(*cephmsg.MStatsReply); ok {
		m.msgr.Charge(m.cpu, m.th, 10_000, func() { m.record(sr) })
	}
}

// record keeps sr as its source's latest snapshot and appends it to the
// history.
func (m *Manager) record(sr *cephmsg.MStatsReply) {
	m.replies++
	snap := &Snapshot{Source: sr.Source, At: m.env.Now(), Values: make(map[string]int64, len(sr.Keys))}
	for i := range sr.Keys {
		snap.Values[sr.Keys[i]] = sr.Values[i]
	}
	m.latest[sr.Source] = snap
	h := append(m.history[sr.Source], *snap)
	if len(h) > m.cfg.HistoryDepth {
		h = h[len(h)-m.cfg.HistoryDepth:]
	}
	m.history[sr.Source] = h
}

// Health grades the cluster from a map: OK when every PG has its full
// replica count on up OSDs, WARN when some PGs are degraded (serving with
// fewer replicas), ERR when any PG has no up OSD at all (Ceph's
// HEALTH_OK/WARN/ERR taxonomy).
type Health struct {
	Grade       string
	TotalPGs    int
	DegradedPGs int
	UnservedPGs int
	DownOSDs    int
	ScrubErrors int64
}

// AssessHealth evaluates m (typically the monitor's current map) together
// with the latest daemon reports.
func (mg *Manager) AssessHealth(m *osdmap.Map) Health {
	h := Health{Grade: "HEALTH_OK", TotalPGs: int(m.PGCount)}
	for pg := uint32(0); pg < m.PGCount; pg++ {
		acting := m.ActingSet(pg)
		switch {
		case len(acting) == 0:
			h.UnservedPGs++
		case len(acting) < m.Replicas:
			h.DegradedPGs++
		}
	}
	for _, dev := range m.Crush.Devices() {
		if !m.IsUp(int32(dev)) {
			h.DownOSDs++
		}
	}
	h.ScrubErrors = mg.ClusterTotal("scrub_errors")
	switch {
	case h.UnservedPGs > 0:
		h.Grade = "HEALTH_ERR"
	case h.DegradedPGs > 0 || h.DownOSDs > 0 || h.ScrubErrors > 0:
		h.Grade = "HEALTH_WARN"
	}
	return h
}

func (h Health) String() string {
	s := h.Grade
	if h.DownOSDs > 0 {
		s += fmt.Sprintf("; %d OSD(s) down", h.DownOSDs)
	}
	if h.DegradedPGs > 0 {
		s += fmt.Sprintf("; %d/%d PGs degraded", h.DegradedPGs, h.TotalPGs)
	}
	if h.UnservedPGs > 0 {
		s += fmt.Sprintf("; %d PGs unserved", h.UnservedPGs)
	}
	if h.ScrubErrors > 0 {
		s += fmt.Sprintf("; %d scrub errors found", h.ScrubErrors)
	}
	return s
}

// Report renders a cluster status summary from the latest snapshots.
func (m *Manager) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster status (%d daemons reporting)\n", len(m.latest))
	sources := make([]string, 0, len(m.latest))
	for s := range m.latest {
		sources = append(sources, s)
	}
	sort.Strings(sources)
	for _, src := range sources {
		s := m.latest[src]
		fmt.Fprintf(&b, "  %-8s epoch %d  writes %d  reads %d  rep-ops %d  recovered %d  scrub-errs %d\n",
			src, s.Values["map_epoch"], s.Values["client_writes"], s.Values["client_reads"],
			s.Values["rep_ops"], s.Values["objects_recovered"], s.Values["scrub_errors"])
	}
	fmt.Fprintf(&b, "  totals: %d writes, %.1f MB written, %d scrub errors\n",
		m.ClusterTotal("client_writes"),
		float64(m.ClusterTotal("bytes_written"))/1e6,
		m.ClusterTotal("scrub_errors"))
	return b.String()
}
