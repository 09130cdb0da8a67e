// Package mon implements the cluster monitor: the authority over the
// OSDMap. It collects failure reports from OSDs, marks failed OSDs down in
// a new map epoch, and broadcasts map updates to all subscribed entities
// (OSDs and clients), providing the coordination backbone the paper's
// heartbeat traffic feeds.
package mon

import (
	"doceph/internal/cephmsg"
	"doceph/internal/messenger"
	"doceph/internal/osdmap"
	"doceph/internal/sim"
)

// ThreadCat is the accounting category for monitor work.
const ThreadCat = "mon"

// Config carries monitor tunables.
type Config struct {
	// MinReporters is the number of distinct OSDs that must report a peer
	// before it is marked down (Ceph's mon_osd_min_down_reporters).
	MinReporters int
}

// Monitor is a single-instance cluster monitor (quorum protocols are out of
// scope for the paper's experiments, which run one MON).
type Monitor struct {
	env  *sim.Env
	cpu  *sim.CPU
	msgr *messenger.Messenger
	cfg  Config
	th   *sim.Thread

	curMap      *osdmap.Map
	subscribers []string
	reports     map[int32]map[string]bool
	// upFrom records the epoch at which each OSD was last marked up, the
	// fence against failure reports whose silence evidence predates a
	// restart (Ceph's osd_info_t::up_from).
	upFrom map[int32]uint32

	epochBumps int
}

// New creates a monitor owning the initial map m and installs its
// dispatcher on msgr.
func New(env *sim.Env, cpu *sim.CPU, msgr *messenger.Messenger,
	m *osdmap.Map, cfg Config) *Monitor {
	if cfg.MinReporters == 0 {
		cfg.MinReporters = 1
	}
	mon := &Monitor{
		env: env, cpu: cpu, msgr: msgr, cfg: cfg,
		th:      sim.NewThread("mon", ThreadCat),
		curMap:  m,
		reports: make(map[int32]map[string]bool),
		upFrom:  make(map[int32]uint32),
	}
	msgr.SetDispatcher(mon.dispatch)
	return mon
}

// Map returns the current map epoch.
func (m *Monitor) Map() *osdmap.Map { return m.curMap }

// EpochBumps returns how many new epochs the monitor has published.
func (m *Monitor) EpochBumps() int { return m.epochBumps }

// Subscribe registers an entity to receive MOSDMap broadcasts.
func (m *Monitor) Subscribe(entity string) {
	m.subscribers = append(m.subscribers, entity)
}

// dispatch runs on a msgr-worker; the work a message costs the monitor is a
// Charge on that worker, and what follows it runs once it is paid.
func (m *Monitor) dispatch(_ *sim.Proc, src string, msg cephmsg.Message) {
	switch mm := msg.(type) {
	case *cephmsg.MOSDFailure:
		m.msgr.Charge(m.cpu, m.th, 20_000, func() { m.handleFailure(mm) })
	case *cephmsg.MOSDBoot:
		m.msgr.Charge(m.cpu, m.th, 20_000, func() { m.handleBoot(mm) })
	case *cephmsg.MPing:
		m.msgr.Send(src, &cephmsg.MPingReply{Src: m.msgr.Name(), Stamp: mm.Stamp})
	case *cephmsg.MGetMap:
		// On-demand refresh: a client whose op timed out may have missed
		// the broadcast that went down with the fault.
		if m.curMap.Epoch > mm.Epoch {
			m.msgr.Charge(m.cpu, m.th, 10_000, func() {
				m.msgr.Send(src, &cephmsg.MOSDMap{Epoch: m.curMap.Epoch, Up: m.curMap.UpOSDs()})
			})
		}
	}
}

func (m *Monitor) handleFailure(f *cephmsg.MOSDFailure) {
	if f.Epoch < m.upFrom[f.Failed] {
		// Stale report: the silence it describes predates the target's
		// last up transition. Without the fence, a report racing a
		// recovery (failure noticed at epoch e, target restarted and
		// marked up at e+1) would re-down the healthy daemon. The
		// reporter's ledger resets on the up transition, so a genuinely
		// dead peer gets re-reported with a fresh epoch after the next
		// grace window.
		return
	}
	if !m.curMap.IsUp(f.Failed) {
		return
	}
	if m.reports[f.Failed] == nil {
		m.reports[f.Failed] = make(map[string]bool)
	}
	m.reports[f.Failed][f.Reporter] = true
	if len(m.reports[f.Failed]) < m.cfg.MinReporters {
		return
	}
	next := m.curMap.Next()
	next.MarkDown(f.Failed)
	m.curMap = next
	m.epochBumps++
	delete(m.reports, f.Failed)
	m.broadcast()
}

// handleBoot processes a liveness announcement. A booting (or protesting)
// daemon is authoritative evidence of life, so it trumps any accumulated
// failure reports: the in-flight-report race — silence observed across a
// crash window is reported only after the daemon already restarted — would
// otherwise leave a healthy OSD down forever, since nothing later marks it
// up.
func (m *Monitor) handleBoot(b *cephmsg.MOSDBoot) {
	delete(m.reports, b.OSD)
	if m.curMap.IsUp(b.OSD) {
		return
	}
	m.MarkUp(b.OSD)
}

// MarkDown administratively removes an OSD from the map and publishes the
// new epoch — Ceph's `ceph osd down`, bypassing the heartbeat grace. Used
// by experiments that need a degraded map faster than failure detection
// can deliver one; fail the daemon itself first (osd.Fail) so it does not
// protest the mark with a boot message.
func (m *Monitor) MarkDown(id int32) {
	if !m.curMap.IsUp(id) {
		return
	}
	next := m.curMap.Next()
	next.MarkDown(id)
	m.curMap = next
	m.epochBumps++
	delete(m.reports, id)
	m.broadcast()
}

// MarkUp administratively restores an OSD and publishes a new epoch (used
// by recovery scenarios and tests).
func (m *Monitor) MarkUp(id int32) {
	next := m.curMap.Next()
	next.MarkUp(id)
	m.curMap = next
	m.upFrom[id] = next.Epoch
	m.epochBumps++
	m.broadcast()
}

func (m *Monitor) broadcast() {
	up := m.curMap.UpOSDs()
	for _, sub := range m.subscribers {
		m.msgr.Send(sub, &cephmsg.MOSDMap{Epoch: m.curMap.Epoch, Up: up})
	}
}
