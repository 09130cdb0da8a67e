// Package faultinject provides a deterministic, virtual-time-scheduled
// fault-injection framework for the simulated cluster. A Plan is a list of
// timed fault events (network degradation, storage faults, DPU faults, OSD
// crashes); an Injector binds the plan to concrete targets and replays it on
// the simulation clock. Because events fire at virtual times and every
// probabilistic fault draws from the environment's seeded RNG, a given
// (seed, plan) pair reproduces the exact same failure history on every run —
// which is what lets the chaos experiments compare Baseline and DoCeph under
// *identical* fault schedules and assert byte-identical results across runs.
package faultinject

import (
	"fmt"

	"doceph/internal/bluestore"
	"doceph/internal/doca"
	"doceph/internal/mon"
	"doceph/internal/osd"
	"doceph/internal/sim"
)

// Kind enumerates the fault classes the injector can apply.
type Kind int

// Fault kinds. Network faults (Drop, Latency, Bandwidth, Partition) act on
// the fabric NIC of Event.Node; storage faults (SlowIO, WriteError, BitRot)
// act on that node's BlueStore; DPU faults (DMAError, CommStall) act on that
// node's DMA engines / CommChannel; OSDCrash acts on Event.OSD.
const (
	// Drop adds Prob packet-loss probability to the node's NIC.
	Drop Kind = iota
	// Latency adds Extra one-way latency to the node's NIC.
	Latency
	// Bandwidth multiplies the node's NIC rate by Factor (0 < Factor < 1).
	Bandwidth
	// Partition places the node in partition group Group; nodes in
	// different nonzero groups cannot exchange frames.
	Partition
	// SlowIO adds Extra service latency to every BlueStore transaction.
	SlowIO
	// WriteError fails each BlueStore transaction with probability Prob.
	WriteError
	// BitRot flips payload bytes of up to Count stored objects on the
	// node, skipping objects for which the node's OSD is the PG primary —
	// so client reads stay clean while scrub must detect the damage on
	// the replica.
	BitRot
	// DMAError fails each DMA transfer with probability Prob.
	DMAError
	// CommStall adds Extra latency to every CommChannel negotiation.
	CommStall
	// OSDCrash fails the OSD for Duration, then restarts it; the daemon
	// announces its boot to the monitor, which marks it back up.
	OSDCrash
)

var kindNames = map[Kind]string{
	Drop: "drop", Latency: "latency", Bandwidth: "bandwidth",
	Partition: "partition", SlowIO: "slow_io", WriteError: "write_error",
	BitRot: "bit_rot", DMAError: "dma_error", CommStall: "comm_stall",
	OSDCrash: "osd_crash",
}

func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one timed fault. At is the virtual-time offset from Run;
// Duration is the fault window (faults with a window revert when it closes;
// zero makes degradations permanent for the rest of the run). The remaining
// fields parameterize the individual kinds, as documented on the constants.
type Event struct {
	At       sim.Duration
	Duration sim.Duration
	Kind     Kind
	Node     string
	OSD      int32
	Prob     float64
	Factor   float64
	Extra    sim.Duration
	Group    int
	Count    int
}

// Plan is a named, ordered fault schedule.
type Plan struct {
	Name   string
	Events []Event
}

// Add appends an event and returns the plan for chaining.
func (p *Plan) Add(e Event) *Plan {
	p.Events = append(p.Events, e)
	return p
}

// nodeScoped lists the kinds that act on a named node (everything except
// OSDCrash, which targets Event.OSD).
func nodeScoped(k Kind) bool { return k != OSDCrash }

// Validate checks the plan's structural invariants before anything is
// scheduled: event times and windows must not be negative, kinds must be
// known, node-scoped events need a target name, and each kind's parameters
// must be in range. A nil error means the plan is schedulable on any
// deployment (whether a given fault then binds to a live target is a
// per-deployment question — see Injector.Run).
func (p Plan) Validate() error {
	for i, ev := range p.Events {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("plan %q event %d (%s): %s",
				p.Name, i, ev.Kind, fmt.Sprintf(format, args...))
		}
		if _, known := kindNames[ev.Kind]; !known {
			return fmt.Errorf("plan %q event %d: unknown fault kind %d",
				p.Name, i, int(ev.Kind))
		}
		if ev.At < 0 {
			return fail("negative start offset %v", ev.At)
		}
		if ev.Duration < 0 {
			return fail("negative window %v", ev.Duration)
		}
		if nodeScoped(ev.Kind) && ev.Node == "" {
			return fail("missing target node")
		}
		switch ev.Kind {
		case Drop, WriteError, DMAError:
			if ev.Prob < 0 || ev.Prob > 1 {
				return fail("probability %v outside [0, 1]", ev.Prob)
			}
		case Bandwidth:
			if ev.Factor <= 0 || ev.Factor > 1 {
				return fail("bandwidth factor %v outside (0, 1]", ev.Factor)
			}
		case Latency, SlowIO, CommStall:
			if ev.Extra <= 0 {
				return fail("requires a positive Extra latency, got %v", ev.Extra)
			}
		case Partition:
			if ev.Group < 0 {
				return fail("negative partition group %d", ev.Group)
			}
		case BitRot:
			if ev.Count < 0 {
				return fail("negative object count %d", ev.Count)
			}
		case OSDCrash:
			if ev.OSD < 0 {
				return fail("negative OSD id %d", ev.OSD)
			}
			if ev.Duration == 0 {
				return fail("requires a restart window (zero Duration would crash forever)")
			}
		}
	}
	return nil
}

// Targets binds a plan's symbolic names to live simulation objects. Any nil
// or missing target simply makes the corresponding fault kinds no-ops (a
// Baseline cluster has no DMA engines, for example).
type Targets struct {
	Fabric *sim.Fabric
	// Stores maps fabric node name -> that node's BlueStore.
	Stores map[string]*bluestore.Store
	// StoreOSD maps fabric node name -> the OSD id resident on it (used by
	// BitRot to avoid corrupting primary copies).
	StoreOSD map[string]int32
	OSDs     map[int32]*osd.OSD
	Mon      *mon.Monitor
	// Engines maps node name -> that node's DMA engines (both directions).
	Engines map[string][]*doca.Engine
	// Channels maps node name -> that node's CommChannel.
	Channels map[string]*doca.CommChannel
}

// Injector replays fault plans against a target set.
type Injector struct {
	env   *sim.Env
	t     Targets
	stats Stats
}

// Stats is the injection ledger: Events counts applied events per kind,
// BitRotObjects the objects bit-rot events corrupted.
type Stats struct {
	Events        [OSDCrash + 1]int64
	BitRotObjects int64
}

// New creates an injector for the given environment and targets.
func New(env *sim.Env, t Targets) *Injector {
	return &Injector{env: env, t: t}
}

// Stats returns a copy of the injection ledger.
func (in *Injector) Stats() Stats { return in.stats }

// Run validates plan and schedules every event relative to the current
// virtual time. Each event runs on its own daemon process: it sleeps until
// Event.At, applies the fault, and — for windowed faults — sleeps
// Event.Duration and reverts it.
//
// Beyond Plan.Validate's structural checks, Run rejects events that name a
// target the bound deployment should have but does not: an unknown fabric
// node, or a node absent from a populated Stores/Engines/Channels/OSDs map.
// Events aimed at a subsystem this deployment lacks entirely (DMAError on a
// Baseline cluster, whose Engines map is empty) stay benign no-ops, so one
// plan still drives both deployments identically. Nothing is scheduled on
// error.
func (in *Injector) Run(plan Plan) error {
	if err := plan.Validate(); err != nil {
		return err
	}
	for i, ev := range plan.Events {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("plan %q event %d (%s): %s",
				plan.Name, i, ev.Kind, fmt.Sprintf(format, args...))
		}
		switch ev.Kind {
		case Drop, Latency, Bandwidth, Partition:
			if in.t.Fabric != nil && !in.t.Fabric.HasNode(ev.Node) {
				return fail("unknown fabric node %q", ev.Node)
			}
		case SlowIO, WriteError, BitRot:
			if len(in.t.Stores) > 0 && in.t.Stores[ev.Node] == nil {
				return fail("no store on node %q", ev.Node)
			}
		case DMAError:
			if len(in.t.Engines) > 0 && len(in.t.Engines[ev.Node]) == 0 {
				return fail("no DMA engines on node %q", ev.Node)
			}
		case CommStall:
			if len(in.t.Channels) > 0 && in.t.Channels[ev.Node] == nil {
				return fail("no comm channel on node %q", ev.Node)
			}
		case OSDCrash:
			if len(in.t.OSDs) > 0 && in.t.OSDs[ev.OSD] == nil {
				return fail("unknown OSD %d", ev.OSD)
			}
		}
	}
	for i := range plan.Events {
		ev := plan.Events[i]
		name := fmt.Sprintf("fault:%s/%d:%s", plan.Name, i, ev.Kind)
		in.env.SpawnDaemon(name, func(p *sim.Proc) {
			if ev.At > 0 {
				p.Wait(ev.At)
			}
			in.apply(p, ev)
		})
	}
	return nil
}

func (in *Injector) apply(p *sim.Proc, ev Event) {
	in.stats.Events[ev.Kind]++
	revert := func() {}
	switch ev.Kind {
	case Drop:
		if in.t.Fabric == nil {
			return
		}
		in.t.Fabric.SetDropProb(ev.Node, ev.Prob)
		revert = func() { in.t.Fabric.SetDropProb(ev.Node, 0) }
	case Latency:
		if in.t.Fabric == nil {
			return
		}
		in.t.Fabric.SetExtraLatency(ev.Node, ev.Extra)
		revert = func() { in.t.Fabric.SetExtraLatency(ev.Node, 0) }
	case Bandwidth:
		if in.t.Fabric == nil {
			return
		}
		in.t.Fabric.SetBandwidthFactor(ev.Node, ev.Factor)
		revert = func() { in.t.Fabric.SetBandwidthFactor(ev.Node, 0) }
	case Partition:
		if in.t.Fabric == nil {
			return
		}
		in.t.Fabric.SetPartitionGroup(ev.Node, ev.Group)
		revert = func() { in.t.Fabric.SetPartitionGroup(ev.Node, 0) }
	case SlowIO:
		st := in.t.Stores[ev.Node]
		if st == nil {
			return
		}
		st.SetSlowIO(ev.Extra)
		revert = func() { st.SetSlowIO(0) }
	case WriteError:
		st := in.t.Stores[ev.Node]
		if st == nil {
			return
		}
		st.SetWriteErrorProb(ev.Prob)
		revert = func() { st.SetWriteErrorProb(0) }
	case BitRot:
		in.bitRot(ev)
		return // instantaneous, nothing to revert
	case DMAError:
		engs := in.t.Engines[ev.Node]
		if len(engs) == 0 {
			return
		}
		for _, e := range engs {
			e.SetFailProb(ev.Prob)
		}
		revert = func() {
			for _, e := range engs {
				e.SetFailProb(0)
			}
		}
	case CommStall:
		cc := in.t.Channels[ev.Node]
		if cc == nil {
			return
		}
		cc.SetStall(ev.Extra)
		revert = func() { cc.SetStall(0) }
	case OSDCrash:
		o := in.t.OSDs[ev.OSD]
		if o == nil {
			return
		}
		o.Fail()
		revert = func() {
			// Recover announces the restart to the monitor (MOSDBoot),
			// which re-ups the daemon if it was marked down. MarkUp here
			// is only a fallback for OSDs with no monitor configured.
			o.Recover()
			if in.t.Mon != nil && !in.t.Mon.Map().IsUp(ev.OSD) {
				in.t.Mon.MarkUp(ev.OSD)
			}
		}
		// A crash with no window would leave the cluster permanently
		// degraded; treat it as crash-and-restart with a minimal outage.
		if ev.Duration <= 0 {
			ev.Duration = sim.Second
		}
	}
	if ev.Duration > 0 {
		p.Wait(ev.Duration)
		revert()
	}
}

// bitRot corrupts up to ev.Count replica-held objects on ev.Node's store.
// Candidates come from the store's sorted object listing, so the picks are
// deterministic; objects whose PG primary is the resident OSD are skipped so
// reads served by the primary remain clean and scrub is what must find the
// damage.
func (in *Injector) bitRot(ev Event) {
	st := in.t.Stores[ev.Node]
	if st == nil {
		return
	}
	count := ev.Count
	if count <= 0 {
		count = 1
	}
	resident, haveOSD := in.t.StoreOSD[ev.Node]
	var o *osd.OSD
	if haveOSD {
		o = in.t.OSDs[resident]
	}
	for _, obj := range st.DataObjects() {
		if count == 0 {
			break
		}
		var pg uint32
		if n, err := fmt.Sscanf(obj.Collection, "pg.%d", &pg); err != nil || n != 1 {
			continue
		}
		if o != nil && o.Map().Primary(pg) == resident {
			continue
		}
		if err := st.CorruptObject(obj.Collection, obj.Object); err == nil {
			in.stats.BitRotObjects++
			count--
		}
	}
}
