package doceph

import (
	"fmt"

	"doceph/internal/dpu"
	"doceph/internal/faultinject"
	"doceph/internal/radosbench"
	"doceph/internal/report"
	"doceph/internal/sim"
)

// Fault experiments: both deployments run the same closed-loop write/verify
// workload while an identical seeded fault plan degrades them. Chaos throws
// the mixed plan (network, storage backend, DPU data path, an OSD crash) at
// the robustness machinery — messenger session resets, client timeout/resend,
// replication retry/abort, scrub repair. Selfheal drives a compound failure —
// an OSD crash, then a sustained DPU DMA fault — through the circuit breaker,
// min_size degraded writes and recovery QoS. Everything runs on virtual time
// from one seed, so a (seed, plan) pair reproduces bit-identical results
// (asserted by TestChaosDeterminism / TestSelfHealDeterminism).

// verifyEvery makes each worker read back one of its own objects after every
// verifyEvery writes (inline integrity checking under faults).
const verifyEvery = 4

// DefaultChaosPlan builds the standard mixed fault schedule, with windows
// placed at fixed fractions of d so the same shape works for quick and full
// runs. The last ~16% of the run is fault-free, giving the recovery-time
// measurement a clean tail. Bit-rot and the OSD crash both target node1 /
// osd.1, so corrupted replica copies are never promoted to serving reads —
// scrub, not luck, is what restores redundancy.
func DefaultChaosPlan(d Duration) faultinject.Plan {
	frac := func(f float64) Duration { return Duration(float64(d) * f) }
	return faultinject.Plan{Name: "default-chaos", Events: []faultinject.Event{
		{At: frac(0.10), Duration: frac(0.15), Kind: faultinject.Drop, Node: "node1", Prob: 0.05},
		{At: frac(0.15), Duration: frac(0.10), Kind: faultinject.Latency, Node: "node0", Extra: 2 * sim.Millisecond},
		{At: frac(0.30), Duration: frac(0.15), Kind: faultinject.OSDCrash, OSD: 1},
		{At: frac(0.50), Duration: frac(0.10), Kind: faultinject.SlowIO, Node: "node0", Extra: 3 * sim.Millisecond},
		{At: frac(0.62), Duration: frac(0.08), Kind: faultinject.WriteError, Node: "node0", Prob: 0.02},
		{At: frac(0.72), Kind: faultinject.BitRot, Node: "node1", Count: 5},
		{At: frac(0.76), Duration: frac(0.08), Kind: faultinject.DMAError, Node: "node0", Prob: 0.2},
		{At: frac(0.76), Duration: frac(0.08), Kind: faultinject.CommStall, Node: "node1", Extra: sim.Millisecond},
	}}
}

// SelfHealPlan is the compound failure schedule: an OSD crash-and-restart
// early (degraded writes once the heartbeat grace expires and the monitor
// publishes the failure, then recovery on rejoin), and a sustained total DMA
// fault on node0 later (the breaker must open, fail traffic over to the host
// path, and re-enroll once the window closes). The crash window must
// comfortably exceed the 5 s heartbeat grace or the failure is never
// detected; the final ~25% of the run is fault-free so the breaker can walk
// open -> half-open -> closed and the backfill can proceed under QoS.
func SelfHealPlan(d Duration) faultinject.Plan {
	frac := func(f float64) Duration { return Duration(float64(d) * f) }
	return faultinject.Plan{Name: "selfheal", Events: []faultinject.Event{
		{At: frac(0.10), Duration: frac(0.35), Kind: faultinject.OSDCrash, OSD: 1},
		{At: frac(0.55), Duration: frac(0.20), Kind: faultinject.DMAError, Node: "node0", Prob: 1.0},
	}}
}

// selfHealFloor is the shortest selfheal run that exercises the whole arc:
// below it the plan's crash window never outlasts the 5 s heartbeat grace.
const selfHealFloor = 30 * Second

// FaultRun is one deployment's behaviour under a fault plan.
type FaultRun struct {
	Mode string

	// Workload outcome: every op either succeeded (possibly after client
	// retries) or returned a typed error within its deadline — never hung.
	Ops    int64
	Errors int64
	// Integrity: reads verified against the writer's CRC32C, inline during
	// the faults plus a full post-run pass over every surviving object.
	IntegrityChecked, IntegrityOK int64

	// Client robustness counters.
	Retries, Timeouts, StaleReplies, MapRefreshes int64
	// Messenger/fabric counters (summed over all messengers).
	SessionResets, DroppedFrames int64
	// OSD replication watchdog counters, then the scrub outcome.
	RepRetries, RepAborts     int64
	ScrubErrors, ScrubRepairs int64
	// Injected-fault ledger.
	InjectedEvents, BitRotObjects, InjectedWriteErrors, DMAErrors int64

	// Degraded-write machinery (min_size gate) and recovery QoS.
	DegradedWrites, NoQuorumRejects, DegradedPGsHealed               int64
	ObjectsRecovered, PGsBackfilled, RecoveryBytes, RecoveryBackoffs int64
	RecoveryThrottle                                                 Duration

	// Circuit breaker (all-node sums; zero on Baseline, which has no DPU).
	BreakerOpens, BreakerHalfOpens, BreakerCloses, ProbeSuccesses int64
	// FallbackTxns counts transactions the proxy shipped over the host RPC
	// path; DataPlaneTxns went over DMA.
	FallbackTxns, DataPlaneTxns int64
	// BreakerFinal is node0's breaker state at run end ("" without one).
	BreakerFinal string

	// MBps is the per-second write throughput; CleanMBps averages the
	// seconds outside every fault window; DipPct is the worst in-window
	// second relative to it (100 = no dip, 0 = full stall); RecoverySeconds
	// is how long after the last window closed throughput first reached 80%
	// of CleanMBps again (-1 = never).
	MBps            []float64
	CleanMBps       float64
	DipPct          float64
	RecoverySeconds float64
}

// FaultComparison holds both deployments under the identical plan.
type FaultComparison struct {
	PlanName string
	Seed     int64
	Baseline FaultRun
	DoCeph   FaultRun
}

// compareFaulted runs the workload on both deployments. The two runs use
// separate clusters built from the same seed, so they experience the
// identical fault schedule.
func compareFaulted(kind string, o Options, plan faultinject.Plan, config func(Mode) ClusterConfig,
	settle func(*sim.Proc, *Cluster)) (FaultComparison, error) {
	out := FaultComparison{PlanName: plan.Name, Seed: o.Seed}
	for _, m := range []struct {
		mode Mode
		dst  *FaultRun
	}{{Baseline, &out.Baseline}, {DoCeph, &out.DoCeph}} {
		r, err := runFaulted(kind, config(m.mode), plan, o, settle)
		if err != nil {
			return out, fmt.Errorf("%s %v: %w", kind, m.mode, err)
		}
		*m.dst = r
	}
	return out, nil
}

// RunChaos executes the chaos workload on both deployments under
// DefaultChaosPlan.
func RunChaos(o Options) (FaultComparison, error) {
	o = o.withDefaults()
	return compareFaulted("chaos", o, DefaultChaosPlan(o.Duration),
		func(mode Mode) ClusterConfig { return ClusterConfig{Mode: mode, Seed: o.Seed} },
		// Post-run: scrub every PG, repairing the injected bit-rot.
		func(p *sim.Proc, cl *Cluster) {
			var scrubs []*sim.Event
			for _, n := range cl.Nodes {
				scrubs = append(scrubs, n.OSD.ScrubNow())
			}
			for _, ev := range scrubs {
				ev.Wait(p)
			}
		})
}

// selfHealConfig is the selfheal testbed: a min_size floor of 1 (a PG keeps
// accepting degraded writes down to a single surviving replica), and, when
// switched on, the recovery QoS knobs (2 backfill reservations, a 64 MB/s
// budget — ~1/8 disk — and a backoff depth of 4 per OSD) and the DPU circuit
// breaker with its clock scaled to the run so the re-enroll arc (open timeout
// + CloseProbes probes) completes inside the clean tail. At the full 60 s the
// breaker timeouts come out to the dpu package defaults.
func selfHealConfig(mode Mode, o Options, breaker, qos bool) ClusterConfig {
	cfg := ClusterConfig{Mode: mode, Seed: o.Seed, MinSize: 1}
	if qos {
		recoveryQoS(&cfg)
	}
	if breaker {
		b := dpu.DefaultBreakerConfig()
		b.Enable = true
		b.Window = o.Duration / 6
		b.OpenTimeout = o.Duration / 12
		b.ProbeInterval = o.Duration / 60
		cfg.Bridge.Breaker = b
	}
	return cfg
}

func recoveryQoS(c *ClusterConfig) {
	c.OSD.RecoveryMaxPGs = 2
	c.OSD.RecoveryBps = 64e6
	c.OSD.RecoveryBackoffDepth = 4
}

// selfHealSettle lets the backfill tail drain under its QoS budget before
// the post-run verification.
func selfHealSettle(d Duration) func(*sim.Proc, *Cluster) {
	return func(p *sim.Proc, _ *Cluster) { p.Wait(d / 6) }
}

func selfHealOptions(o Options) (Options, error) {
	o = o.withDefaults()
	if o.Duration < selfHealFloor {
		return o, fmt.Errorf("selfheal needs at least %v: the crash window must outlast the 5 s heartbeat grace", selfHealFloor)
	}
	return o, nil
}

// RunSelfHeal executes the self-healing workload on both deployments under
// SelfHealPlan, breaker and recovery QoS on.
func RunSelfHeal(o Options) (FaultComparison, error) {
	o, err := selfHealOptions(o)
	if err != nil {
		return FaultComparison{}, err
	}
	return compareFaulted("selfheal", o, SelfHealPlan(o.Duration),
		func(mode Mode) ClusterConfig { return selfHealConfig(mode, o, true, true) },
		selfHealSettle(o.Duration))
}

// runFaulted drives one cluster through plan under the closed-loop
// write/verify workload: o.Threads workers write o.ObjectBytes objects for
// o.Duration, reading one back every verifyEvery writes; then settle runs
// (scrub, or a recovery drain) and every surviving object is verified.
func runFaulted(kind string, cfg ClusterConfig, plan faultinject.Plan, o Options,
	settle func(*sim.Proc, *Cluster)) (FaultRun, error) {
	cl := NewCluster(cfg)
	defer cl.Shutdown()
	res := FaultRun{Mode: cfg.Mode.String()}

	inj := faultinject.New(cl.Env, cl.FaultTargets())
	if err := inj.Run(plan); err != nil {
		return res, fmt.Errorf("fault plan rejected: %w", err)
	}

	payload := radosbench.Payload(o.ObjectBytes)
	wantCRC := payload.CRC32C()

	var (
		stopped  bool
		perSecBy []int64
		written  = make([][]string, o.Threads)
	)
	start := cl.Env.Now()
	record := func(end sim.Time, bytes int64) {
		sec := int(end.Sub(start) / sim.Duration(sim.Second))
		for len(perSecBy) <= sec {
			perSecBy = append(perSecBy, 0)
		}
		perSecBy[sec] += bytes
	}
	verify := func(p *sim.Proc, obj string) {
		bl, err := cl.Client.Read(p, obj, 0, 0)
		if err != nil {
			// A fault window can make the read itself fail; that is an
			// availability error, not an integrity violation.
			res.Errors++
			return
		}
		res.IntegrityChecked++
		if bl.CRC32C() == wantCRC {
			res.IntegrityOK++
		}
	}

	workersDone := 0
	for w := 0; w < o.Threads; w++ {
		worker := w
		cl.Env.Spawn(fmt.Sprintf("%s-worker-%d", kind, w), func(p *sim.Proc) {
			p.SetThread(sim.NewThread(fmt.Sprintf("%s-%d", kind, worker), "client"))
			defer func() { workersDone++ }()
			for i := 0; !stopped; i++ {
				obj := fmt.Sprintf("%s_w%d_%d", kind, worker, i)
				res.Ops++
				if err := cl.Client.Write(p, obj, payload); err != nil {
					// Typed error within the op deadline — the op did not
					// hang, the workload carries on.
					res.Errors++
					continue
				}
				written[worker] = append(written[worker], obj)
				record(p.Now(), o.ObjectBytes)
				if n := len(written[worker]); n > 0 && n%verifyEvery == 0 {
					pick := written[worker][cl.Env.Rand().Intn(n)]
					res.Ops++
					verify(p, pick)
				}
			}
		})
	}
	cl.Env.Spawn(kind+"-controller", func(p *sim.Proc) {
		p.Wait(o.Duration)
		stopped = true
	})
	// Run to the stop flag, then drain in-flight ops: workers check it only
	// between ops, so one op deadline bounds the tail.
	for !stopped || workersDone < o.Threads {
		if err := cl.Env.RunUntil(cl.Env.Now().Add(sim.Second)); err != nil {
			return res, err
		}
	}

	verifyDone := false
	cl.Env.Spawn(kind+"-verify", func(p *sim.Proc) {
		p.SetThread(sim.NewThread(kind+"-verify", "client"))
		settle(p, cl)
		for _, objs := range written {
			for _, obj := range objs {
				verify(p, obj)
			}
		}
		verifyDone = true
	})
	for !verifyDone {
		if err := cl.Env.RunUntil(cl.Env.Now().Add(5 * sim.Second)); err != nil {
			return res, err
		}
	}

	// Collect counters.
	cs := cl.Client.Stats()
	res.Retries, res.Timeouts = cs.Retries, cs.Timeouts
	res.StaleReplies, res.MapRefreshes = cs.StaleReplies, cs.MapRefreshes
	res.DroppedFrames = cl.Fabric.DroppedFrames()
	for _, n := range cl.Nodes {
		os := n.OSD.Stats()
		res.RepRetries += os.RepRetries
		res.RepAborts += os.RepAborts
		res.ScrubErrors += os.ScrubErrors
		res.ScrubRepairs += os.ScrubRepairs
		res.DegradedWrites += os.DegradedWrites
		res.NoQuorumRejects += os.NoQuorumRejects
		res.DegradedPGsHealed += os.DegradedPGsHealed
		res.ObjectsRecovered += os.ObjectsRecovered
		res.PGsBackfilled += os.PGsBackfilled
		res.RecoveryBytes += os.RecoveryBytes
		res.RecoveryBackoffs += os.RecoveryBackoffs
		res.RecoveryThrottle += os.RecoveryThrottle
		res.InjectedWriteErrors += n.Store.Stats().InjectedErrors
		if n.Bridge == nil {
			continue
		}
		ps := n.Bridge.Proxy.Stats()
		res.FallbackTxns += ps.FallbackTxns
		res.DataPlaneTxns += ps.DataPlaneTxns
		res.DMAErrors += n.Bridge.EngUp.Stats().Errors + n.Bridge.EngDown.Stats().Errors
		if br := n.Bridge.Proxy.Breaker(); br != nil {
			bs := br.Stats()
			res.BreakerOpens += bs.Opens
			res.BreakerHalfOpens += bs.HalfOpens
			res.BreakerCloses += bs.Closes
			res.ProbeSuccesses += bs.ProbeSuccesses
		}
	}
	if len(cl.Nodes) > 0 && cl.Nodes[0].Bridge != nil {
		if br := cl.Nodes[0].Bridge.Proxy.Breaker(); br != nil {
			res.BreakerFinal = br.State().String()
		}
	}
	for _, m := range cl.Registry.All() {
		res.SessionResets += m.Stats().SessionResets
	}
	ist := inj.Stats()
	res.BitRotObjects = ist.BitRotObjects
	for _, n := range ist.Events {
		res.InjectedEvents += n
	}

	// Throughput series + dip/recovery against the plan's fault windows.
	for _, b := range perSecBy {
		res.MBps = append(res.MBps, float64(b)/1e6)
	}
	res.CleanMBps, res.DipPct, res.RecoverySeconds = dipRecovery(res.MBps, plan)
	return res, nil
}

// dipRecovery computes the clean-second mean, the worst in-window second
// relative to it, and the time from the last window's close until throughput
// is back within 80% of the clean mean.
func dipRecovery(mbps []float64, plan faultinject.Plan) (clean, dipPct, recovery float64) {
	type window struct{ from, to int }
	var windows []window
	lastEnd := 0
	for _, ev := range plan.Events {
		from := int(ev.At / sim.Duration(sim.Second))
		to := from
		if ev.Duration > 0 {
			to = int((ev.At + ev.Duration) / sim.Duration(sim.Second))
		}
		windows = append(windows, window{from, to})
		if to > lastEnd {
			lastEnd = to
		}
	}
	inWindow := func(sec int) bool {
		for _, w := range windows {
			if sec >= w.from && sec <= w.to {
				return true
			}
		}
		return false
	}
	var sum float64
	var n int
	for sec, v := range mbps {
		if !inWindow(sec) {
			sum += v
			n++
		}
	}
	if n > 0 {
		clean = sum / float64(n)
	}
	dip := clean
	for sec, v := range mbps {
		if inWindow(sec) && v < dip {
			dip = v
		}
	}
	dipPct = 100
	if clean > 0 {
		dipPct = dip / clean * 100
	}
	recovery = -1
	for sec := lastEnd + 1; sec < len(mbps); sec++ {
		if mbps[sec] >= 0.8*clean {
			recovery = float64(sec - lastEnd)
			break
		}
	}
	return clean, dipPct, recovery
}

// faultTable starts a Baseline-vs-DoCeph comparison table and returns it with
// a row appender for its int64 counters.
func faultTable(what string, r FaultComparison) (*report.Table, func(string, func(FaultRun) int64)) {
	t := &report.Table{
		Title:  fmt.Sprintf("%s: plan %q, seed %d — Baseline vs DoCeph", what, r.PlanName, r.Seed),
		Header: []string{"metric", "Baseline", "DoCeph"},
	}
	return t, func(name string, f func(FaultRun) int64) {
		t.AddRow(name, fmt.Sprint(f(r.Baseline)), fmt.Sprint(f(r.DoCeph)))
	}
}

// faultTableTail appends the throughput rows and notes both tables end with.
func faultTableTail(t *report.Table, r FaultComparison, notes ...string) {
	t.AddRow("clean MB/s", report.F2(r.Baseline.CleanMBps), report.F2(r.DoCeph.CleanMBps))
	t.AddRow("worst dip (% of clean)", report.F2(r.Baseline.DipPct), report.F2(r.DoCeph.DipPct))
	t.AddRow("recovery (s)", report.F2(r.Baseline.RecoverySeconds), report.F2(r.DoCeph.RecoverySeconds))
	t.Notes = append(t.Notes, notes...)
	if r.Baseline.IntegrityChecked == r.Baseline.IntegrityOK &&
		r.DoCeph.IntegrityChecked == r.DoCeph.IntegrityOK {
		t.AddNote("payload integrity: 100%% of verified reads matched the written CRC32C")
	}
}

// ChaosTable renders the chaos comparison.
func ChaosTable(r FaultComparison) *report.Table {
	t, row := faultTable("Chaos", r)
	row("ops issued", func(m FaultRun) int64 { return m.Ops })
	row("typed errors", func(m FaultRun) int64 { return m.Errors })
	row("client retries", func(m FaultRun) int64 { return m.Retries })
	row("client timeouts", func(m FaultRun) int64 { return m.Timeouts })
	row("stale replies", func(m FaultRun) int64 { return m.StaleReplies })
	row("map refreshes", func(m FaultRun) int64 { return m.MapRefreshes })
	row("session resets", func(m FaultRun) int64 { return m.SessionResets })
	row("frames dropped", func(m FaultRun) int64 { return m.DroppedFrames })
	row("rep retries", func(m FaultRun) int64 { return m.RepRetries })
	row("rep aborts", func(m FaultRun) int64 { return m.RepAborts })
	row("scrub errors", func(m FaultRun) int64 { return m.ScrubErrors })
	row("scrub repairs", func(m FaultRun) int64 { return m.ScrubRepairs })
	row("bit-rot objects", func(m FaultRun) int64 { return m.BitRotObjects })
	row("injected store errors", func(m FaultRun) int64 { return m.InjectedWriteErrors })
	row("DMA errors", func(m FaultRun) int64 { return m.DMAErrors })
	row("integrity checked", func(m FaultRun) int64 { return m.IntegrityChecked })
	row("integrity ok", func(m FaultRun) int64 { return m.IntegrityOK })
	faultTableTail(t, r, "identical fault schedule on both deployments; every op resolves "+
		"(success after retries, or a typed error) within its virtual-time deadline")
	return t
}

func runChaos(o Options) ([]*report.Table, error) {
	r, err := RunChaos(o)
	if err != nil {
		return nil, err
	}
	return []*report.Table{ChaosTable(r)}, nil
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func selfHealTable(r FaultComparison) *report.Table {
	t, row := faultTable("Self-healing", r)
	row("ops issued", func(m FaultRun) int64 { return m.Ops })
	row("typed errors", func(m FaultRun) int64 { return m.Errors })
	row("integrity checked", func(m FaultRun) int64 { return m.IntegrityChecked })
	row("integrity ok", func(m FaultRun) int64 { return m.IntegrityOK })
	row("degraded writes", func(m FaultRun) int64 { return m.DegradedWrites })
	row("no-quorum rejects", func(m FaultRun) int64 { return m.NoQuorumRejects })
	row("degraded PGs healed", func(m FaultRun) int64 { return m.DegradedPGsHealed })
	row("objects recovered", func(m FaultRun) int64 { return m.ObjectsRecovered })
	row("PGs backfilled", func(m FaultRun) int64 { return m.PGsBackfilled })
	row("recovery bytes", func(m FaultRun) int64 { return m.RecoveryBytes })
	row("recovery backoffs", func(m FaultRun) int64 { return m.RecoveryBackoffs })
	row("recovery throttle (ms)", func(m FaultRun) int64 { return int64(m.RecoveryThrottle) / 1e6 })
	row("DMA errors", func(m FaultRun) int64 { return m.DMAErrors })
	row("breaker opens", func(m FaultRun) int64 { return m.BreakerOpens })
	row("breaker half-opens", func(m FaultRun) int64 { return m.BreakerHalfOpens })
	row("breaker closes", func(m FaultRun) int64 { return m.BreakerCloses })
	row("probe successes", func(m FaultRun) int64 { return m.ProbeSuccesses })
	row("host-path fallback txns", func(m FaultRun) int64 { return m.FallbackTxns })
	t.AddRow("breaker final state", orDash(r.Baseline.BreakerFinal), orDash(r.DoCeph.BreakerFinal))
	notes := []string{"identical fault schedule on both deployments: OSD crash + sustained DMA fault"}
	if r.DoCeph.BreakerOpens > 0 && r.DoCeph.BreakerFinal == "closed" {
		notes = append(notes, "breaker completed the open -> half-open -> closed arc and re-enrolled DMA")
	}
	faultTableTail(t, r, notes...)
	return t
}

// runSelfHeal is the comparison, then DoCeph through the same plan with each
// combination of breaker and recovery QoS plus a fault-free reference row —
// the marginal value of each mechanism under the identical failure schedule.
func runSelfHeal(o Options) ([]*report.Table, error) {
	o, err := selfHealOptions(o)
	if err != nil {
		return nil, err
	}
	cmp, err := RunSelfHeal(o)
	if err != nil {
		return nil, err
	}
	plan := SelfHealPlan(o.Duration)
	t := &report.Table{
		Title: "Self-healing ablation (DoCeph, identical fault schedule)",
		Header: []string{"variant", "clean MB/s", "dip %", "recovery s",
			"errors", "fallback txns", "backoffs", "integrity", "breaker"},
		Notes: []string{"dip % is the worst in-fault-window second relative to the clean mean (100 = no dip)"},
	}
	for _, v := range []struct {
		name         string
		breaker, qos bool
		plan         faultinject.Plan
	}{
		{"no faults (reference)", true, true, faultinject.Plan{Name: "none"}},
		{"breaker off, QoS off", false, false, plan},
		{"breaker on,  QoS off", true, false, plan},
		{"breaker off, QoS on", false, true, plan},
		{"breaker on,  QoS on", true, true, plan},
	} {
		r, err := runFaulted("selfheal", selfHealConfig(DoCeph, o, v.breaker, v.qos), v.plan, o,
			selfHealSettle(o.Duration))
		if err != nil {
			return nil, fmt.Errorf("ablation %q: %w", v.name, err)
		}
		t.AddRow(v.name, report.F2(r.CleanMBps), report.F2(r.DipPct),
			report.F2(r.RecoverySeconds), fmt.Sprint(r.Errors),
			fmt.Sprint(r.FallbackTxns), fmt.Sprint(r.RecoveryBackoffs),
			fmt.Sprintf("%d/%d", r.IntegrityOK, r.IntegrityChecked),
			orDash(r.BreakerFinal))
	}
	return []*report.Table{selfHealTable(cmp), t}, nil
}
