package doceph

import (
	"fmt"
	"reflect"
	"testing"

	"doceph/internal/faultinject"
)

// selfHealOpts keeps the runs CI-sized; the plan scales with the duration,
// and the proxy's 5 s DMA cooldown ends well inside its clean tail.
func selfHealOpts() Options {
	return Options{Duration: 30 * Second, Threads: 4, ObjectBytes: 256 << 10, Seed: 42}
}

// TestSelfHealRunCompletes is the headline self-healing check: through an
// OSD crash and a sustained DPU DMA fault, both deployments keep serving
// writes with zero integrity violations; DoCeph's proxy must cool DMA down,
// fail over to the host path and re-enable DMA by a probe before run end,
// degraded writes must flow (and the ledger heal), and the crash-triggered
// backfill must complete under QoS.
func TestSelfHealRunCompletes(t *testing.T) {
	r, err := RunSelfHeal(selfHealOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []FaultRun{r.Baseline, r.DoCeph} {
		if m.Ops == 0 {
			t.Fatalf("%s: no ops issued", m.Mode)
		}
		if m.IntegrityChecked == 0 {
			t.Fatalf("%s: nothing verified", m.Mode)
		}
		if m.IntegrityOK != m.IntegrityChecked {
			t.Fatalf("%s: integrity violations: %d/%d reads matched",
				m.Mode, m.IntegrityOK, m.IntegrityChecked)
		}
		// The crash window must have produced degraded writes (min_size=1
		// keeps them flowing) and the rejoin must have healed the ledger
		// and backfilled under the QoS knobs.
		if m.DegradedWrites == 0 {
			t.Errorf("%s: crash window produced no degraded writes", m.Mode)
		}
		if m.DegradedPGsHealed == 0 {
			t.Errorf("%s: degraded ledger never healed", m.Mode)
		}
		if m.ObjectsRecovered == 0 || m.PGsBackfilled == 0 {
			t.Errorf("%s: no recovery happened (objects=%d pgs=%d)",
				m.Mode, m.ObjectsRecovered, m.PGsBackfilled)
		}
		if m.CleanMBps <= 0 {
			t.Errorf("%s: no clean throughput measured", m.Mode)
		}
	}
	// Baseline has no DPU: the DMA fault is a no-op there and there is no
	// DMA to cool down.
	if r.Baseline.CooldownEntries != 0 || r.Baseline.FallbackTxns != 0 {
		t.Errorf("Baseline reported DMA failover: cooldowns=%d fallback=%d",
			r.Baseline.CooldownEntries, r.Baseline.FallbackTxns)
	}
	// DoCeph must complete the full failover arc: DMA errors observed, DMA
	// cooled down, traffic moved to the host path, a probe succeeded once
	// the fault cleared, and DMA is back on at run end.
	d := r.DoCeph
	if d.DMAErrors == 0 {
		t.Error("DoCeph: DMA fault window injected no errors")
	}
	if d.CooldownEntries == 0 {
		t.Error("DoCeph: DMA never cooled down under a total DMA fault")
	}
	if d.FallbackTxns == 0 {
		t.Error("DoCeph: no transactions failed over to the host path")
	}
	if d.ProbeSuccesses == 0 {
		t.Error("DoCeph: no probe ever succeeded after the fault cleared")
	}
	if d.DMAFinal != "healthy" {
		t.Errorf("DoCeph: DMA not re-enabled by run end (%q)", d.DMAFinal)
	}
	if d.DataPlaneTxns == 0 {
		t.Error("DoCeph: DMA path never used")
	}
}

// TestSelfHealRecoveryQoSProtectsForeground is the client-I/O-aware
// throttling bound: after the crashed OSD rejoins, the backfill must not
// starve foreground writes. With QoS on, every backfill-phase second keeps a
// healthy fraction of clean throughput; with QoS off the same schedule
// starves the clients (measured ~2% of clean), which is what the knobs fix.
func TestSelfHealRecoveryQoSProtectsForeground(t *testing.T) {
	// Crash osd.1 at 3 s for 10.5 s: rejoin at 13.5 s starts the backfill,
	// so seconds 14-17 are the contended recovery phase.
	plan := faultinject.Plan{Name: "crash-only", Events: []faultinject.Event{
		{At: 3 * Second, Duration: 10500 * Millisecond, Kind: faultinject.OSDCrash, OSD: 1},
	}}
	backfillMin := func(r FaultRun) float64 {
		min := -1.0
		for sec := 14; sec < 18 && sec < len(r.MBps); sec++ {
			if min < 0 || r.MBps[sec] < min {
				min = r.MBps[sec]
			}
		}
		return min
	}
	run := func(qosOff bool) FaultRun {
		opts := selfHealOpts().withDefaults()
		cfg := selfHealConfig(DoCeph, opts, !qosOff)
		if !qosOff {
			// A deliberately tight budget so the bucket saturates under this
			// small 4-thread workload and pacing provably engages.
			cfg.OSD.RecoveryBps = 8e6
		}
		r, err := runFaulted("selfheal", cfg, plan, opts, selfHealSettle(opts.Duration))
		if err != nil {
			t.Fatal(err)
		}
		if r.IntegrityOK != r.IntegrityChecked {
			t.Fatalf("qosOff=%v: integrity violations: %d/%d", qosOff, r.IntegrityOK, r.IntegrityChecked)
		}
		return r
	}
	on, off := run(false), run(true)

	if on.RecoveryThrottle == 0 && on.RecoveryBackoffs == 0 {
		t.Error("QoS on but neither pacing nor backoff ever engaged")
	}
	if off.RecoveryThrottle != 0 || off.RecoveryBackoffs != 0 {
		t.Errorf("QoS off but throttling engaged (throttle=%v backoffs=%d)",
			off.RecoveryThrottle, off.RecoveryBackoffs)
	}
	onMin, offMin := backfillMin(on), backfillMin(off)
	if onMin < 0.25*on.CleanMBps {
		t.Errorf("QoS failed its bound: worst backfill-phase second %.1f MB/s < 25%% of clean %.1f MB/s",
			onMin, on.CleanMBps)
	}
	if onMin < 5*offMin {
		t.Errorf("QoS made no difference: backfill-phase floor %.1f MB/s (on) vs %.1f MB/s (off)",
			onMin, offMin)
	}
	if on.RecoverySeconds < 0 {
		t.Error("throughput never recovered to 80% of clean after the crash window")
	}
}

// TestSelfHealDeterminism: the full experiment is a pure function of
// (options, plan) — run twice across a spread of seeds, every counter and
// the whole per-second throughput series must match bit-for-bit.
func TestSelfHealDeterminism(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 8, 13, 21, 42}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			// The floor is the shortest run whose crash window is detected;
			// 1 MB objects keep the op count of 32 such runs, and the race
			// detector's bill for them, bounded.
			opts := Options{Duration: selfHealFloor, Threads: 4, ObjectBytes: 1 << 20, Seed: seed}
			a, err := RunSelfHeal(opts)
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunSelfHeal(opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("self-heal run is not deterministic for seed %d:\nfirst:  %+v\nsecond: %+v", seed, a, b)
			}
		})
	}
}
