package core

import (
	"fmt"
	"testing"

	"doceph/internal/dpu"
	"doceph/internal/objstore"
	"doceph/internal/sim"
)

func breakerRig(cfg dpu.BreakerConfig) *coreRig {
	cfg.Enable = true
	return newCoreRig(BridgeConfig{Breaker: cfg})
}

// TestBreakerToleratesIsolatedFailure: unlike the legacy cooldown, one DMA
// error below the threshold keeps the data plane on — the failed segment is
// resent over RPC but the very next write rides DMA again.
func TestBreakerToleratesIsolatedFailure(t *testing.T) {
	r := breakerRig(dpu.BreakerConfig{FailureThreshold: 3})
	r.run(t, func(p *sim.Proc) {
		px := r.bridge.Proxy
		r.bridge.EngUp.FailNext(1)
		data := seeded(100_000, 4)
		txn := (&objstore.Transaction{}).MkColl("pg.0").Write("pg.0", "o1", 0, data)
		if err := commitP(t, p, px, txn); err != nil {
			t.Fatalf("commit through fallback: %v", err)
		}
		if px.Stats().FallbackSegments == 0 {
			t.Fatal("failed segment not resent over RPC")
		}
		if !px.DMAHealthy() {
			t.Fatal("one failure below threshold tripped the breaker")
		}
		before := px.Stats().DataPlaneTxns
		txn2 := (&objstore.Transaction{}).Write("pg.0", "o2", 0, seeded(50_000, 5))
		if err := commitP(t, p, px, txn2); err != nil {
			t.Fatal(err)
		}
		if px.Stats().DataPlaneTxns != before+1 {
			t.Fatal("next write did not use DMA after isolated failure")
		}
	})
}

// TestBreakerOpensFailsOverAndReEnrolls drives the full open -> half-open ->
// closed arc through the data path: a failure burst opens the breaker and
// writes transparently fail over to the host RPC path (no errors surface to
// the caller); once the fault clears and OpenTimeout passes, probes re-close
// it and traffic returns to DMA.
func TestBreakerOpensFailsOverAndReEnrolls(t *testing.T) {
	r := breakerRig(dpu.BreakerConfig{
		Window: 10 * sim.Second, FailureThreshold: 2,
		OpenTimeout: 2 * sim.Second, ProbeInterval: 200 * sim.Millisecond, CloseProbes: 2,
	})
	r.run(t, func(p *sim.Proc) {
		px := r.bridge.Proxy
		// Seed the collection over a healthy path, then inject the fault.
		if err := commitP(t, p, px, (&objstore.Transaction{}).MkColl("pg.0")); err != nil {
			t.Fatal(err)
		}
		r.bridge.EngUp.SetFailProb(1)
		for i := 0; i < 4; i++ {
			txn := (&objstore.Transaction{}).
				Write("pg.0", fmt.Sprintf("f-%d", i), 0, seeded(60_000, byte(i)))
			if err := commitP(t, p, px, txn); err != nil {
				t.Fatalf("write %d failed despite failover: %v", i, err)
			}
		}
		br := px.Breaker()
		if br.State() != dpu.BreakerOpen {
			t.Fatalf("breaker %v after failure burst, want open", br.State())
		}
		if px.Stats().FallbackTxns == 0 {
			t.Fatal("no writes routed over the host path while open")
		}
		// Fault clears; after OpenTimeout the probes re-enroll the session.
		r.bridge.EngUp.SetFailProb(0)
		p.Wait(3 * sim.Second)
		for i := 0; i < 4; i++ {
			txn := (&objstore.Transaction{}).
				Write("pg.0", fmt.Sprintf("r-%d", i), 0, seeded(60_000, byte(10+i)))
			if err := commitP(t, p, px, txn); err != nil {
				t.Fatal(err)
			}
			p.Wait(300 * sim.Millisecond)
		}
		if br.State() != dpu.BreakerClosed {
			t.Fatalf("breaker %v after recovery probes, want closed", br.State())
		}
		s := br.Stats()
		if s.Opens == 0 || s.HalfOpens == 0 || s.Closes == 0 {
			t.Fatalf("missing transitions: %+v", s)
		}
		if s.ProbeSuccesses < 2 {
			t.Fatalf("probe successes %d, want >= CloseProbes", s.ProbeSuccesses)
		}
		// Closed again: traffic is back on DMA.
		before := px.Stats().DataPlaneTxns
		txn := (&objstore.Transaction{}).Write("pg.0", "post", 0, seeded(60_000, 99))
		if err := commitP(t, p, px, txn); err != nil {
			t.Fatal(err)
		}
		if px.Stats().DataPlaneTxns != before+1 {
			t.Fatal("re-enrolled session not using DMA")
		}
		// All objects written through every phase must be intact on the host.
		for i := 0; i < 4; i++ {
			for _, pfx := range []string{"f", "r"} {
				if _, err := objstore.Stat(p, r.store, "pg.0", fmt.Sprintf("%s-%d", pfx, i)); err != nil {
					t.Fatalf("%s-%d lost across failover: %v", pfx, i, err)
				}
			}
		}
	})
}

// TestBreakerDisabledKeepsLegacyCooldown: without the breaker the first
// failure still enters the legacy cooldown (golden-path behaviour).
func TestBreakerDisabledKeepsLegacyCooldown(t *testing.T) {
	r := newCoreRig(BridgeConfig{})
	r.run(t, func(p *sim.Proc) {
		px := r.bridge.Proxy
		if px.Breaker() != nil {
			t.Fatal("breaker constructed despite Enable=false")
		}
		r.bridge.EngUp.FailNext(1)
		txn := (&objstore.Transaction{}).MkColl("pg.0").Write("pg.0", "o", 0, seeded(60_000, 1))
		if err := commitP(t, p, px, txn); err != nil {
			t.Fatal(err)
		}
		if px.DMAHealthy() {
			t.Fatal("legacy cooldown not entered on first failure")
		}
		if px.Stats().CooldownEntries != 1 {
			t.Fatalf("cooldown entries = %d, want 1", px.Stats().CooldownEntries)
		}
	})
}
