package osd

import (
	"errors"
	"fmt"
	"testing"

	"doceph/internal/objstore"
	"doceph/internal/rados"
	"doceph/internal/sim"
)

// degradedCfg is the OSD config shared by the min_size tests: heartbeats on
// so the monitor learns about crashes.
func degradedCfg() Config {
	return Config{HeartbeatInterval: sim.Second, Monitor: "mon.0"}
}

// TestDegradedWritesAcceptedAtMinSize: 2 hosts, replicas=2, min_size=1. With
// one OSD down every PG's acting set shrinks to a single member — still at
// min_size, so writes proceed degraded, the primary ledgers them per PG, and
// a rejoin heals the ledger while recovery re-replicates the objects.
func TestDegradedWritesAcceptedAtMinSize(t *testing.T) {
	tc := newTestClusterFull(t, 2, 2, 1, false, degradedCfg())
	tc.run(t, func(p *sim.Proc) {
		if err := tc.client.Write(p, "pre", payload(8_000, 1)); err != nil {
			t.Fatal(err)
		}
		if got := tc.osds[0].Stats().DegradedWrites; got != 0 {
			t.Fatalf("healthy write counted as degraded (%d)", got)
		}
		tc.osds[1].Fail()
		p.Wait(15 * sim.Second) // detection + new epoch
		if tc.client.Map().IsUp(1) {
			t.Fatal("osd.1 still up in client map")
		}
		var objs []string
		for i := 0; i < 8; i++ {
			obj := fmt.Sprintf("deg-%d", i)
			if err := tc.client.Write(p, obj, payload(8_000, byte(10+i))); err != nil {
				t.Fatalf("degraded write %s: %v", obj, err)
			}
			objs = append(objs, obj)
		}
		s := tc.osds[0].Stats()
		if s.DegradedWrites != 8 {
			t.Fatalf("DegradedWrites = %d, want 8", s.DegradedWrites)
		}
		if s.NoQuorumRejects != 0 {
			t.Fatalf("writes rejected at min_size: %d", s.NoQuorumRejects)
		}
		ledger := tc.osds[0].DegradedLedger()
		var ledgered int64
		for _, n := range ledger {
			ledgered += n
		}
		if ledgered != 8 {
			t.Fatalf("ledger total = %d (%v), want 8", ledgered, ledger)
		}

		// Rejoin: the ledger heals and recovery restores full replication.
		tc.osds[1].Recover()
		tc.mon.MarkUp(1)
		p.Wait(30 * sim.Second)
		if n := len(tc.osds[0].DegradedLedger()); n != 0 {
			t.Fatalf("%d PGs still ledgered after rejoin", n)
		}
		if tc.osds[0].Stats().DegradedPGsHealed == 0 {
			t.Fatal("no healed PGs recorded")
		}
		m := tc.client.Map()
		for i, obj := range objs {
			pg := m.PGForObject(obj)
			bl, err := objstore.Read(p, tc.stores[1], fmt.Sprintf("pg.%d", pg), obj, 0, 0)
			if err != nil {
				t.Fatalf("%s not recovered onto osd.1: %v", obj, err)
			}
			if bl.CRC32C() != payload(8_000, byte(10+i)).CRC32C() {
				t.Fatalf("%s content mismatch after recovery", obj)
			}
		}
	})
}

// TestWritesRejectedBelowMinSize: with min_size equal to the replication
// factor, losing a replica drops the acting set below quorum — mutations
// bounce with ResNoQuorum, the client surfaces ErrNoQuorum after its retry
// budget, and reads keep working. Quorum restored, the same write succeeds.
func TestWritesRejectedBelowMinSize(t *testing.T) {
	tc := newTestClusterFull(t, 2, 2, 2, false, degradedCfg())
	tc.run(t, func(p *sim.Proc) {
		if err := tc.client.Write(p, "obj", payload(6_000, 3)); err != nil {
			t.Fatal(err)
		}
		tc.osds[1].Fail()
		p.Wait(15 * sim.Second)
		err := tc.client.Write(p, "obj", payload(6_000, 4))
		if !errors.Is(err, rados.ErrNoQuorum) {
			t.Fatalf("write below min_size: err = %v, want ErrNoQuorum", err)
		}
		if tc.osds[0].Stats().NoQuorumRejects == 0 {
			t.Fatal("primary recorded no quorum rejections")
		}
		if tc.osds[0].Stats().DegradedWrites != 0 {
			t.Fatal("rejected write also counted as degraded")
		}
		if tc.client.Stats().NoQuorumWaits == 0 {
			t.Fatal("client recorded no quorum waits")
		}
		// Reads are unaffected: durability, not availability, is gated.
		if _, err := tc.client.Read(p, "obj", 0, 0); err != nil {
			t.Fatalf("read during quorum loss: %v", err)
		}
		tc.osds[1].Recover()
		tc.mon.MarkUp(1)
		p.Wait(15 * sim.Second)
		if err := tc.client.Write(p, "obj", payload(6_000, 5)); err != nil {
			t.Fatalf("write after quorum restored: %v", err)
		}
		m := tc.client.Map()
		pg := m.PGForObject("obj")
		for _, id := range m.ActingSet(pg) {
			bl, err := objstore.Read(p, tc.stores[id], fmt.Sprintf("pg.%d", pg), "obj", 0, 0)
			if err != nil {
				t.Fatalf("osd.%d: %v", id, err)
			}
			if bl.CRC32C() != payload(6_000, 5).CRC32C() {
				t.Fatalf("osd.%d holds stale content", id)
			}
		}
	})
}

// TestMinSizeZeroKeepsLegacyBehaviour: with the gate off (the default), a
// write into a shrunken acting set neither ledgers nor rejects — byte-for-
// byte the seed behaviour.
func TestMinSizeZeroKeepsLegacyBehaviour(t *testing.T) {
	tc := newTestCluster(t, 2, 2, false)
	tc.run(t, func(p *sim.Proc) {
		tc.osds[1].Fail()
		p.Wait(15 * sim.Second)
		if err := tc.client.Write(p, "legacy", payload(4_000, 7)); err != nil {
			t.Fatal(err)
		}
		s := tc.osds[0].Stats()
		if s.DegradedWrites != 0 || s.NoQuorumRejects != 0 {
			t.Fatalf("min_size bookkeeping active while disabled: %+v", s)
		}
		if len(tc.osds[0].DegradedLedger()) != 0 {
			t.Fatal("ledger populated while gate disabled")
		}
	})
}
