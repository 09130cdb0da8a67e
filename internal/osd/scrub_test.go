package osd

import (
	"fmt"
	"testing"

	"doceph/internal/objstore"
	"doceph/internal/sim"
)

// TestScrubDetectsAndRepairsBitRot: corrupt a replica's copy, run a scrub,
// verify the divergence is found and the replica repaired from the primary.
func TestScrubDetectsAndRepairsBitRot(t *testing.T) {
	tc := newTestCluster(t, 2, 2, false)
	tc.run(t, func(p *sim.Proc) {
		data := payload(50_000, 3)
		if err := tc.client.Write(p, "victim", data); err != nil {
			t.Fatal(err)
		}
		m := tc.client.Map()
		pg := m.PGForObject("victim")
		coll := fmt.Sprintf("pg.%d", pg)
		primary := m.Primary(pg)
		secondary := 1 - primary

		// Bit-rot on the secondary's copy.
		if err := tc.stores[secondary].CorruptObject(coll, "victim"); err != nil {
			t.Fatal(err)
		}
		bad, _ := objstore.Read(p, tc.stores[secondary], coll, "victim", 0, 0)
		if bad.CRC32C() == data.CRC32C() {
			t.Fatal("corruption did not take")
		}
		// Primary's copy must be unharmed (clone-before-corrupt).
		good, _ := objstore.Read(p, tc.stores[primary], coll, "victim", 0, 0)
		if good.CRC32C() != data.CRC32C() {
			t.Fatal("corruption leaked into the primary's shared buffers")
		}

		tc.osds[primary].ScrubNow()
		p.Wait(30 * sim.Second)

		st := tc.osds[primary].Stats()
		if st.ScrubErrors != 1 || st.ScrubRepairs != 1 {
			t.Fatalf("scrub stats=%+v", st)
		}
		repaired, err := objstore.Read(p, tc.stores[secondary], coll, "victim", 0, 0)
		if err != nil || repaired.CRC32C() != data.CRC32C() {
			t.Fatalf("replica not repaired: %v", err)
		}
	})
}

// TestScrubCleanClusterFindsNothing: no corruption, no repairs.
func TestScrubCleanClusterFindsNothing(t *testing.T) {
	tc := newTestCluster(t, 2, 2, false)
	tc.run(t, func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			if err := tc.client.Write(p, fmt.Sprintf("obj-%d", i), payload(10_000, byte(i))); err != nil {
				t.Fatal(err)
			}
		}
		for _, o := range tc.osds {
			o.ScrubNow()
		}
		p.Wait(30 * sim.Second)
		var scrubbed, errs int64
		for _, o := range tc.osds {
			scrubbed += o.Stats().ObjectsScrubbed
			errs += o.Stats().ScrubErrors
		}
		if scrubbed < 8 {
			t.Fatalf("scrubbed=%d", scrubbed)
		}
		if errs != 0 {
			t.Fatalf("false positives: %d", errs)
		}
	})
}

// TestPeriodicScrubRuns: with ScrubInterval set, the background loop scrubs
// without manual triggering.
func TestPeriodicScrubRuns(t *testing.T) {
	tc := newTestClusterCfg(t, 2, 2, Config{
		HeartbeatInterval: sim.Second, Monitor: "mon.0",
		ScrubInterval: 5 * sim.Second,
	})
	tc.run(t, func(p *sim.Proc) {
		if err := tc.client.Write(p, "obj", payload(5_000, 1)); err != nil {
			t.Fatal(err)
		}
		p.Wait(12 * sim.Second)
		var scrubbed int64
		for _, o := range tc.osds {
			scrubbed += o.Stats().ObjectsScrubbed
		}
		if scrubbed == 0 {
			t.Fatal("periodic scrub never ran")
		}
	})
}

// TestScrubMissingReplicaObjectRepaired: a replica that silently lost an
// object (e.g. operator deleted it) gets it back.
func TestScrubMissingReplicaObjectRepaired(t *testing.T) {
	tc := newTestCluster(t, 2, 2, false)
	tc.run(t, func(p *sim.Proc) {
		data := payload(20_000, 7)
		if err := tc.client.Write(p, "lost", data); err != nil {
			t.Fatal(err)
		}
		m := tc.client.Map()
		pg := m.PGForObject("lost")
		coll := fmt.Sprintf("pg.%d", pg)
		primary := m.Primary(pg)
		secondary := 1 - primary

		// Remove the replica copy behind the OSD's back.
		res := tc.stores[secondary].QueueTransaction(p,
			(&objstore.Transaction{}).Remove(coll, "lost"))
		res.Done.Wait(p)
		if res.Err != nil {
			t.Fatal(res.Err)
		}

		tc.osds[primary].ScrubNow()
		p.Wait(30 * sim.Second)
		got, err := objstore.Read(p, tc.stores[secondary], coll, "lost", 0, 0)
		if err != nil || got.CRC32C() != data.CRC32C() {
			t.Fatalf("lost object not restored: %v", err)
		}
	})
}
