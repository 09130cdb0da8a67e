package osd

import (
	"fmt"
	"testing"

	"doceph/internal/objstore"
	"doceph/internal/sim"
)

// TestBackfillAfterRejoin: write objects with 3 OSDs, crash one, keep
// writing, bring it back — the surviving primaries must push both the old
// and the interim objects to the rejoined OSD wherever it re-enters an
// acting set.
func TestBackfillAfterRejoin(t *testing.T) {
	tc := newTestCluster(t, 3, 2, false)
	tc.run(t, func(p *sim.Proc) {
		var objs []string
		for i := 0; i < 20; i++ {
			obj := fmt.Sprintf("pre-%d", i)
			if err := tc.client.Write(p, obj, payload(8_000, byte(i))); err != nil {
				t.Fatal(err)
			}
			objs = append(objs, obj)
		}
		tc.osds[2].Fail()
		p.Wait(15 * sim.Second) // detection + new epoch
		if tc.client.Map().IsUp(2) {
			t.Fatal("osd.2 still up in client map")
		}
		for i := 0; i < 10; i++ {
			obj := fmt.Sprintf("mid-%d", i)
			if err := tc.client.Write(p, obj, payload(8_000, byte(100+i))); err != nil {
				t.Fatal(err)
			}
			objs = append(objs, obj)
		}
		// Rejoin: restart the daemon, then publish it up.
		tc.osds[2].Recover()
		tc.mon.MarkUp(2)
		p.Wait(30 * sim.Second) // map propagation + backfill
		if !tc.client.Map().IsUp(2) {
			t.Fatal("osd.2 not back up")
		}

		// Every object whose current acting set includes osd.2 must now be
		// present and intact in osd.2's store.
		m := tc.client.Map()
		checked := 0
		for i, obj := range objs {
			pg := m.PGForObject(obj)
			on2 := false
			for _, id := range m.ActingSet(pg) {
				on2 = on2 || id == 2
			}
			if !on2 {
				continue
			}
			checked++
			bl, err := objstore.Read(p, tc.stores[2], fmt.Sprintf("pg.%d", pg), obj, 0, 0)
			if err != nil {
				t.Fatalf("%s missing on rejoined osd: %v", obj, err)
			}
			seed := byte(i)
			if i >= 20 {
				seed = byte(100 + i - 20)
			}
			if bl.CRC32C() != payload(8_000, seed).CRC32C() {
				t.Fatalf("%s content mismatch on rejoined osd", obj)
			}
		}
		if checked == 0 {
			t.Fatal("no objects mapped to the rejoined OSD; test is vacuous")
		}
		recovered := int64(0)
		for _, o := range tc.osds {
			recovered += o.Stats().ObjectsRecovered
		}
		if recovered == 0 {
			t.Fatal("no recovery pushes recorded")
		}
		if tc.osds[2].Stats().PushesServed == 0 {
			t.Fatal("rejoined OSD served no pushes")
		}
	})
}

// TestBackfillSkipsNewerObjects: an object written during the recovery
// window must not be clobbered by a stale push.
func TestBackfillSkipsNewerObjects(t *testing.T) {
	tc := newTestCluster(t, 3, 2, false)
	tc.run(t, func(p *sim.Proc) {
		if err := tc.client.Write(p, "contested", payload(4_000, 1)); err != nil {
			t.Fatal(err)
		}
		tc.osds[2].Fail()
		p.Wait(15 * sim.Second)
		tc.osds[2].Recover()
		tc.mon.MarkUp(2)
		// Immediately overwrite while backfill may be in flight.
		if err := tc.client.Write(p, "contested", payload(4_000, 9)); err != nil {
			t.Fatal(err)
		}
		p.Wait(20 * sim.Second)
		m := tc.client.Map()
		pg := m.PGForObject("contested")
		for _, id := range m.ActingSet(pg) {
			bl, err := objstore.Read(p, tc.stores[id], fmt.Sprintf("pg.%d", pg), "contested", 0, 0)
			if err != nil {
				t.Fatalf("osd.%d: %v", id, err)
			}
			if bl.CRC32C() != payload(4_000, 9).CRC32C() {
				t.Fatalf("osd.%d holds a stale copy", id)
			}
		}
	})
}

// TestPickBackfill pins the pusher-selection contract at the edges: no
// surviving replica yields no pusher (never a panic or a bogus push from an
// empty OSD), a crashed candidate is skipped because it is absent from the
// new acting set, and fully-overlapping sets produce no work.
func TestPickBackfill(t *testing.T) {
	cases := []struct {
		name        string
		oldSet, new []int32
		pusher      int32
		targets     []int32
	}{
		{"steady state", []int32{0, 1}, []int32{0, 1}, 0, nil},
		{"one newcomer", []int32{0, 1}, []int32{0, 2}, 0, []int32{2}},
		{"pusher is first survivor", []int32{3, 1}, []int32{1, 2}, 1, []int32{2}},
		{"crashed first member skipped", []int32{0, 1}, []int32{1, 2}, 1, []int32{2}},
		{"no surviving member", []int32{0, 1}, []int32{2, 3}, -1, nil},
		{"old set empty", nil, []int32{0, 1}, -1, nil},
		{"new set empty", []int32{0, 1}, nil, -1, nil},
		{"all newcomers but pusher", []int32{2}, []int32{0, 1, 2}, 2, []int32{0, 1}},
	}
	for _, c := range cases {
		pusher, targets := pickBackfill(c.oldSet, c.new)
		if pusher != c.pusher {
			t.Errorf("%s: pusher = %d, want %d", c.name, pusher, c.pusher)
		}
		if fmt.Sprint(targets) != fmt.Sprint(c.targets) {
			t.Errorf("%s: targets = %v, want %v", c.name, targets, c.targets)
		}
	}
	// "Pusher is first survivor" holds even when a later old member also
	// survives: 3 is gone, 1 survives and pushes, 0 does not.
	if p, _ := pickBackfill([]int32{3, 1, 0}, []int32{1, 0, 2}); p != 1 {
		t.Errorf("first-survivor tie-break: pusher = %d, want 1", p)
	}
}

// TestBackfillPusherCrashMidRecovery: the designated pusher dies while
// streaming. Pushes stop without wedging the cluster, the next map change
// re-runs pusher selection among the survivors, and once everyone is back
// every object converges onto its full acting set.
func TestBackfillPusherCrashMidRecovery(t *testing.T) {
	tc := newTestClusterCfg(t, 3, 2, Config{
		HeartbeatInterval: sim.Second, Monitor: "mon.0",
		RecoveryDelay: 50 * sim.Millisecond, // slow the stream so the crash lands mid-backfill
	})
	tc.run(t, func(p *sim.Proc) {
		var objs []string
		for i := 0; i < 30; i++ {
			obj := fmt.Sprintf("pc-%d", i)
			if err := tc.client.Write(p, obj, payload(8_000, byte(i))); err != nil {
				t.Fatal(err)
			}
			objs = append(objs, obj)
		}
		tc.osds[2].Fail()
		p.Wait(15 * sim.Second)
		tc.osds[2].Recover()
		tc.mon.MarkUp(2)
		p.Wait(500 * sim.Millisecond) // backfill under way
		tc.osds[0].Fail()             // kill one of the pushers mid-stream
		p.Wait(15 * sim.Second)
		tc.osds[0].Recover()
		tc.mon.MarkUp(0)
		p.Wait(40 * sim.Second)
		m := tc.client.Map()
		for i, obj := range objs {
			pg := m.PGForObject(obj)
			for _, id := range m.ActingSet(pg) {
				bl, err := objstore.Read(p, tc.stores[id], fmt.Sprintf("pg.%d", pg), obj, 0, 0)
				if err != nil {
					t.Fatalf("%s missing on osd.%d after pusher crash: %v", obj, id, err)
				}
				if bl.CRC32C() != payload(8_000, byte(i)).CRC32C() {
					t.Fatalf("%s corrupt on osd.%d", obj, id)
				}
			}
		}
	})
}

// TestRecoveryQoSPacesAndYields: with reservations, byte pacing and the
// op-queue watermark all on, backfill still converges — and each mechanism
// leaves its fingerprint in the stats.
func TestRecoveryQoSPacesAndYields(t *testing.T) {
	tc := newTestClusterCfg(t, 3, 2, Config{
		HeartbeatInterval: sim.Second, Monitor: "mon.0",
		OpWorkers:            1, // let the op queue actually build up
		RecoveryMaxPGs:       1,
		RecoveryBps:          64e3, // 64 KB/s (and 64 KB burst) under ~120 KB per pusher
		RecoveryBackoffDepth: 1,
	})
	tc.run(t, func(p *sim.Proc) {
		var objs []string
		for i := 0; i < 30; i++ {
			obj := fmt.Sprintf("qos-%d", i)
			if err := tc.client.Write(p, obj, payload(8_000, byte(i))); err != nil {
				t.Fatal(err)
			}
			objs = append(objs, obj)
		}
		tc.osds[2].Fail()
		p.Wait(15 * sim.Second)
		tc.osds[2].Recover()
		tc.mon.MarkUp(2)
		// Foreground load during the recovery window: writers hammering a
		// single-worker OSD keep the op queues non-empty so the watermark
		// backoff has something to yield to.
		stop := false
		for w := 0; w < 2; w++ {
			wid := w
			tc.env.Spawn(fmt.Sprintf("fg-writer-%d", wid), func(wp *sim.Proc) {
				wp.SetThread(sim.NewThread(fmt.Sprintf("fg-%d", wid), "client"))
				for i := 0; !stop; i++ {
					obj := fmt.Sprintf("fg-%d-%d", wid, i)
					if err := tc.client.Write(wp, obj, payload(8_000, byte(i))); err != nil {
						return
					}
				}
			})
		}
		p.Wait(20 * sim.Second)
		stop = true
		p.Wait(10 * sim.Second)

		var s Stats
		for _, o := range tc.osds {
			os := o.Stats()
			s.PGsBackfilled += os.PGsBackfilled
			s.RecoveryBytes += os.RecoveryBytes
			s.RecoveryThrottle += os.RecoveryThrottle
			s.RecoveryBackoffs += os.RecoveryBackoffs
			s.ObjectsRecovered += os.ObjectsRecovered
		}
		if s.ObjectsRecovered == 0 {
			t.Fatal("recovery never ran")
		}
		if s.PGsBackfilled == 0 {
			t.Fatal("no backfill reservations recorded")
		}
		if s.RecoveryBytes == 0 {
			t.Fatal("no recovery bytes accounted")
		}
		if s.RecoveryThrottle == 0 {
			t.Fatal("token bucket never throttled despite 64 KB/s cap")
		}
		if s.RecoveryBackoffs == 0 {
			t.Fatal("watermark backoff never fired despite foreground load")
		}
		// QoS must not compromise convergence: the pre-crash objects are
		// whole on the rejoined OSD wherever it serves them.
		m := tc.client.Map()
		checked := 0
		for i, obj := range objs {
			pg := m.PGForObject(obj)
			on2 := false
			for _, id := range m.ActingSet(pg) {
				on2 = on2 || id == 2
			}
			if !on2 {
				continue
			}
			checked++
			bl, err := objstore.Read(p, tc.stores[2], fmt.Sprintf("pg.%d", pg), obj, 0, 0)
			if err != nil {
				t.Fatalf("%s missing on rejoined osd under QoS: %v", obj, err)
			}
			if bl.CRC32C() != payload(8_000, byte(i)).CRC32C() {
				t.Fatalf("%s corrupt on rejoined osd", obj)
			}
		}
		if checked == 0 {
			t.Fatal("no objects mapped to the rejoined OSD; test is vacuous")
		}
	})
}

// TestRecoveryDisabled: with DisableRecovery nothing is pushed.
func TestRecoveryDisabled(t *testing.T) {
	tc := newTestClusterCfg(t, 3, 2, Config{
		HeartbeatInterval: sim.Second, Monitor: "mon.0", DisableRecovery: true,
	})
	tc.run(t, func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			if err := tc.client.Write(p, fmt.Sprintf("o-%d", i), payload(4_000, byte(i))); err != nil {
				t.Fatal(err)
			}
		}
		tc.osds[2].Fail()
		p.Wait(15 * sim.Second)
		tc.osds[2].Recover()
		tc.mon.MarkUp(2)
		p.Wait(20 * sim.Second)
		for _, o := range tc.osds {
			if o.Stats().ObjectsRecovered != 0 {
				t.Fatal("recovery ran despite DisableRecovery")
			}
		}
	})
}

// TestRecoveryAndScrubWithWireEncoding runs the rejoin + scrub flows with
// real message serialization, proving MPGPush/MPGPushAck/MScrub/MScrubReply
// survive their codecs end to end.
func TestRecoveryAndScrubWithWireEncoding(t *testing.T) {
	tc := newTestClusterWith(t, 3, 2, true, Config{
		HeartbeatInterval: sim.Second, Monitor: "mon.0",
	})
	tc.run(t, func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			if err := tc.client.Write(p, fmt.Sprintf("we-%d", i), payload(30_000, byte(i))); err != nil {
				t.Fatal(err)
			}
		}
		tc.osds[2].Fail()
		p.Wait(15 * sim.Second)
		tc.osds[2].Recover()
		tc.mon.MarkUp(2)
		p.Wait(25 * sim.Second)
		var recovered int64
		for _, o := range tc.osds {
			recovered += o.Stats().ObjectsRecovered
		}
		if recovered == 0 {
			t.Fatal("no recovery over encoded wire")
		}
		// Scrub over the encoded wire too.
		for _, o := range tc.osds {
			o.ScrubNow()
		}
		p.Wait(20 * sim.Second)
		var scrubbed int64
		for _, o := range tc.osds {
			scrubbed += o.Stats().ObjectsScrubbed
		}
		if scrubbed == 0 {
			t.Fatal("no scrubs over encoded wire")
		}
	})
}
