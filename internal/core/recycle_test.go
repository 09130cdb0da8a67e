package core

import (
	"fmt"
	"reflect"
	"testing"

	"doceph/internal/objstore"
	"doceph/internal/sim"
	"doceph/internal/wire"
)

// TestReadReturnDMAErrorFallsBackToRPC: a read whose data segment fails on
// the way back does what one whose descriptor fails does — cooldown, then the
// whole read again over RPC — for a one-segment and a three-segment reply; the
// reply's segments still to come are ignored.
func TestReadReturnDMAErrorFallsBackToRPC(t *testing.T) {
	for _, size := range []int{4 << 10, 5 << 20} {
		r := newCoreRig(BridgeConfig{})
		r.run(t, func(p *sim.Proc) {
			px := r.bridge.Proxy
			data := seeded(size, 3)
			if err := commitP(t, p, px, objstore.NewTransaction().MkColl("pg.0").Write("pg.0", "o", 0, data)); err != nil {
				t.Fatal(err)
			}
			r.bridge.EngDown.SetFailProb(1)
			got, err := px.Read(p, "pg.0", "o", 0, 0)
			r.bridge.EngDown.SetFailProb(0)
			if err != nil || !got.Equal(data) {
				t.Fatalf("%d B: read err=%v, %d bytes; want the object", size, err, lenOf(got))
			}
			st := px.Stats()
			if st.Reads != 1 || st.CooldownEntries != 1 || px.DMAHealthy() {
				t.Fatalf("%d B: %d reads by DMA, %d cooldowns, healthy %v; want 1, 1, false",
					size, st.Reads, st.CooldownEntries, px.DMAHealthy())
			}
			if fails, segs := r.bridge.EngDown.Stats().Errors, int64((size+int(readStagingBufferBytes)-1)/int(readStagingBufferBytes)); fails != segs {
				t.Fatalf("%d B: %d return segments failed, want all %d", size, fails, segs)
			}
			p.Wait(10 * sim.Second) // the later segments land and the cooldown ends
			if errs := px.Stats().ReadFrameErrors; errs != 0 || len(px.pendingReads) != 0 {
				t.Fatalf("%d B: %d frame errors, %d reads pending", size, errs, len(px.pendingReads))
			}
			if got, err := px.Read(p, "pg.0", "o", 0, 0); err != nil || !got.Equal(data) || px.Stats().Reads != 2 {
				t.Fatalf("%d B: read after the cooldown err=%v, %d reads by DMA", size, err, px.Stats().Reads)
			}
		})
	}
}

// TestRecycledRecordsHoldNothing runs a mixed workload that drains — 4 KiB and
// 5 MiB reads, one- and three-segment writes, a write into a missing
// collection, four clients at once, then one failure window on each engine —
// per-op and batched. Afterwards each free list holds every record it made
// but those knowingly left to the GC on an error path, and every record it
// holds is the zero value: a release point that comes too early shows up as
// corrupt data or a stuck op, one that never comes as a short list, and a
// release that does not zero as a record holding something.
func TestRecycledRecordsHoldNothing(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  BridgeConfig
	}{
		{"per-op", BridgeConfig{}},
		{"batched", BridgeConfig{Batch: BatchConfig{Enable: true}}},
	} {
		r := newCoreRig(c.cfg)
		px := r.bridge.Proxy
		small, big := seeded(4<<10, 1), seeded(5<<20, 2)
		objects := map[string]*wire.Bufferlist{"small": small, "big": big}
		read := func(p *sim.Proc, obj string) {
			if got, err := px.Read(p, "pg.0", obj, 0, 0); err != nil || !got.Equal(objects[obj]) {
				t.Errorf("%s: read %s: err=%v, %d bytes", c.name, obj, err, lenOf(got))
			}
		}
		write := func(p *sim.Proc, coll string, data *wire.Bufferlist) *objstore.Result {
			return px.QueueTransaction(p, objstore.NewTransaction().Write(coll, "w", 0, data))
		}
		mix := func(p *sim.Proc) {
			for i, res := range []*objstore.Result{
				write(p, "pg.0", small), write(p, "pg.0", big), write(p, "pg.0", seeded(1<<20, 3)),
				write(p, "nowhere", small),
			} {
				if res.Done.Wait(p); (res.Err != nil) != (i == 3) {
					t.Errorf("%s: write %d: err=%v", c.name, i, res.Err)
				}
			}
			read(p, "small")
			read(p, "big")
		}
		// together runs each body on its own client and waits for all.
		together := func(p *sim.Proc, bodies ...func(*sim.Proc)) {
			var left sim.Event
			n := len(bodies)
			for i, body := range bodies {
				r.env.Spawn(fmt.Sprint("client", i), func(cp *sim.Proc) {
					cp.SetThread(sim.NewThread(fmt.Sprint("dpu-osd-worker", i), "tp_osd_tp"))
					body(cp)
					if n--; n == 0 {
						left.Fire()
					}
				})
			}
			left.Wait(p)
		}
		r.run(t, func(p *sim.Proc) {
			if err := commitP(t, p, px, objstore.NewTransaction().MkColl("pg.0").
				Write("pg.0", "small", 0, small).Write("pg.0", "big", 0, big)); err != nil {
				t.Fatal(err)
			}
			together(p, mix, mix, mix, mix)
			// EngUp: the read's descriptor and every segment of the write fail.
			r.bridge.EngUp.SetFailProb(1)
			together(p, func(p *sim.Proc) { read(p, "small") },
				func(p *sim.Proc) { write(p, "pg.0", big).Done.Wait(p) })
			r.bridge.EngUp.SetFailProb(0)
			p.Wait(10 * sim.Second) // past the cooldown
			// EngDown: both replies fail on the way back.
			r.bridge.EngDown.SetFailProb(1)
			together(p, func(p *sim.Proc) { read(p, "small") }, func(p *sim.Proc) { read(p, "big") })
			r.bridge.EngDown.SetFailProb(0)
			p.Wait(10 * sim.Second)
			together(p, mix, mix, mix, mix)
			p.Wait(sim.Second) // the last notifications are consumed
		})
		if !px.DMAHealthy() || px.Stats().CooldownEntries != 2 {
			t.Fatalf("%s: %d cooldowns, healthy %v; want one per window, then healthy", c.name, px.Stats().CooldownEntries, px.DMAHealthy())
		}
		recs := px.recs
		if recs != r.bridge.Host.recs {
			t.Fatalf("%s: the proxy and the host of one partition use different lists", c.name)
		}
		// Left to the GC: the read whose descriptor failed and the write
		// table whose segments did (EngUp), and both reads on each side
		// whose replies failed (EngDown).
		checkList(t, c.name+": pendingRead", recs.reads.free, recs.reads.made, 3)
		checkList(t, c.name+": hostRead", recs.hostReads.free, recs.hostReads.made, 2)
		checkList(t, c.name+": hostTxn", recs.hostTxns.free, recs.hostTxns.made, 0)
		if got, want := len(recs.segs.free), recs.segs.made-1; got != want {
			t.Errorf("%s: segment tables: %d listed, want %d made less 1", c.name, got, want)
		}
		for _, tab := range recs.segs.free {
			for i, sg := range tab[:cap(tab)] {
				if !reflect.ValueOf(sg).IsZero() {
					t.Errorf("%s: a listed segment table holds segment %d: %+v", c.name, i, sg)
				}
			}
		}
		if reads := px.Stats().Reads; int64(recs.reads.made) >= reads {
			t.Errorf("%s: %d pendingReads made for %d reads by DMA: none reused", c.name, recs.reads.made, reads)
		}
	}
}

// checkList fails unless free holds made records less the leaked ones, every
// one of them the zero value.
func checkList[T any](t *testing.T, what string, free []*T, made, leaked int) {
	t.Helper()
	t.Logf("%s: %d made, %d listed", what, made, len(free))
	if made <= leaked || len(free) != made-leaked {
		t.Errorf("%s: %d listed of %d made; want all but %d", what, len(free), made, leaked)
	}
	for _, r := range free {
		if !reflect.ValueOf(*r).IsZero() {
			t.Errorf("%s: a listed record holds %+v", what, *r)
		}
	}
}
