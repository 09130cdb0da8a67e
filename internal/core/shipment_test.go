package core

import (
	"fmt"
	"testing"

	"doceph/internal/objstore"
	"doceph/internal/sim"
)

// TestShipmentPathsKeepTheirEvents runs one bridge through each of a
// shipment's paths off the fast one — DMA errors in mid-transaction (the
// failed segments resent over RPC), whole transactions over RPC in cooldown,
// staging without pipelining and without the MR cache — with two writers of
// 5 MiB objects (three segments each) at once, then one more write after the
// cooldown. Each case pins the events the run fires, the fallback counters and
// the negotiations, as a proc running the same steps fired and counted
// them, and reads every object back from the host's BlueStore byte for byte.
func TestShipmentPathsKeepTheirEvents(t *testing.T) {
	for _, c := range []struct {
		name  string
		cfg   ProxyConfig
		fault func(r *coreRig)
		// The proc form's figures.
		events                                   uint64
		fallbackSegs, fallbackTxns, negotiations int64
	}{
		{"dma-errors", ProxyConfig{}, func(r *coreRig) { r.bridge.EngUp.FailEvery = 2 }, 339, 3, 3, 2},
		{"cooldown", ProxyConfig{}, func(r *coreRig) { r.bridge.EngUp.FailNext(1) }, 309, 1, 2, 2},
		{"no-pipeline", ProxyConfig{DisablePipeline: true}, func(*coreRig) {}, 249, 0, 0, 2},
		{"no-mr-cache", ProxyConfig{DisableMRCache: true}, func(*coreRig) {}, 355, 0, 0, 28},
	} {
		r := newCoreRig(BridgeConfig{Proxy: c.cfg})
		px := r.bridge.Proxy
		objects := map[string]byte{}
		write := func(p *sim.Proc, obj string, seed byte) {
			objects[obj] = seed
			if err := commitP(t, p, px, objstore.NewTransaction().Write("pg.0", obj, 0, seeded(5<<20, seed))); err != nil {
				t.Errorf("%s: write %s: %v", c.name, obj, err)
			}
		}
		r.run(t, func(p *sim.Proc) {
			if err := commitP(t, p, px, objstore.NewTransaction().MkColl("pg.0")); err != nil {
				t.Fatal(err)
			}
			c.fault(r)
			var both sim.Event
			left := 2
			for w := 0; w < 2; w++ {
				r.env.Spawn(fmt.Sprint("writer", w), func(wp *sim.Proc) {
					wp.SetThread(sim.NewThread(fmt.Sprint("dpu-osd-worker", w), "tp_osd_tp"))
					for i := 0; i < 2; i++ {
						write(wp, fmt.Sprintf("w%d-%d", w, i), byte(10*w+i))
					}
					if left--; left == 0 {
						both.Fire()
					}
				})
			}
			both.Wait(p)
			p.Wait(10 * sim.Second) // past any cooldown
			write(p, "after", 99)
			for obj, seed := range objects {
				if got, err := objstore.Read(p, r.store, "pg.0", obj, 0, 0); err != nil || !got.Equal(seeded(5<<20, seed)) {
					t.Errorf("%s: %s reads back err=%v, %d bytes", c.name, obj, err, lenOf(got))
				}
			}
		})
		st := px.Stats()
		events, negs := r.env.Events(), r.bridge.CC.Negotiations()
		t.Logf("%s: %d events, %d fallback segments, %d fallback txns, %d negotiations",
			c.name, events, st.FallbackSegments, st.FallbackTxns, negs)
		if events != c.events || st.FallbackSegments != c.fallbackSegs || st.FallbackTxns != c.fallbackTxns || negs != c.negotiations {
			t.Errorf("%s: %d events, %d fallback segments, %d fallback txns, %d negotiations; pinned %d, %d, %d, %d",
				c.name, events, st.FallbackSegments, st.FallbackTxns, negs,
				c.events, c.fallbackSegs, c.fallbackTxns, c.negotiations)
		}
	}
}
