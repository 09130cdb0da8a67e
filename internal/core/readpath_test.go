package core

import (
	"errors"
	"fmt"
	"testing"

	"doceph/internal/doca"
	"doceph/internal/objstore"
	"doceph/internal/sim"
	"doceph/internal/wire"
)

// scriptStep is one step of a reader's script: wait, set a fault up, then read
// the range of coll/obj (n 0 = to EOF) and check the answer against want, or
// against err when want is nil.
type scriptStep struct {
	wait      sim.Duration
	fault     func(r *coreRig)
	coll, obj string
	off, n    uint64
	want      *wire.Bufferlist
	err       error
}

// readPathCase is one of TestReadPathsKeepTheirEvents's runs: its bridge, the
// readers' scripts and the proc form's figures.
type readPathCase struct {
	name    string
	cfg     BridgeConfig
	readers [][]scriptStep
	// abandoned is how many pendingRead and hostRead records an error path
	// leaves to the GC, as a fallback: a failed descriptor's, which the
	// host's poller may still look at, and on the host a failed reply's.
	abandoned [2]int
	// sample has the body watch the host's staging buffers every
	// millisecond: some reader must find none free.
	sample bool
	events uint64
	// reads by DMA, probes, failed probes, cooldowns and negotiations
	stats [5]int64
}

// TestReadPathsKeepTheirEvents runs the read path through each of its ways on
// one bridge — a DMA read of one segment and of several, a read over RPC in
// cooldown, a probe that re-enables DMA and one that fails, a
// descriptor or a data segment failing (the read goes again over RPC), a
// missing object, collection or zero-length object answered through
// opReadDone, readers waiting for the host's staging buffers, and no MR cache.
// Each case runs its readers as procs awaiting ReadThen (objstore.Read) and
// as task chains calling it, and both pin the events the run fires and the
// proxy's counters as a proc-form Read fired and counted them, and read every
// range back byte for byte.
func TestReadPathsKeepTheirEvents(t *testing.T) {
	small, big, empty := seeded(4096, 1), seeded(5<<20, 2), seeded(0, 3)
	read := func(obj string, off, n uint64, want *wire.Bufferlist) scriptStep {
		if want != nil && (off != 0 || n != 0) {
			want = want.SubList(int(off), int(n))
		}
		return scriptStep{coll: "pg.0", obj: obj, off: off, n: n, want: want}
	}
	failing := func(s scriptStep, fault func(r *coreRig)) scriptStep {
		s.fault = fault
		return s
	}
	after := func(d sim.Duration, s scriptStep) scriptStep {
		s.wait = d
		return s
	}
	cooldown := BridgeConfig{Proxy: ProxyConfig{CooldownPeriod: 2 * sim.Second}}
	cases := []readPathCase{
		{name: "dma", events: 114, stats: [5]int64{3, 0, 0, 0, 2},
			readers: [][]scriptStep{{read("small", 0, 4096, small), read("small", 0, 0, small),
				read("small", 1000, 500, small)}}},
		{name: "multi-segment", events: 116, stats: [5]int64{2, 0, 0, 0, 2},
			readers: [][]scriptStep{{read("big", 0, 0, big), read("big", 1<<20, 3<<20, big)}}},
		{name: "cooldown-rpc", abandoned: [2]int{1, 0}, events: 108, stats: [5]int64{1, 0, 0, 1, 2}, cfg: cooldown,
			readers: [][]scriptStep{{failing(read("small", 0, 0, small), func(r *coreRig) { r.bridge.EngUp.FailNext(1) }),
				read("small", 0, 0, small), read("big", 0, 0, big)}}},
		{name: "probe", abandoned: [2]int{1, 0}, events: 159, stats: [5]int64{3, 2, 1, 1, 2}, cfg: cooldown,
			readers: [][]scriptStep{{failing(read("small", 0, 0, small), func(r *coreRig) { r.bridge.EngUp.FailNext(1) }),
				after(3*sim.Second, failing(read("small", 0, 0, small), func(r *coreRig) { r.bridge.EngUp.FailNext(1) })),
				after(3*sim.Second, read("big", 0, 0, big)), read("small", 0, 0, small)}}},
		{name: "data-segment-error", abandoned: [2]int{0, 2}, events: 186, stats: [5]int64{3, 2, 0, 2, 2},
			readers: [][]scriptStep{{failing(read("small", 0, 0, small), func(r *coreRig) { r.bridge.EngDown.FailNext(1) }),
				failing(after(6*sim.Second, read("big", 0, 0, big)), func(r *coreRig) { r.bridge.EngDown.SetFailProb(1) }),
				failing(after(6*sim.Second, read("big", 0, 0, big)), func(r *coreRig) { r.bridge.EngDown.SetFailProb(0) })}}},
		{name: "missing", events: 113, stats: [5]int64{4, 0, 0, 0, 2},
			readers: [][]scriptStep{{{coll: "pg.0", obj: "nothing", err: objstore.ErrNotFound},
				{coll: "pg.9", obj: "small", err: objstore.ErrNoCollection},
				read("empty", 0, 0, empty), read("small", 8192, 100, nil)}}},
		// 64 KiB transfers: the host stages a reply's eighty segments, a
		// staging buffer each, faster than the engine drains them.
		{name: "staging-wait", sample: true, events: 2013, stats: [5]int64{2, 0, 0, 0, 2},
			cfg:     BridgeConfig{Engine: doca.EngineConfig{MaxTransferBytes: 64 << 10}},
			readers: [][]scriptStep{{read("big", 0, 0, big)}, {read("big", 0, 0, big)}}},
		{name: "no-mr-cache", events: 168, stats: [5]int64{3, 0, 0, 0, 11},
			cfg:     BridgeConfig{Proxy: ProxyConfig{DisableMRCache: true}},
			readers: [][]scriptStep{{read("small", 0, 0, small), read("big", 0, 0, big)}, {read("big", 0, 0, big)}}},
	}
	for _, c := range cases {
		for _, chains := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/chains=%v", c.name, chains), func(t *testing.T) {
				r := newCoreRig(c.cfg)
				px := r.bridge.Proxy
				check := func(s scriptStep, got *wire.Bufferlist, err error) {
					switch {
					case s.want == nil && s.err == nil && (err != nil || got.Length() != 0):
						t.Errorf("read %s/%s past its end: err=%v, %d bytes; want nothing", s.coll, s.obj, err, lenOf(got))
					case s.want == nil && s.err != nil && !errors.Is(err, s.err):
						t.Errorf("read %s/%s: err=%v, want %v", s.coll, s.obj, err, s.err)
					case s.want != nil && (err != nil || !got.Equal(s.want)):
						t.Errorf("read %s/%s [%d+%d]: err=%v, %d bytes; want the data", s.coll, s.obj, s.off, s.n, err, lenOf(got))
					}
				}
				r.run(t, func(p *sim.Proc) {
					if err := commitP(t, p, px, objstore.NewTransaction().MkColl("pg.0").Write("pg.0", "small", 0, small).
						Write("pg.0", "big", 0, big).Write("pg.0", "empty", 0, empty)); err != nil {
						t.Fatal(err)
					}
					var all sim.Event
					left := len(c.readers)
					done := func() {
						if left--; left == 0 {
							all.Fire()
						}
					}
					for i, steps := range c.readers {
						th := sim.NewThread(fmt.Sprint("dpu-osd-worker", i), "tp_osd_tp")
						if chains {
							r.env.Delay(0, &chainReader{r: r, th: th, steps: steps, check: check, done: done})
							continue
						}
						r.env.Spawn(th.Name, func(p *sim.Proc) {
							p.SetThread(th)
							for _, s := range steps {
								if s.wait > 0 {
									p.Wait(s.wait)
								}
								if s.fault != nil {
									s.fault(r)
								}
								got, err := objstore.Read(p, px, s.coll, s.obj, s.off, s.n)
								check(s, got, err)
							}
							done()
						})
					}
					if !c.sample {
						all.Wait(p)
						return
					}
					least := r.bridge.Host.readBuf.Capacity()
					for !all.Fired() {
						p.Wait(sim.Millisecond)
						least = min(least, r.bridge.Host.readBuf.Available())
					}
					if least != 0 {
						t.Errorf("%d host staging buffers free at the least: no reader waited for one", least)
					}
				})
				st := px.Stats()
				got := [5]int64{st.Reads, st.Probes, st.ProbeFailures, st.CooldownEntries, r.bridge.CC.Negotiations()}
				t.Logf("%d events; reads by DMA, probes, failed probes, cooldowns, negotiations: %v", r.env.Events(), got)
				if r.env.Events() != c.events || got != c.stats {
					t.Errorf("%d events, counters %v; pinned %d, %v", r.env.Events(), got, c.events, c.stats)
				}
				if err := r.bridge.Quiescent(); err != nil {
					t.Errorf("not at rest after the run: %v", err)
				}
				if out := r.env.RecordsOut(); out != nil {
					t.Errorf("records out after the run: %v", out)
				}
				ab := [2]int{px.reads.Abandoned(sim.Fallback), r.bridge.Host.hostReads.Abandoned(sim.Fallback)}
				if ab != c.abandoned {
					t.Errorf("%v pendingRead and hostRead records abandoned as fallbacks; want %v", ab, c.abandoned)
				}
			})
		}
	}
}

// chainReader is a reader as a task chain: its script's waits by Delay, its
// reads by ReadThen, started as a proc reader would be spawned.
type chainReader struct {
	r       *coreRig
	th      *sim.Thread
	steps   []scriptStep
	check   func(scriptStep, *wire.Bufferlist, error)
	done    func()
	i       int
	waited  bool
	reading bool
	call    objstore.Call
	// into, when set, is the caller's list each read is viewed into.
	into *wire.Bufferlist
}

func (c *chainReader) Run() {
	for {
		if c.reading {
			c.reading = false
			c.check(c.steps[c.i], c.call.Data, c.call.Err)
			c.i, c.waited = c.i+1, false
		}
		if c.i == len(c.steps) {
			c.done()
			return
		}
		s := c.steps[c.i]
		if s.wait > 0 && !c.waited {
			c.waited = true
			c.r.env.Delay(s.wait, c)
			return
		}
		if s.fault != nil {
			s.fault(c.r)
		}
		c.call = objstore.Call{Coll: s.coll, Object: s.obj, Off: s.off, Length: s.n}
		if c.into != nil {
			c.into.Reset()
			c.call.Data = c.into
		}
		c.reading = true
		if c.r.bridge.Proxy.ReadThen(c.th, &c.call, c) {
			return
		}
	}
}
