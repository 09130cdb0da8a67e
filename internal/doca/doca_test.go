package doca

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"doceph/internal/sim"
	"doceph/internal/wire"
)

type dmaRig struct {
	env     *sim.Env
	dpuCPU  *sim.CPU
	hostCPU *sim.CPU
	hostTh  *sim.Thread
	cc      *CommChannel
	eng     *Engine
	src     *MemRegion
	dst     *MemRegion
}

func newDMARig(cfg EngineConfig) *dmaRig {
	env := sim.NewEnv(1)
	r := &dmaRig{
		env:     env,
		dpuCPU:  sim.NewCPU(env, "arm", 8, 2.0, 2000),
		hostCPU: sim.NewCPU(env, "host", 8, 3.7, 2000),
	}
	r.hostTh = sim.NewThread("host-rpc", "rpc-server")
	r.cc = NewCommChannel(env, r.dpuCPU, r.hostCPU, r.hostTh, CommChannelConfig{})
	r.eng = NewEngine(env, "dma0", cfg)
	r.src = NewMemRegion("dpu-buf", 2<<20)
	r.dst = NewMemRegion("host-buf", 2<<20)
	return r
}

func (r *dmaRig) run(t *testing.T, body func(p *sim.Proc)) {
	t.Helper()
	done := false
	r.env.Spawn("body", func(p *sim.Proc) {
		p.SetThread(sim.NewThread("dpu-proxy", "proxy"))
		body(p)
		done = true
	})
	if err := r.env.RunUntil(sim.Time(60 * sim.Second)); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("body did not finish")
	}
	r.env.Shutdown()
}

func TestNegotiationExportsRegion(t *testing.T) {
	r := newDMARig(EngineConfig{})
	r.run(t, func(p *sim.Proc) {
		if r.src.Exported() {
			t.Fatal("region exported before negotiation")
		}
		before := p.Now()
		r.cc.Negotiate(p, r.src)
		if !r.src.Exported() {
			t.Fatal("region not exported")
		}
		if p.Now().Sub(before) < DefaultCommChannelConfig().RTT {
			t.Fatal("negotiation was free")
		}
		if r.cc.Negotiations() != 1 {
			t.Fatalf("negotiations=%d", r.cc.Negotiations())
		}
	})
}

func TestDMARequiresExportedRegions(t *testing.T) {
	r := newDMARig(EngineConfig{})
	r.run(t, func(p *sim.Proc) {
		tr := &Transfer{Bytes: 1024, Src: r.src, Dst: r.dst,
			Data: wire.FromBytes(make([]byte, 1024))}
		if err := r.eng.Submit(p, r.dpuCPU, tr); !errors.Is(err, ErrNotExported) {
			t.Fatalf("err=%v", err)
		}
		r.cc.Negotiate(p, r.src)
		r.cc.Negotiate(p, r.dst)
		if err := r.eng.Submit(p, r.dpuCPU, tr); err != nil {
			t.Fatal(err)
		}
		tr.Done.Wait(p)
		if tr.Err != nil {
			t.Fatal(tr.Err)
		}
	})
}

func TestDMASizeLimitEnforced(t *testing.T) {
	r := newDMARig(EngineConfig{})
	r.run(t, func(p *sim.Proc) {
		r.cc.Negotiate(p, r.src)
		r.cc.Negotiate(p, r.dst)
		tr := &Transfer{Bytes: 3 << 20, Src: r.src, Dst: r.dst}
		if err := r.eng.Submit(p, r.dpuCPU, tr); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("err=%v", err)
		}
		ok := &Transfer{Bytes: 2 << 20, Src: r.src, Dst: r.dst}
		if err := r.eng.Submit(p, r.dpuCPU, ok); err != nil {
			t.Fatal(err)
		}
		ok.Done.Wait(p)
	})
}

func TestDMATransferTimingAndStats(t *testing.T) {
	r := newDMARig(EngineConfig{BytesPerSec: 4e9, SetupTime: 25 * sim.Microsecond,
		JitterPct: -1})
	r.run(t, func(p *sim.Proc) {
		r.cc.Negotiate(p, r.src)
		r.cc.Negotiate(p, r.dst)
		tr := &Transfer{Bytes: 2 << 20, Src: r.src, Dst: r.dst}
		if err := r.eng.Submit(p, r.dpuCPU, tr); err != nil {
			t.Fatal(err)
		}
		tr.Done.Wait(p)
		// 2 MiB at 4 GB/s = 524 us + 25 us setup.
		want := 25*sim.Microsecond + sim.Duration(float64(2<<20)/4e9*float64(sim.Second))
		if d := tr.CopyTime() - want; d < -sim.Microsecond || d > sim.Microsecond {
			t.Fatalf("copy=%v want %v", tr.CopyTime(), want)
		}
		st := r.eng.Stats()
		if st.Transfers != 1 || st.Bytes != 2<<20 {
			t.Fatalf("stats=%+v", st)
		}
	})
}

func TestDMASerializationQueueWait(t *testing.T) {
	r := newDMARig(EngineConfig{BytesPerSec: 4e9, JitterPct: -1})
	r.run(t, func(p *sim.Proc) {
		r.cc.Negotiate(p, r.src)
		r.cc.Negotiate(p, r.dst)
		var trs []*Transfer
		for i := 0; i < 3; i++ {
			tr := &Transfer{Bytes: 2 << 20, Src: r.src, Dst: r.dst, Seg: i}
			if err := r.eng.Submit(p, r.dpuCPU, tr); err != nil {
				t.Fatal(err)
			}
			trs = append(trs, tr)
		}
		for _, tr := range trs {
			tr.Done.Wait(p)
		}
		// The third transfer waited for the first two.
		if trs[2].Wait() <= trs[0].Wait() {
			t.Fatalf("waits: %v %v %v", trs[0].Wait(), trs[1].Wait(), trs[2].Wait())
		}
	})
}

func TestDMAPayloadDelivered(t *testing.T) {
	r := newDMARig(EngineConfig{})
	r.run(t, func(p *sim.Proc) {
		r.cc.Negotiate(p, r.src)
		r.cc.Negotiate(p, r.dst)
		data := wire.FromBytes([]byte("dma payload"))
		tr := &Transfer{Bytes: int64(data.Length()), Src: r.src, Dst: r.dst,
			Data: data, Tag: "req-7"}
		if err := r.eng.Submit(p, r.dpuCPU, tr); err != nil {
			t.Fatal(err)
		}
		got := r.eng.Completions().Pop(p)
		if got != tr || got.Tag != "req-7" || !got.Data.Equal(data) {
			t.Fatal("completion mismatch")
		}
	})
}

func TestFailNextInjectsErrors(t *testing.T) {
	r := newDMARig(EngineConfig{})
	r.run(t, func(p *sim.Proc) {
		r.cc.Negotiate(p, r.src)
		r.cc.Negotiate(p, r.dst)
		r.eng.FailNext(1)
		bad := &Transfer{Bytes: 1024, Src: r.src, Dst: r.dst}
		if err := r.eng.Submit(p, r.dpuCPU, bad); err != nil {
			t.Fatal(err)
		}
		bad.Done.Wait(p)
		if !errors.Is(bad.Err, ErrTransferFailed) {
			t.Fatalf("err=%v", bad.Err)
		}
		good := &Transfer{Bytes: 1024, Src: r.src, Dst: r.dst}
		if err := r.eng.Submit(p, r.dpuCPU, good); err != nil {
			t.Fatal(err)
		}
		good.Done.Wait(p)
		if good.Err != nil {
			t.Fatal(good.Err)
		}
		if r.eng.Stats().Errors != 1 {
			t.Fatalf("errors=%d", r.eng.Stats().Errors)
		}
	})
}

func TestFailEvery(t *testing.T) {
	r := newDMARig(EngineConfig{})
	r.eng.FailEvery = 3
	r.run(t, func(p *sim.Proc) {
		r.cc.Negotiate(p, r.src)
		r.cc.Negotiate(p, r.dst)
		fails := 0
		for i := 0; i < 9; i++ {
			tr := &Transfer{Bytes: 1024, Src: r.src, Dst: r.dst}
			if err := r.eng.Submit(p, r.dpuCPU, tr); err != nil {
				t.Fatal(err)
			}
			tr.Done.Wait(p)
			if tr.Err != nil {
				fails++
			}
		}
		if fails != 3 {
			t.Fatalf("fails=%d want 3", fails)
		}
	})
}

func TestMultiChannelParallelism(t *testing.T) {
	// Two requests of equal size: on one channel they serialize, on two
	// channels they overlap.
	elapsed := func(channels int) sim.Duration {
		r := newDMARig(EngineConfig{Queues: channels, JitterPct: -1})
		var last sim.Time
		r.run(t, func(p *sim.Proc) {
			r.cc.Negotiate(p, r.src)
			r.cc.Negotiate(p, r.dst)
			var trs []*Transfer
			for req := uint64(1); req <= 2; req++ {
				tr := &Transfer{ReqID: req, Bytes: 2 << 20, Src: r.src, Dst: r.dst}
				if err := r.eng.Submit(p, r.dpuCPU, tr); err != nil {
					t.Fatal(err)
				}
				trs = append(trs, tr)
			}
			for _, tr := range trs {
				tr.Done.Wait(p)
				if tr.CompletedAt > last {
					last = tr.CompletedAt
				}
			}
		})
		return last.Sub(0)
	}
	one, two := elapsed(1), elapsed(2)
	if two >= one {
		t.Fatalf("2 channels (%v) not faster than 1 (%v)", two, one)
	}
}

func TestChannelsPreservePerRequestOrder(t *testing.T) {
	r := newDMARig(EngineConfig{Queues: 4})
	r.run(t, func(p *sim.Proc) {
		r.cc.Negotiate(p, r.src)
		r.cc.Negotiate(p, r.dst)
		var trs []*Transfer
		for req := uint64(1); req <= 8; req++ {
			for seg := 0; seg < 3; seg++ {
				tr := &Transfer{ReqID: req, Seg: seg, TotalSegs: 3,
					Bytes: 256 << 10, Src: r.src, Dst: r.dst}
				if err := r.eng.Submit(p, r.dpuCPU, tr); err != nil {
					t.Fatal(err)
				}
				trs = append(trs, tr)
			}
		}
		started := map[uint64]sim.Time{}
		for _, tr := range trs {
			tr.Done.Wait(p)
		}
		// Within a request, segments must start in submission order
		// (channel pinning by request id guarantees this).
		for _, tr := range trs {
			if tr.Seg == 0 {
				started[tr.ReqID] = tr.StartedAt
				continue
			}
			if tr.StartedAt < started[tr.ReqID] {
				t.Fatalf("req %d seg %d started before seg 0", tr.ReqID, tr.Seg)
			}
		}
	})
}

func TestReserveQueueJSQAndUnreserve(t *testing.T) {
	r := newDMARig(EngineConfig{Queues: 4})
	// Empty queues: JSQ fills 0,1,2,3 (ties break to the lowest index),
	// then wraps back to 0 once every queue holds one reservation.
	for i, want := range []int{0, 1, 2, 3, 0} {
		if got := r.eng.ReserveQueue(); got != want {
			t.Fatalf("reservation %d: queue %d, want %d", i, got, want)
		}
	}
	// A pinned submit that fails validation must release its depth slot:
	// queue 1 now holds one reservation fewer than its siblings, so JSQ
	// must pick it next.
	r.run(t, func(p *sim.Proc) {
		bad := &Transfer{Bytes: 3 << 20, Src: r.src, Dst: r.dst, Queue: 2}
		if err := r.eng.Submit(p, r.dpuCPU, bad); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("err=%v", err)
		}
		if got := r.eng.ReserveQueue(); got != 1 {
			t.Fatalf("after unreserve: queue %d, want 1", got)
		}
	})
}

func TestPinnedTransferRidesReservedQueue(t *testing.T) {
	r := newDMARig(EngineConfig{Queues: 4, JitterPct: -1})
	r.run(t, func(p *sim.Proc) {
		r.cc.Negotiate(p, r.src)
		r.cc.Negotiate(p, r.dst)
		idx := r.eng.ReserveQueue()
		if idx != 0 {
			t.Fatalf("first reservation on queue %d", idx)
		}
		// ReqID 1 would hash-steer to queue 1; the pin must win.
		tr := &Transfer{ReqID: 1, Bytes: 64 << 10, Src: r.src, Dst: r.dst,
			Queue: idx + 1}
		if err := r.eng.Submit(p, r.dpuCPU, tr); err != nil {
			t.Fatal(err)
		}
		tr.Done.Wait(p)
		qs := r.eng.QueueStats()
		if qs[0].Transfers != 1 || qs[1].Transfers != 0 {
			t.Fatalf("queue stats %+v: pinned transfer did not ride queue 0", qs)
		}
		if qs[0].MaxDepth != 1 {
			t.Fatalf("MaxDepth=%d, want 1", qs[0].MaxDepth)
		}
	})
}

func TestReuseSetupAmortizedAcrossFrames(t *testing.T) {
	r := newDMARig(EngineConfig{Queues: 1, BytesPerSec: 4e9, JitterPct: -1})
	cfg := r.eng.Config()
	submit := func(p *sim.Proc, req uint64, reuse bool) *Transfer {
		tr := &Transfer{ReqID: req, Bytes: 64 << 10, Src: r.src, Dst: r.dst,
			ReuseSetup: reuse}
		if err := r.eng.Submit(p, r.dpuCPU, tr); err != nil {
			t.Fatal(err)
		}
		tr.Done.Wait(p)
		return tr
	}
	r.run(t, func(p *sim.Proc) {
		r.cc.Negotiate(p, r.src)
		r.cc.Negotiate(p, r.dst)
		first := submit(p, 1, true)  // cold queue: full setup
		second := submit(p, 2, true) // previous frame was ReuseSetup: amortized
		third := submit(p, 3, false) // plain transfer breaks the chain
		fourth := submit(p, 4, true) // chain broken: full setup again
		saved := cfg.SetupTime - cfg.ReuseSetupTime
		if d := first.CopyTime() - second.CopyTime(); d != saved {
			t.Fatalf("amortization saved %v, want %v", d, saved)
		}
		if fourth.CopyTime() != first.CopyTime() {
			t.Fatalf("chain not reset by plain transfer: %v vs %v",
				fourth.CopyTime(), first.CopyTime())
		}
		_ = third
	})
}

func TestQueueStatsSumToEngineStats(t *testing.T) {
	r := newDMARig(EngineConfig{Queues: 4})
	r.run(t, func(p *sim.Proc) {
		r.cc.Negotiate(p, r.src)
		r.cc.Negotiate(p, r.dst)
		var trs []*Transfer
		for req := uint64(1); req <= 12; req++ {
			tr := &Transfer{ReqID: req, Bytes: 32 << 10, Src: r.src, Dst: r.dst,
				Ops: 2}
			if err := r.eng.Submit(p, r.dpuCPU, tr); err != nil {
				t.Fatal(err)
			}
			trs = append(trs, tr)
		}
		for _, tr := range trs {
			tr.Done.Wait(p)
		}
		var transfers, ops, bytes int64
		var busy sim.Duration
		used := 0
		for _, qs := range r.eng.QueueStats() {
			transfers += qs.Transfers
			ops += qs.OpsMoved
			bytes += qs.Bytes
			busy += qs.Busy
			if qs.Transfers > 0 {
				used++
			}
		}
		st := r.eng.Stats()
		if transfers != st.Transfers || ops != st.OpsMoved ||
			bytes != st.Bytes || busy != st.Busy {
			t.Fatalf("per-queue sums (%d/%d/%d/%v) != engine stats (%d/%d/%d/%v)",
				transfers, ops, bytes, busy, st.Transfers, st.OpsMoved, st.Bytes, st.Busy)
		}
		if st.Transfers != 12 || st.OpsMoved != 24 {
			t.Fatalf("stats=%+v", st)
		}
		if used < 2 {
			t.Fatalf("only %d queues carried transfers", used)
		}
	})
}

// TestQueueReleasesPoppedTransfers: a transfer that has left a DMA queue must
// not stay reachable through the queue's backing array — its Data is a whole
// segment.
func TestQueueReleasesPoppedTransfers(t *testing.T) {
	q := &dmaQueue{}
	freed := make(chan uint64, 2)
	for req := uint64(1); req <= 2; req++ {
		tr := &Transfer{ReqID: req, Data: wire.FromBytes(make([]byte, 64))}
		runtime.SetFinalizer(tr, func(tr *Transfer) { freed <- tr.ReqID })
		q.pending = append(q.pending, tr)
	}
	q.lastReq, q.haveLast = 2, true
	q.take() // affinity takes the tail first, shifting nothing
	q.haveLast = false
	q.take()
	q.pending = append(q.pending, &Transfer{}) // keeps the backing array in use
	for want := 2; want > 0; {
		runtime.GC()
		select {
		case <-freed:
			want--
		case <-time.After(5 * time.Second):
			t.Fatalf("%d popped transfer(s) still reachable after GC", want)
		}
	}
	runtime.KeepAlive(q)
}

// submitChain negotiates both regions and submits its transfer as a task
// chain: NegotiateThen twice, then Validate, ChargeSubmit and Enqueue, then
// Event.WaitThen for the transfer.
type submitChain struct {
	r    *dmaRig
	th   *sim.Thread
	t    *Transfer
	log  func(string)
	step int
}

func (c *submitChain) Run() {
	r := c.r
	for {
		c.step++
		switch c.step {
		case 1:
			if r.cc.NegotiateThen(c.th, r.src, c) {
				return
			}
		case 2:
			if r.cc.NegotiateThen(c.th, r.dst, c) {
				return
			}
		case 3:
			c.log("negotiated")
			if err := r.eng.Validate(c.t); err != nil {
				c.log(err.Error())
				return
			}
			if r.eng.ChargeSubmit(r.dpuCPU, c.th, c) {
				return
			}
		case 4:
			r.eng.Enqueue(c.t)
			c.log("submitted")
			if c.t.Done.WaitThen(r.env, c) {
				return
			}
		default:
			c.log("transferred")
			return
		}
	}
}

// negotiate and submit are Negotiate and Submit written with a proc's
// blocking calls (CPU.Exec, Proc.Wait), the oracle of their task forms.
func negotiate(p *sim.Proc, cc *CommChannel, region *MemRegion) {
	cc.negotiations++
	cc.dpuCPU.ExecSelf(p, cc.cfg.LocalCycles)
	cc.hostCPU.Exec(p, cc.hostTh, cc.cfg.HostCycles)
	p.Wait(cc.cfg.RTT + cc.stall)
	region.exported = true
}

func submit(p *sim.Proc, e *Engine, cpu *sim.CPU, t *Transfer) error {
	if err := e.Validate(t); err != nil {
		return err
	}
	cpu.ExecSelf(p, submitCycles)
	e.Enqueue(t)
	return nil
}

// TestSubmitTaskFormsMatchProcForms: three submitters at one instant on a
// one-core DPU, each renegotiating both regions and then submitting a
// transfer — the third too large — and waiting for it, reach each point at
// the same instant, with the same outcome, CPU charge, negotiation count and
// event count, whether they are procs making blocking calls (negotiate,
// submit, Event.Wait), procs awaiting the task forms (Negotiate, Submit) or
// task chains (NegotiateThen, Validate/ChargeSubmit/Enqueue, Event.WaitThen).
func TestSubmitTaskFormsMatchProcForms(t *testing.T) {
	run := func(form string) []string {
		r := newDMARig(EngineConfig{JitterPct: -1})
		r.dpuCPU = sim.NewCPU(r.env, "arm1", 1, 2.0, 2000)
		r.cc = NewCommChannel(r.env, r.dpuCPU, r.hostCPU, r.hostTh, CommChannelConfig{})
		var log []string
		for i, size := range []int64{1 << 20, 2 << 20, 3 << 20} {
			th := sim.NewThread("proxy", "proxy")
			note := func(what string) { log = append(log, fmt.Sprintf("%v %d %s", r.env.Now(), i, what)) }
			tr := &Transfer{ReqID: uint64(i + 1), TotalSegs: 1, Bytes: size, Src: r.src, Dst: r.dst}
			if form == "chain" {
				r.env.Delay(0, &submitChain{r: r, th: th, t: tr, log: note})
				continue
			}
			r.env.Spawn("submitter", func(p *sim.Proc) {
				p.SetThread(th)
				var err error
				if form == "await" {
					r.cc.Negotiate(p, r.src)
					r.cc.Negotiate(p, r.dst)
					note("negotiated")
					err = r.eng.Submit(p, r.dpuCPU, tr)
				} else {
					negotiate(p, r.cc, r.src)
					negotiate(p, r.cc, r.dst)
					note("negotiated")
					err = submit(p, r.eng, r.dpuCPU, tr)
				}
				if err != nil {
					note(err.Error())
					return
				}
				note("submitted")
				tr.Done.Wait(p)
				note("transferred")
			})
		}
		if err := r.env.Run(); err != nil {
			t.Fatal(err)
		}
		log = append(log, fmt.Sprintf("events %d busy %v negotiations %d transfers %d",
			r.env.Events(), r.dpuCPU.Stats().TotalBusy, r.cc.Negotiations(), r.eng.Stats().Transfers))
		r.env.Shutdown()
		return log
	}
	want := run("proc")
	for _, form := range []string{"await", "chain"} {
		if got := run(form); len(want) != 9 || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s:\n%q\nproc forms:\n%q", form, got, want)
		}
	}
}
