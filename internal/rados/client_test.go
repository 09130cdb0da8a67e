package rados

import (
	"errors"
	"strings"
	"testing"

	"doceph/internal/cephmsg"
	"doceph/internal/crush"
	"doceph/internal/messenger"
	"doceph/internal/osdmap"
	"doceph/internal/sim"
	"doceph/internal/wire"
)

// fakeOSD is a scriptable OSD stand-in for exercising the client's retry
// and redirect machinery without a full cluster.
type fakeOSD struct {
	env    *sim.Env
	msgr   *messenger.Messenger
	mode   string // "ok", "drop", "wrongPrimary", "notfound", "dup", "slowOnce", "recycled"
	served int
	// released counts the replies of mode "recycled" the client's messenger
	// put back.
	released int
}

// recycledReply is a reply in a record of the fake's, which zeroes it when
// the client's messenger releases it, as an OSD's free list does.
type recycledReply struct {
	f     *fakeOSD
	reply cephmsg.MOSDOpReply
}

func (r *recycledReply) Release() {
	r.reply = cephmsg.MOSDOpReply{}
	r.f.released++
}

func (f *fakeOSD) dispatch(p *sim.Proc, src string, m cephmsg.Message) {
	op, ok := m.(*cephmsg.MOSDOp)
	if !ok {
		return
	}
	f.served++
	switch f.mode {
	case "drop":
		return
	case "dup":
		// Reply twice: the second copy must land as a stale reply.
		for i := 0; i < 2; i++ {
			f.msgr.Send(src, &cephmsg.MOSDOpReply{Tid: op.Tid, Object: op.Object,
				Op: op.Op, Result: cephmsg.ResOK, Version: 1, Size: 42})
		}
	case "slowOnce":
		// First request answers late (after the client's timeout+resend);
		// later requests answer immediately.
		reply := &cephmsg.MOSDOpReply{Tid: op.Tid, Object: op.Object,
			Op: op.Op, Result: cephmsg.ResOK, Version: 1, Size: 42}
		if f.served == 1 {
			f.env.Spawn("late-reply", func(lp *sim.Proc) {
				lp.Wait(5 * sim.Second)
				f.msgr.Send(src, reply)
			})
			return
		}
		f.msgr.Send(src, reply)
	case "wrongPrimary":
		f.msgr.Send(src, &cephmsg.MOSDOpReply{Tid: op.Tid, Object: op.Object,
			Op: op.Op, Result: cephmsg.ResNotPrimary})
	case "recycled":
		r := &recycledReply{f: f, reply: cephmsg.MOSDOpReply{Tid: op.Tid, Object: op.Object,
			Op: op.Op, Result: cephmsg.ResOK, Version: 1, Size: 42}}
		if op.Op == cephmsg.OpRead {
			r.reply.Data = wire.FromBytes([]byte("fake-object-content"))
		}
		r.reply.Owner = r
		f.msgr.Send(src, &r.reply)
	case "notfound":
		f.msgr.Send(src, &cephmsg.MOSDOpReply{Tid: op.Tid, Object: op.Object,
			Op: op.Op, Result: cephmsg.ResNotFound})
	default:
		reply := &cephmsg.MOSDOpReply{Tid: op.Tid, Object: op.Object,
			Op: op.Op, Result: cephmsg.ResOK, Version: 1, Size: 42}
		if op.Op == cephmsg.OpRead {
			reply.Data = wire.FromBytes([]byte("fake-object-content"))
		}
		f.msgr.Send(src, reply)
	}
}

type clientRig struct {
	env    *sim.Env
	client *Client
	osds   []*fakeOSD
}

// newClientRig builds a 2-OSD world where every request lands on one of the
// two fakes.
func newClientRig(cfg Config) *clientRig {
	env := sim.NewEnv(5)
	fabric := sim.NewFabric(env, "eth", sim.Microsecond)
	fabric.AddNode("n", 12.5e9)
	reg := messenger.NewRegistry()
	cpu := sim.NewCPU(env, "cpu", 8, 3.0, 2000)
	r := &clientRig{env: env}
	for i := 0; i < 2; i++ {
		f := &fakeOSD{env: env}
		f.msgr = messenger.New(env, reg, fabric, cpu, Name(i), "n", messenger.Config{})
		f.msgr.SetDispatcher(f.dispatch)
		r.osds = append(r.osds, f)
	}
	cmsgr := messenger.New(env, reg, fabric, cpu, "client.0", "n", messenger.Config{})
	m := osdmap.New(crush.BuildUniform(2, 1, 1.0), 16, 1)
	r.client = New(env, cpu, cmsgr, m, cfg)
	return r
}

// Name mirrors osd.Name without importing the osd package (avoiding a
// dependency from the client's tests on the daemon).
func Name(i int) string {
	return map[int]string{0: "osd.0", 1: "osd.1"}[i]
}

func (r *clientRig) run(t *testing.T, body func(p *sim.Proc)) {
	t.Helper()
	done := false
	r.env.Spawn("body", func(p *sim.Proc) {
		p.SetThread(sim.NewThread("body", ThreadCat))
		body(p)
		done = true
	})
	err := r.env.RunUntil(sim.Time(20 * 60 * sim.Second))
	if !done {
		t.Fatalf("body did not finish: %v", err)
	}
	r.env.Shutdown()
}

func TestClientHappyPath(t *testing.T) {
	r := newClientRig(Config{})
	r.run(t, func(p *sim.Proc) {
		if err := r.client.Write(p, "obj", wire.FromBytes([]byte("data"))); err != nil {
			t.Fatal(err)
		}
		size, ver, err := r.client.Stat(p, "obj")
		if err != nil || size != 42 || ver != 1 {
			t.Fatalf("stat size=%d ver=%d err=%v", size, ver, err)
		}
	})
	if r.osds[0].served+r.osds[1].served != 2 {
		t.Fatalf("served=%d+%d", r.osds[0].served, r.osds[1].served)
	}
}

func TestClientTimesOutAndRetries(t *testing.T) {
	r := newClientRig(Config{OpTimeout: 2 * sim.Second, MaxRetries: 2})
	for _, f := range r.osds {
		f.mode = "drop"
	}
	r.run(t, func(p *sim.Proc) {
		start := p.Now()
		err := r.client.Write(p, "obj", wire.FromBytes([]byte("x")))
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("err=%v", err)
		}
		// 3 attempts x (2s timeout + 1s backoff).
		if elapsed := p.Now().Sub(start); elapsed < 6*sim.Second {
			t.Fatalf("gave up too fast: %v", elapsed)
		}
	})
	total := r.osds[0].served + r.osds[1].served
	if total != 3 {
		t.Fatalf("attempts=%d want 3", total)
	}
}

func TestClientCountsDuplicateReplyAsStale(t *testing.T) {
	r := newClientRig(Config{})
	for _, f := range r.osds {
		f.mode = "dup"
	}
	r.run(t, func(p *sim.Proc) {
		if err := r.client.Write(p, "obj", wire.FromBytes([]byte("x"))); err != nil {
			t.Fatal(err)
		}
		p.Wait(sim.Second) // let the duplicate drain through dispatch
		if got := r.client.Stats().StaleReplies; got != 1 {
			t.Fatalf("StaleReplies=%d want 1", got)
		}
	})
}

func TestClientResendIsIdempotentAndLateReplyIsStale(t *testing.T) {
	r := newClientRig(Config{OpTimeout: 2 * sim.Second, MaxRetries: 2,
		RetryBackoff: 500 * sim.Millisecond})
	for _, f := range r.osds {
		f.mode = "slowOnce"
	}
	r.run(t, func(p *sim.Proc) {
		// Attempt 1 at t=0 times out at 2s; the resend at 2.5s succeeds
		// under the same tid. The late reply from attempt 1 lands at 5s,
		// after the op is retired, and must count as stale — not complete
		// (or corrupt) some other op.
		if err := r.client.Write(p, "obj", wire.FromBytes([]byte("x"))); err != nil {
			t.Fatal(err)
		}
		p.Wait(10 * sim.Second) // outlive the late reply
		st := r.client.Stats()
		if st.Timeouts != 1 || st.Retries != 1 {
			t.Fatalf("timeouts=%d retries=%d want 1/1", st.Timeouts, st.Retries)
		}
		if st.StaleReplies != 1 {
			t.Fatalf("StaleReplies=%d want 1", st.StaleReplies)
		}
	})
	if total := r.osds[0].served + r.osds[1].served; total != 2 {
		t.Fatalf("served=%d want 2", total)
	}
}

// TestClientOpRecycled: every op runs on a request from the client's free
// list, put back once the reply is taken, so steady-state writes and reads
// allocate no request, and neither does a redirect, which is a reply. An op
// one of whose attempts timed out leaves its request to the GC — the OSD may
// still hold that attempt's — and Quiescent names it.
func TestClientOpRecycled(t *testing.T) {
	r := newClientRig(Config{OpTimeout: 2 * sim.Second, MaxRetries: 2, RetryBackoff: 500 * sim.Millisecond})
	ops := &r.client.ops
	want := func(what string, made, listed int) {
		t.Helper()
		if ops.Made() != made || ops.Listed() != listed {
			t.Fatalf("%s: %d requests listed of %d made, want %d of %d", what, ops.Listed(), ops.Made(), listed, made)
		}
	}
	r.run(t, func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			if err := r.client.Write(p, "obj", wire.FromBytes([]byte("data"))); err != nil {
				t.Fatal(err)
			}
			if _, err := r.client.Read(p, "obj", 0, 0); err != nil {
				t.Fatal(err)
			}
		}
		want("steady state", 1, 1)
		for _, f := range r.osds {
			f.mode = "wrongPrimary"
		}
		if err := r.client.Write(p, "obj", wire.FromBytes([]byte("x"))); !errors.Is(err, ErrTimeout) {
			t.Fatalf("redirected write: err=%v", err)
		}
		want("redirects", 1, 1)
		if err := r.client.Quiescent(); err != nil {
			t.Fatal(err)
		}
		for _, f := range r.osds {
			f.mode, f.served = "slowOnce", 0
		}
		if err := r.client.Write(p, "obj", wire.FromBytes([]byte("x"))); err != nil {
			t.Fatal(err)
		}
		p.Wait(10 * sim.Second) // the timed-out attempt's late reply lands
		want("a timed-out attempt", 1, 0)
		if err := r.client.Write(p, "obj", wire.FromBytes([]byte("y"))); err != nil {
			t.Fatal(err)
		}
		want("after it", 2, 1)
		if err := r.client.Quiescent(); err == nil || !strings.Contains(err.Error(), "1 of 2 client.0: requests back") {
			t.Fatalf("Quiescent = %v, want the request left to the GC named", err)
		}
	})
}

// TestReplyZeroedAfterDispatch: an OSD puts the record its reply lives in back
// once the client's messenger has dispatched it, and the next op overwrites
// it; the client copies the reply during dispatch, so every op's result is
// what was sent — a write's success, a read's data, a stat's size and version
// — although each reply is zeroed right after. A release before the dispatch
// leaves the client a reply it does not recognise, and the op times out.
func TestReplyZeroedAfterDispatch(t *testing.T) {
	r := newClientRig(Config{OpTimeout: 2 * sim.Second, MaxRetries: 1})
	for _, f := range r.osds {
		f.mode = "recycled"
	}
	r.run(t, func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			if err := r.client.Write(p, "obj", wire.FromBytes([]byte("data"))); err != nil {
				t.Fatalf("write: %v", err)
			}
			got, err := r.client.Read(p, "obj", 0, 0)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if s := string(got.Bytes()); s != "fake-object-content" {
				t.Fatalf("read %q", s)
			}
			size, ver, err := r.client.Stat(p, "obj")
			if err != nil || size != 42 || ver != 1 {
				t.Fatalf("stat: size=%d ver=%d err=%v", size, ver, err)
			}
		}
	})
	if st := r.client.Stats(); st.Retries != 0 || st.StaleReplies != 0 {
		t.Fatalf("%d retries, %d stale replies; want none", st.Retries, st.StaleReplies)
	}
	if served, released := r.osds[0].served+r.osds[1].served, r.osds[0].released+r.osds[1].released; served != 12 || released != served {
		t.Fatalf("%d replies released of %d ops; want all 12", released, served)
	}
}

func TestClientRetriesOnWrongPrimary(t *testing.T) {
	r := newClientRig(Config{OpTimeout: 2 * sim.Second, MaxRetries: 3})
	for _, f := range r.osds {
		f.mode = "wrongPrimary"
	}
	r.run(t, func(p *sim.Proc) {
		err := r.client.Write(p, "obj", wire.FromBytes([]byte("x")))
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("err=%v", err)
		}
	})
	if total := r.osds[0].served + r.osds[1].served; total != 4 {
		t.Fatalf("attempts=%d want 4 (1 + 3 retries)", total)
	}
}

func TestClientSurfacesNotFound(t *testing.T) {
	r := newClientRig(Config{})
	for _, f := range r.osds {
		f.mode = "notfound"
	}
	r.run(t, func(p *sim.Proc) {
		if _, err := r.client.Read(p, "ghost", 0, 0); !errors.Is(err, ErrNotFound) {
			t.Fatalf("err=%v", err)
		}
		if err := r.client.Delete(p, "ghost"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("err=%v", err)
		}
	})
}

func TestClientMapUpdateViaBroadcast(t *testing.T) {
	r := newClientRig(Config{})
	r.run(t, func(p *sim.Proc) {
		if r.client.Map().Epoch != 1 {
			t.Fatalf("epoch=%d", r.client.Map().Epoch)
		}
		// Simulate a monitor broadcast dropping osd.1.
		r.osds[0].msgr.Send("client.0", &cephmsg.MOSDMap{Epoch: 5, Up: []int32{0}})
		p.Wait(sim.Second)
		if r.client.Map().Epoch != 5 || r.client.Map().IsUp(1) {
			t.Fatalf("epoch=%d up1=%v", r.client.Map().Epoch, r.client.Map().IsUp(1))
		}
		// Stale broadcasts are ignored.
		r.osds[0].msgr.Send("client.0", &cephmsg.MOSDMap{Epoch: 3, Up: []int32{0, 1}})
		p.Wait(sim.Second)
		if r.client.Map().Epoch != 5 {
			t.Fatalf("stale epoch applied: %d", r.client.Map().Epoch)
		}
	})
}

func TestClientNoOSDError(t *testing.T) {
	r := newClientRig(Config{})
	r.run(t, func(p *sim.Proc) {
		next := r.client.Map().Next()
		next.MarkDown(0)
		next.MarkDown(1)
		r.client.curMap = next
		if err := r.client.Write(p, "obj", wire.FromBytes([]byte("x"))); !errors.Is(err, ErrNoOSD) {
			t.Fatalf("err=%v", err)
		}
	})
}

// TestBalancedTargetPicksWithoutASlice: a balanced read's target is the
// member the object's hash picks among the acting set's up members, in acting
// order — the slice of up members the pick once built, checked here for every
// PG with all members up and with one down — and picking allocates nothing.
func TestBalancedTargetPicksWithoutASlice(t *testing.T) {
	m := osdmap.New(crush.BuildUniform(5, 1, 1.0), 32, 3)
	c := &Client{curMap: m}
	want := func(pg uint32, object string) int32 {
		var up []int32
		for _, id := range m.ActingSet(pg) {
			if m.IsUp(id) {
				up = append(up, id)
			}
		}
		if len(up) == 0 {
			return -1
		}
		h := fnv64(object)
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		return up[h%uint64(len(up))]
	}
	for _, down := range []int32{-1, 2} {
		if down >= 0 {
			m.MarkDown(down)
		}
		for i := 0; i < 400; i++ {
			obj := "benchmark_data_prepop_" + string(rune('a'+i%26)) + string(rune('a'+i/26))
			pg := m.PGForObject(obj)
			if got, w := c.balancedTarget(pg, obj), want(pg, obj); got != w {
				t.Fatalf("osd %d down: %s in pg %d (acting %v) goes to %d, want %d", down, obj, pg, m.ActingSet(pg), got, w)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { c.balancedTarget(7, "benchmark_data_prepop_17") }); n != 0 {
		t.Fatalf("%.1f allocations per pick, want 0", n)
	}
}
