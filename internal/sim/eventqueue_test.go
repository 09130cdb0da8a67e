package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// queueOp is one step of an actor of a queue program: kind 0 waits d (a
// Delay, d zero or not), 1 waits d through WaitThen, 2 waits for event ev, 3
// waits for event ev for at most d, 4 runs cycles on the shared CPU, 5 takes
// the shared semaphore's permit, 6 gives it back, 7 registers a tail task
// that runs once event ev has fired (After), 8 one that runs at d past the
// program's start (At, which may lie behind the clock), 9 fires event ev.
type queueOp struct {
	kind   int
	d      Duration
	ev     int
	cycles int64
}

// queueProg is a seeded program of actors contending for a one-core CPU and
// a one-permit semaphore and waiting for events a clock actor fires. It is
// written once with procs making the blocking calls, which await the task
// forms, and once with task chains.
type queueProg struct {
	env   *Env
	cpu   *CPU
	sem   *Semaphore
	evs   []Event
	th    *Thread
	plans [][]queueOp
	log   []string
	fault string // the first queueFault a step found
}

// note logs (t, seq, owner): equal logs mean every sequence number was drawn
// at the same point of the program. It also checks the queues' invariants.
func (qp *queueProg) note(format string, args ...any) {
	qp.log = append(qp.log, fmt.Sprintf("%d/%d/", qp.env.now, qp.env.seq)+fmt.Sprintf(format, args...))
	if qp.fault == "" {
		qp.fault = queueFault(qp.env)
	}
}

// queueFault names a broken invariant of e's queues, or returns "": no entry
// of the heap or the now-queue is a spent token (a wake-up takes out the
// deadline it beats, so nothing is left behind to die there), and every
// token in the deadline heap names its own slot.
func queueFault(e *Env) string {
	for i := 0; i < e.nowq.len(); i++ {
		if tok, ok := e.nowq.at(i).run.(*wakeToken); ok && tok.spent {
			return fmt.Sprintf("spent token in the now-queue at %d", i)
		}
	}
	for i, ev := range e.heap.a {
		if tok, ok := ev.run.(*wakeToken); ok && tok.spent {
			return fmt.Sprintf("spent token in the heap at %d", i)
		}
	}
	for i, d := range e.deadlines.a {
		if int(d.tok.dl) != i+1 {
			return fmt.Sprintf("deadline in slot %d names slot %d", i, d.tok.dl-1)
		}
	}
	return ""
}

// newQueueProg plans the program of seed: three to five actors, each
// acquiring the permit at most once at a time and never waiting for anything
// but the clock, the CPU and time while holding it, so every run ends.
func newQueueProg(seed int64) *queueProg {
	rng := rand.New(rand.NewSource(seed))
	qp := &queueProg{evs: make([]Event, 4)}
	var clock []queueOp
	for _, k := range rng.Perm(len(qp.evs)) {
		clock = append(clock, queueOp{kind: 0, d: Duration(rng.Intn(8)) * Microsecond}, queueOp{kind: 9, ev: k})
	}
	qp.plans = append(qp.plans, clock)
	for n := 3 + rng.Intn(3); n > 0; n-- {
		var ops []queueOp
		held := false
		for k := 4 + rng.Intn(8); k > 0; k-- {
			op := queueOp{kind: rng.Intn(9), ev: rng.Intn(len(qp.evs)),
				d: Duration(rng.Intn(4)) * Microsecond, cycles: int64(rng.Intn(3000))}
			switch {
			case op.kind == 5 && held:
				op.kind = 6
			case op.kind == 6 && !held:
				op.kind = 5
			case op.kind == 8:
				op.d = Duration(rng.Intn(20)) * Microsecond
			}
			if op.kind == 5 || op.kind == 6 {
				held = op.kind == 5
			}
			ops = append(ops, op)
		}
		if held {
			ops = append(ops, queueOp{kind: 6})
		}
		qp.plans = append(qp.plans, ops)
	}
	return qp
}

// build makes the program's kernel and actors, as procs or as chains.
func (qp *queueProg) build(chains, heapOnly bool) {
	qp.env = NewEnv(1)
	qp.env.heapOnly = heapOnly
	qp.cpu = NewCPU(qp.env, "cpu", 1, 1.0, 100)
	qp.sem = NewSemaphore(qp.env, 1)
	qp.th = NewThread("actor", "a")
	qp.evs = make([]Event, len(qp.evs))
	qp.log, qp.fault = nil, ""
	for i := range qp.plans {
		name := fmt.Sprint("actor", i)
		if chains {
			qp.env.Delay(0, &queueChain{qp: qp, name: name, ops: qp.plans[i]})
			continue
		}
		ops := qp.plans[i]
		qp.env.Spawn(name, func(p *Proc) {
			for k, op := range ops {
				qp.note("%s#%d", name, k)
				qp.procStep(p, name, k, op)
			}
		})
	}
}

// procStep is op in proc form.
func (qp *queueProg) procStep(p *Proc, name string, k int, op queueOp) {
	switch op.kind {
	case 0, 1:
		p.Wait(op.d)
	case 2:
		qp.evs[op.ev].Wait(p)
	case 3:
		qp.note("%s#%d:fired=%v", name, k, qp.evs[op.ev].WaitTimeout(p, op.d))
	case 4:
		qp.cpu.Exec(p, qp.th, op.cycles)
	case 5:
		qp.sem.Acquire(p, 1)
	case 6:
		qp.sem.Release(1)
	case 7:
		qp.env.Spawn(name+":after", func(p *Proc) {
			qp.evs[op.ev].Wait(p)
			qp.note("%s#%d:tail", name, k)
		})
	case 8:
		qp.env.Spawn(name+":at", func(p *Proc) {
			p.WaitUntil(Time(op.d))
			qp.note("%s#%d:tail", name, k)
		})
	case 9:
		qp.evs[op.ev].Fire()
	}
}

// queueChain is an actor in task form: Run goes on after the step that
// waited, through every step that need not wait, to the next one that must.
type queueChain struct {
	qp      *queueProg
	name    string
	ops     []queueOp
	next    int
	waiting bool
}

func (c *queueChain) Run() {
	qp := c.qp
	if c.waiting {
		c.waiting = false
		if k := c.next - 1; c.ops[k].kind == 3 {
			qp.note("%s#%d:fired=%v", c.name, k, qp.evs[c.ops[k].ev].Fired())
		}
	}
	for c.next < len(c.ops) {
		k, op := c.next, c.ops[c.next]
		c.next++
		qp.note("%s#%d", c.name, k)
		switch op.kind {
		case 0:
			qp.env.Delay(op.d, c)
			c.waiting = true
		case 1:
			c.waiting = qp.env.WaitThen(op.d, c)
		case 2:
			c.waiting = qp.evs[op.ev].WaitThen(qp.env, c)
		case 3:
			if c.waiting = qp.evs[op.ev].WaitTimeoutThen(qp.env, op.d, c); !c.waiting {
				qp.note("%s#%d:fired=true", c.name, k)
			}
		case 4:
			c.waiting = qp.cpu.ExecThen(qp.th, op.cycles, nil, c)
		case 5:
			c.waiting = qp.sem.AcquireThen(1, c)
		case 6:
			qp.sem.Release(1)
		case 7:
			qp.env.After(&qp.evs[op.ev], &namedTask{c.name + ":after", func() { qp.note("%s#%d:tail", c.name, k) }})
		case 8:
			qp.env.At(Time(op.d), &namedTask{c.name + ":at", func() { qp.note("%s#%d:tail", c.name, k) }})
		case 9:
			qp.evs[op.ev].Fire()
		}
		if c.waiting {
			return
		}
	}
}

// heldTokens lists, once each, the tokens the program's queue, waiter lists
// and FIFOs still hold.
func (qp *queueProg) heldTokens() []*wakeToken {
	var held []*wakeToken
	add := func(tok *wakeToken) {
		if tok != nil && !slices.Contains(held, tok) {
			held = append(held, tok)
		}
	}
	e := qp.env
	for i := 0; i < e.nowq.len(); i++ {
		if tok, ok := e.nowq.at(i).run.(*wakeToken); ok {
			add(tok)
		}
	}
	for _, ev := range e.heap.a {
		if tok, ok := ev.run.(*wakeToken); ok {
			add(tok)
		}
	}
	for _, d := range e.deadlines.a {
		add(d.tok)
	}
	for i := range qp.evs {
		l := &qp.evs[i].waiters
		add(l.inline[0])
		add(l.inline[1])
		for _, tok := range l.more {
			add(tok)
		}
	}
	for i := 0; i < qp.cpu.waiters.len(); i++ {
		add(qp.cpu.waiters.at(i))
	}
	for i := 0; i < qp.sem.waiters.len(); i++ {
		add(qp.sem.waiters.at(i).tok)
	}
	return held
}

// checkBalance: every token and record the program's kernel made is in its
// free list or held by a registration, never both.
func (qp *queueProg) checkBalance(t *testing.T, when string) {
	t.Helper()
	e := qp.env
	held := qp.heldTokens()
	for _, tok := range e.tokFree {
		if slices.Contains(held, tok) || tok.refs != 0 || tok.dl != 0 || tok.task != nil {
			t.Fatalf("%s: pooled token %+v (held: %v)", when, *tok, slices.Contains(held, tok))
		}
	}
	if e.tokMade != len(e.tokFree)+len(held) || e.taskMade != len(e.taskFree)+len(e.tasks) {
		t.Fatalf("%s: %d tokens made, %d pooled, %d held; %d records made, %d pooled, %d listed",
			when, e.tokMade, len(e.tokFree), len(held), e.taskMade, len(e.taskFree), len(e.tasks))
	}
}

// FuzzEventQueue: a program of Delays (zero and timed), WaitThen,
// Event.WaitThen and WaitTimeoutThen, ExecThen and AcquireThen under
// contention, After and At, cut by a Shutdown at an arbitrary instant, logs
// the (t, seq, owner) entries of the same program written with procs, which
// await those task forms, in the kernel as shipped and in the classic loop;
// at every step it logs, the heap and the now-queue hold no spent token and
// every deadline names its slot (queueFault), at the cut too, where every
// token and record either form took is pooled or held by a registration.
// After the Shutdown nothing is live in either form, the deadline heap is
// empty, and every token and record is back in its free list once the FIFOs
// have skipped their spent tokens — but for the waiter-list entries of timed
// waits that timed out on an event that never fired, which stay there, spent,
// until a Fire that never comes.
func FuzzEventQueue(f *testing.F) {
	for seed := int64(1); seed <= 12; seed++ {
		f.Add(seed, uint16(seed*7))
		f.Add(seed, uint16(1000))
	}
	f.Fuzz(func(t *testing.T, seed int64, cut uint16) {
		qp := newQueueProg(seed)
		limit := Time(Duration(cut%60) * Microsecond)
		var want []string
		for _, heapOnly := range []bool{false, true} {
			for _, chains := range []bool{false, true} {
				qp.build(chains, heapOnly)
				if err := qp.env.RunUntil(limit); err != nil {
					t.Fatalf("seed=%d chains=%v heapOnly=%v: %v", seed, chains, heapOnly, err)
				}
				if qp.fault == "" {
					qp.fault = queueFault(qp.env)
				}
				if qp.fault != "" {
					t.Fatalf("seed=%d chains=%v heapOnly=%v: %s", seed, chains, heapOnly, qp.fault)
				}
				if want == nil {
					want = qp.log
				} else if !reflect.DeepEqual(qp.log, want) {
					t.Fatalf("seed=%d chains=%v heapOnly=%v: logs differ:\n got %q\nwant %q", seed, chains, heapOnly, qp.log, want)
				}
				qp.checkBalance(t, "at the cut")
				qp.env.Shutdown()
				if live := qp.env.LiveProcs(); live != 0 {
					t.Fatalf("seed=%d chains=%v heapOnly=%v: %d live after Shutdown", seed, chains, heapOnly, live)
				}
				if n := len(qp.env.deadlines.a); n != 0 {
					t.Fatalf("seed=%d chains=%v heapOnly=%v: %d deadlines left after Shutdown", seed, chains, heapOnly, n)
				}
				qp.sem.Release(0)
				if n := len(qp.cpu.freeCores); n == 0 {
					qp.cpu.release(0)
				}
				qp.checkBalance(t, "after Shutdown")
				if qp.env.pending() != 0 {
					t.Fatalf("seed=%d chains=%v heapOnly=%v: %d events queued after Shutdown", seed, chains, heapOnly, qp.env.pending())
				}
				// What is still held is the waiter-list entry of a timed wait
				// that timed out on an event that never fired: dead until Fire.
				for _, tok := range qp.heldTokens() {
					if !tok.spent {
						t.Fatalf("seed=%d chains=%v heapOnly=%v: a live token %+v is held after Shutdown", seed, chains, heapOnly, *tok)
					}
				}
			}
		}
		if len(want) == 0 && limit > 0 {
			t.Fatalf("seed=%d: nothing ran before %v", seed, limit)
		}
	})
}

// TestQueuedTaskIsLiveNamedAndDropped: a task queued as itself — by Delay, or
// granted a permit — holds no token and no record, yet counts in LiveProcs,
// is named in Busy by String or by type (a Daemon only counted), and is
// dropped by Shutdown without running. The queue entry that carries it stays
// within 32 bytes.
func TestQueuedTaskIsLiveNamedAndDropped(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n > 32 {
		t.Fatalf("an event queue entry takes %d bytes", n)
	}
	env := NewEnv(1)
	sem := NewSemaphore(env, 0)
	ran := 0
	env.Delay(Second, &namedTask{"flush:3", func() { ran++ }})
	env.Delay(0, funcTask(func() { ran++ }))
	env.Delay(2*Second, daemonTask(func() { ran++ }))
	if !sem.AcquireThen(1, &namedTask{"granted", func() { ran++ }}) {
		t.Fatal("an acquire on a drained semaphore did not queue")
	}
	if len(env.tasks) != 1 || env.LiveProcs() != 4 {
		t.Fatalf("%d records, %d live: want the waiting acquire's record alone, four live", len(env.tasks), env.LiveProcs())
	}
	sem.Release(1)
	if st := env.Stats(); len(env.tasks) != 0 || st.Records != 1 || st.Tokens != 1 || env.LiveProcs() != 4 || env.pending() != 4 {
		t.Fatalf("after the grant: %d records listed, %+v, %d live, %d queued", len(env.tasks), st, env.LiveProcs(), env.pending())
	}
	if got, want := strings.Join(env.Busy(), " "), "flush:3 granted sim.funcTask"; got != want {
		t.Fatalf("busy = %q, want %q", got, want)
	}
	if err := env.RunUntil(Time(Millisecond)); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(env.Busy(), " "), "flush:3"; ran != 2 || env.LiveProcs() != 2 || got != want {
		t.Fatalf("ran=%d live=%d busy=%q: want the zero delay and the grant run, %q left", ran, env.LiveProcs(), got, want)
	}
	env.Shutdown()
	if env.LiveProcs() != 0 || env.pending() != 0 || len(env.tokFree) != env.tokMade {
		t.Fatalf("after Shutdown: live=%d queued=%d, %d tokens pooled of %d", env.LiveProcs(), env.pending(), len(env.tokFree), env.tokMade)
	}
	if ran != 2 {
		t.Fatalf("a dropped task ran: ran=%d", ran)
	}
}

// TestAwaitingProcCountsOnce: a proc awaiting a task form — passed as the
// continuation of Delay, WaitThen, Event.WaitThen or WaitTimeoutThen,
// AcquireThen, Cond.WaitThen or Queue.Pop's waiter node, or of a burst queued
// behind a busy core — and a proc in the proc form of the same call are one
// piece of live work each: LiveProcs counts it once, and Busy and a deadlock
// report list it once, under its own name, unless it is a daemon, which they
// only count. A daemon waiting for good ends the run cleanly; another proc
// is a deadlock that names it once.
func TestAwaitingProcCountsOnce(t *testing.T) {
	await := func(p *Proc, registered bool) {
		if registered {
			p.Suspend()
		}
	}
	// hog keeps the one core of a new CPU busy for a second, a burst named
	// after its continuation.
	hog := func(env *Env) (*CPU, *Thread) {
		cpu, th := NewCPU(env, "c", 1, 1, 0), NewThread("t", "t")
		cpu.ExecThen(th, int64(Second), nil, &namedTask{"hog", func() {}})
		return cpu, th
	}
	for _, c := range []struct {
		name string
		// idle is set when the proc waits for good: Run ends at once.
		idle   bool
		others []string
		body   func(env *Env, p *Proc)
	}{
		{"Delay", false, nil, func(env *Env, p *Proc) { env.Delay(Second, p); p.Suspend() }},
		{"WaitThen", false, nil, func(env *Env, p *Proc) { await(p, env.WaitThen(Second, p)) }},
		{"Wait", false, nil, func(env *Env, p *Proc) { p.Wait(Second) }},
		{"Event.WaitThen", true, nil, func(env *Env, p *Proc) { await(p, new(Event).WaitThen(env, p)) }},
		{"Event.Wait", true, nil, func(env *Env, p *Proc) { new(Event).Wait(p) }},
		{"Event.WaitTimeoutThen", false, nil, func(env *Env, p *Proc) { await(p, new(Event).WaitTimeoutThen(env, Second, p)) }},
		{"Event.WaitTimeout", false, nil, func(env *Env, p *Proc) { new(Event).WaitTimeout(p, Second) }},
		{"AcquireThen", true, nil, func(env *Env, p *Proc) { await(p, NewSemaphore(env, 0).AcquireThen(1, p)) }},
		{"Acquire", true, nil, func(env *Env, p *Proc) { NewSemaphore(env, 0).Acquire(p, 1) }},
		{"Cond.WaitThen", true, nil, func(env *Env, p *Proc) { new(Cond).WaitThen(env, p); p.Suspend() }},
		{"Cond.Wait", true, nil, func(env *Env, p *Proc) { new(Cond).Wait(p) }},
		{"queued ExecThen", false, []string{"hog"}, func(env *Env, p *Proc) {
			cpu, th := hog(env)
			await(p, cpu.ExecThen(th, 1000, nil, p))
		}},
		{"queued Exec", false, []string{"hog"}, func(env *Env, p *Proc) {
			cpu, th := hog(env)
			cpu.Exec(p, th, 1000)
		}},
		{"Pop", true, nil, func(env *Env, p *Proc) { NewQueue[int](env).Pop(p) }},
		{"PopTimeout", false, nil, func(env *Env, p *Proc) { NewQueue[int](env).PopTimeout(p, Second) }},
	} {
		for _, daemon := range []bool{false, true} {
			env := NewEnv(1)
			spawn, busy := env.Spawn, []string{"a"}
			if daemon {
				spawn, busy = env.SpawnDaemon, nil
			}
			busy = append(busy, c.others...)
			spawn("a", func(p *Proc) { c.body(env, p) })
			// An idle non-daemon is a deadlock once the queue drains.
			err := env.RunUntil(Time(Millisecond))
			if dl, ok := err.(DeadlockError); c.idle && !daemon && (!ok || !slices.Equal(dl.Blocked, busy)) ||
				(!c.idle || daemon) && err != nil {
				t.Errorf("%s daemon=%v: the run returned %v", c.name, daemon, err)
			}
			if live, got := env.LiveProcs(), env.Busy(); live != 1+len(c.others) || !slices.Equal(got, busy) {
				t.Errorf("%s daemon=%v: live=%d busy=%q, want %d live and busy %q",
					c.name, daemon, live, got, 1+len(c.others), busy)
			}
			env.Shutdown()
			if live := env.LiveProcs(); live != 0 {
				t.Errorf("%s daemon=%v: live=%d after Shutdown", c.name, daemon, live)
			}
		}
	}
}
