package sim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// chainOp is one step of a server body: kind 0 waits d, 1 runs cycles on the
// shared CPU, 2 takes a permit of the shared semaphore (given back when the
// body ends), 3 pushes arg onto queue q, 4 waits for event ev, which a rival
// proc fires, 5 writes cycles bytes to the shared disk, 6 waits for event ev
// for at most d, 7 sends a frame of cycles bytes over the shared lossy fabric,
// 8 (a kind 4 of events 6 and 7) waits on cond ev%2, which the rival procs
// broadcast, 9 reads cycles bytes from the shared disk.
type chainOp struct {
	kind   int
	d      Duration
	cycles int64
	q, arg int
	ev     int
}

// chainProg is a seeded program of server threads over served queues, whose
// bodies contend for a one- or two-core CPU, a one- or two-permit semaphore
// and a disk with each other and with plain procs, and wait for events those
// procs fire, and send frames over a fabric they share with the rivals, and
// wait on conditions the rivals broadcast. Its servers are written once as
// daemon procs popping their queue (Pop, Wait, Exec, Acquire, Event.Wait,
// writeDisk, Event.WaitTimeout, transferFrame, Cond.Wait, readDisk), once as
// task chains (ServeTask, Delay, ExecThen, AcquireThen, Event.WaitThen,
// Disk.WriteThen, Event.WaitTimeoutThen, Link.TransferFrameThen,
// Cond.WaitThen, Disk.ReadThen). A timed wait logs its outcome and a frame
// whether it arrived.
type chainProg struct {
	env    *Env
	cpu    *CPU
	sem    *Semaphore
	disk   *Disk
	fabric *Fabric
	// out and back are the fabric's two directions, srv to rival and back.
	out, back Link
	evs       []*Event
	conds     [2]Cond
	// firedAt is when each event fired.
	firedAt []Time
	queues  []*Queue[int]
	plans   map[int][]chainOp
	log     []string
	// ended counts the bodies that have ended: the rivals broadcast until
	// all of them have.
	ended int
	// queued counts the task forms' calls that had to wait: a burst behind
	// a busy CPU, an acquire behind a drained semaphore, a wait for an event
	// not yet fired, a write or a read that did not complete in place, a
	// timed wait, a frame that did not arrive in place, a wait on a
	// condition.
	queuedBursts, queuedAcquires, queuedWaits, queuedWrites, queuedReads int
	queuedTimed, queuedFrames, queuedConds                               int
	// daemons is the number of daemon procs the proc form's servers are:
	// their start events, drawn at construction ahead of every other, are
	// all that differs from the chains, so the log counts sequence numbers
	// from there.
	daemons int
	// The timed waits' outcomes in the chain form — the event fired before
	// the deadline, at its instant, or not in time — and the frames lost.
	firedEarly, firedAtDeadline, timedOut, dropped int
}

// fire fires event k and records when.
func (pg *chainProg) fire(k int) {
	if !pg.evs[k].Fired() {
		pg.firedAt[k] = pg.env.now
	}
	pg.evs[k].Fire()
}

// note logs (t, seq, owner): equal logs mean every sequence number was drawn
// at the same point of the program.
func (pg *chainProg) note(format string, args ...any) {
	pg.log = append(pg.log, fmt.Sprintf("%d/%d/", pg.env.now, pg.env.seq-uint64(pg.daemons))+fmt.Sprintf(format, args...))
}

// The forms a program's servers are written in.
const (
	procForm  = iota // daemon procs making the blocking calls
	chainForm        // task chains on ServeTask identities
)

// procBody is a server's body in proc form.
func (pg *chainProg) procBody(p *Proc, item int) {
	name := p.Thread().Name
	pg.note("%s:%d:start", name, item)
	held := false
	for i, op := range pg.plans[item] {
		outcome := ""
		switch op.kind {
		case 0:
			p.Wait(op.d)
		case 1:
			pg.cpu.Exec(p, p.Thread(), op.cycles)
		case 2:
			pg.sem.Acquire(p, 1)
			held = true
		case 3:
			pg.queues[op.q].Push(op.arg)
		case 4:
			pg.evs[op.ev].Wait(p)
		case 5:
			writeDisk(p, pg.disk, op.cycles)
		case 6:
			outcome = fmt.Sprint(":fired=", pg.evs[op.ev].WaitTimeout(p, op.d))
		case 7:
			outcome = fmt.Sprint(":delivered=", transferFrame(p, pg.out, op.cycles))
		case 8:
			pg.conds[op.ev%2].Wait(p)
		case 9:
			readDisk(p, pg.disk, op.cycles)
		}
		pg.note("%s:%d:%d%s", name, item, i, outcome)
	}
	if held {
		pg.sem.Release(1)
	}
	pg.ended++
	pg.note("%s:%d:end", name, item)
}

// chainServer is a server thread in task form: the record its chain runs on.
type chainServer struct {
	pg   *chainProg
	th   *Thread
	done Task
	item int
	next int
	// waiting is set while a step's continuation is registered; deadline is a
	// timed wait's, delivered whether the frame in flight arrives.
	waiting, held, delivered bool
	deadline                 Time
}

// outcome is what the log says of the step op that just ended: a timed wait's
// outcome, read from the event as the step goes on, or a frame's arrival.
func (c *chainServer) outcome(op chainOp) string {
	pg := c.pg
	switch op.kind {
	case 6:
		fired := pg.evs[op.ev].Fired()
		switch {
		case !fired:
			pg.timedOut++
		case pg.firedAt[op.ev] == c.deadline:
			pg.firedAtDeadline++
		case c.waiting:
			pg.firedEarly++
		}
		return fmt.Sprint(":fired=", fired)
	case 7:
		if !c.delivered {
			pg.dropped++
		}
		return fmt.Sprint(":delivered=", c.delivered)
	}
	return ""
}

func (c *chainServer) serve(item int) {
	c.item, c.next, c.held = item, 0, false
	c.pg.note("%s:%d:start", c.th.Name, item)
	c.Run()
}

// Run goes on after the step that was waiting, through every step that need
// not wait, to the next one that must, or to the end of the body.
func (c *chainServer) Run() {
	pg := c.pg
	if c.waiting {
		pg.note("%s:%d:%d%s", c.th.Name, c.item, c.next-1, c.outcome(pg.plans[c.item][c.next-1]))
		c.waiting = false
	}
	for ops := pg.plans[c.item]; c.next < len(ops); {
		op := ops[c.next]
		c.next++
		switch op.kind {
		case 0:
			pg.env.Delay(op.d, c)
			c.waiting = true
		case 1:
			if op.cycles > 0 && len(pg.cpu.freeCores) == 0 {
				pg.queuedBursts++
			}
			c.waiting = pg.cpu.ExecThen(c.th, op.cycles, nil, c)
		case 2:
			c.held = true
			if c.waiting = pg.sem.AcquireThen(1, c); c.waiting {
				pg.queuedAcquires++
			}
		case 3:
			pg.queues[op.q].Push(op.arg)
		case 4:
			if c.waiting = pg.evs[op.ev].WaitThen(pg.env, c); c.waiting {
				pg.queuedWaits++
			}
		case 5:
			if _, c.waiting = pg.disk.WriteThen(op.cycles, c); c.waiting {
				pg.queuedWrites++
			}
		case 6:
			c.deadline = pg.env.now.Add(op.d)
			if c.waiting = pg.evs[op.ev].WaitTimeoutThen(pg.env, op.d, c); c.waiting {
				pg.queuedTimed++
			}
		case 7:
			if _, c.delivered, c.waiting = pg.out.TransferFrameThen(op.cycles, c); c.waiting {
				pg.queuedFrames++
			}
		case 8:
			pg.conds[op.ev%2].WaitThen(pg.env, c)
			c.waiting = true
			pg.queuedConds++
		case 9:
			if _, c.waiting = pg.disk.ReadThen(op.cycles, c); c.waiting {
				pg.queuedReads++
			}
		}
		if c.waiting {
			return
		}
		pg.note("%s:%d:%d%s", c.th.Name, c.item, c.next-1, c.outcome(op))
	}
	if c.held {
		pg.sem.Release(1)
	}
	pg.ended++
	pg.note("%s:%d:end", c.th.Name, c.item)
	c.done.Run()
}

// chainProgram builds the seeded program and runs it to completion in the
// form chosen, with the kernel as shipped or as the classic loop (heapOnly).
func chainProgram(t *testing.T, seed int64, form int, heapOnly bool) (pg *chainProg, st EnvStats) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	env := NewEnv(seed)
	env.heapOnly = heapOnly
	defer env.Shutdown()
	pg = &chainProg{env: env, cpu: NewCPU(env, "c", 1+rng.Intn(2), 1.0, 50),
		sem: NewSemaphore(env, 1+rng.Intn(2)), plans: map[int][]chainOp{},
		disk:   NewDisk(env, "d", 2e9, 2e9, Duration(rng.Intn(2))*Microsecond),
		fabric: NewFabric(env, "f", Duration(rng.Intn(2))*Microsecond)}
	pg.fabric.AddNode("srv", 1e9)
	pg.fabric.AddNode("rival", 1e9)
	pg.fabric.SetDropProb("rival", 0.3)
	pg.out, pg.back = pg.fabric.Link("srv", "rival"), pg.fabric.Link("rival", "srv")
	for range 8 {
		pg.evs = append(pg.evs, NewEvent())
	}
	pg.firedAt = make([]Time, len(pg.evs))
	servers := 1 + rng.Intn(4)
	pg.queues = make([]*Queue[int], 1+rng.Intn(min(3, servers)))
	for i := range pg.queues {
		pg.queues[i] = NewQueue[int](env)
	}
	// A body's plan: up to five steps on a 1us grid (zero-length ones
	// included; a write of 1,000 bytes takes 0.5us, a frame of as many 1us),
	// at most one acquire and no event wait after it, and pushes that feed
	// other stages.
	var plan func(item, depth int)
	plan = func(item, depth int) {
		var ops []chainOp
		acquired := false
		for k := rng.Intn(6); k > 0; k-- {
			op := chainOp{kind: rng.Intn(9), d: Duration(rng.Intn(4)) * Microsecond,
				cycles: int64(rng.Intn(4)) * 1000, q: rng.Intn(len(pg.queues)), ev: rng.Intn(len(pg.evs))}
			switch {
			case op.kind == 2 && acquired, op.kind == 4 && acquired:
				// One permit per body; none held while waiting for a rival,
				// which may need it to fire the event or broadcast.
				op.kind = 0
			case op.kind == 8:
				op.kind = 9 // a disk read
			case op.kind == 4 && op.ev >= 6:
				op.kind = 8 // the conditions take the last two events' draws
			case op.kind == 2:
				acquired = true
			case op.kind == 3 && depth < 2:
				op.arg = item*10 + k
				plan(op.arg, depth+1)
			case op.kind == 3:
				op.kind = 1
			}
			ops = append(ops, op)
		}
		pg.plans[item] = ops
	}
	for i := 0; i < servers; i++ {
		q := pg.queues[i%len(pg.queues)]
		if i >= len(pg.queues) {
			q = pg.queues[rng.Intn(len(pg.queues))]
		}
		th := NewThread(fmt.Sprint("srv", i), "t")
		if form == chainForm {
			c := &chainServer{pg: pg, th: th}
			c.done = q.ServeTask(th.Name, c.serve)
			continue
		}
		pg.daemons++
		env.SpawnDaemon(th.Name, func(p *Proc) {
			p.SetThread(th)
			for {
				pg.procBody(p, q.Pop(p))
			}
		})
	}
	// Plain procs contend with the servers for the CPU, the semaphore, the
	// disk and the fabric, and fire the events, rival i the ones of its
	// index's parity after its step of that index; rival i broadcasts cond i
	// after every step, and every microsecond after its last until every body
	// has ended.
	for i := 0; i < 2; i++ {
		name := fmt.Sprint("rival", i)
		th := NewThread(name, "r")
		waits := make([]Duration, 8)
		for k := range waits {
			waits[k] = Duration(rng.Intn(6)) * Microsecond
		}
		env.Spawn(name, func(p *Proc) {
			for k, d := range waits {
				p.Wait(d)
				switch k % 3 {
				case 0:
					pg.cpu.Exec(p, th, 2000)
				case 1:
					pg.sem.Acquire(p, 1)
					p.Wait(Microsecond)
					pg.sem.Release(1)
				case 2:
					writeDisk(p, pg.disk, 3000)
					readDisk(p, pg.disk, 1000)
					arrive, _ := pg.back.book(2000, false) // lossless
					p.WaitUntil(arrive)
				}
				if k%2 == i {
					pg.fire(k)
				}
				pg.conds[i].Broadcast()
				pg.note("%s#%d", name, k)
			}
			for pg.ended < len(pg.plans) {
				p.Wait(Microsecond)
				pg.conds[i].Broadcast()
			}
		})
	}
	item := 0
	for k := 2 + rng.Intn(3); k > 0; k-- {
		pushes := make([]servePush, 5+rng.Intn(8))
		for i := range pushes {
			pushes[i] = servePush{Duration(rng.Intn(8)) * Microsecond, rng.Intn(len(pg.queues))}
			item++
			plan(item*100, 0)
		}
		first := item - len(pushes) + 1
		env.Spawn("producer", func(p *Proc) {
			for i, push := range pushes {
				p.Wait(push.after)
				pg.queues[push.queue].Push((first + i) * 100)
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatalf("seed=%d form=%d heapOnly=%v: %v", seed, form, heapOnly, err)
	}
	if left, live := env.Backlog(), env.LiveProcs(); left != nil || live != pg.daemons {
		t.Fatalf("seed=%d form=%d: values waiting on %v and %d procs or tasks live after the run", seed, form, left, live)
	}
	return pg, env.Stats()
}

// writeDisk is the proc form of Disk.WriteThen, the oracle: the write is
// booked, and p waits until it completes.
func writeDisk(p *Proc, d *Disk, bytes int64) {
	d.bytesWritten += bytes
	d.writes++
	_, at := d.book(bytes, d.WriteBytesPerSec)
	p.WaitUntil(at)
}

// readDisk is the proc form of Disk.ReadThen, the oracle: the read is booked,
// and p waits until it completes.
func readDisk(p *Proc, d *Disk, bytes int64) {
	d.bytesRead += bytes
	d.reads++
	_, at := d.book(bytes, d.ReadBytesPerSec)
	p.WaitUntil(at)
}

// transferFrame is the proc form of Link.TransferFrameThen, the oracle: the
// frame is booked and its loss drawn, and p waits until its arrival instant.
// It reports whether the frame was delivered.
func transferFrame(p *Proc, l Link, bytes int64) bool {
	arrive, delivered := l.book(bytes, true)
	p.WaitUntil(arrive)
	return delivered
}

// TestChainServersMatchProcServers is the task forms' contract as a property:
// over seeded random programs, writing every server as a task chain instead of
// a daemon proc popping its queue — Delay for Wait, ExecThen for Exec,
// AcquireThen for Acquire, Event.WaitThen for Event.Wait, Disk.WriteThen for a
// blocking write, Event.WaitTimeoutThen for Event.WaitTimeout (whose outcome
// the continuation reads from Fired), Link.TransferFrameThen for a blocking
// frame, Cond.WaitThen for Cond.Wait, Disk.ReadThen for a disk read,
// ServeTask for the daemon's Pop loop — changes nothing in the (t, seq,
// owner, outcome) log and takes exactly the daemons' start events out of the
// event count, in the classic loop as in the kernel as shipped; the chains
// resume no coroutine. The timed waits see all three outcomes: the event
// fired before the deadline, at its instant, or not in time. The logs are
// pinned by their hash. The kernel's proc forms are themselves awaits of the
// task forms (Suspend), so the two forms are no independent check of each
// other there; the hash, recorded while the proc forms had their own native
// paths, is the oracle both are held to.
func TestChainServersMatchProcServers(t *testing.T) {
	bursts, acquires, waits, writes, reads, conds := 0, 0, 0, 0, 0, 0
	var timed, frames, early, atDeadline, timedOut, dropped int
	h := fnv.New64a()
	for seed := int64(1); seed <= 24; seed++ {
		want, wantSt := chainProgram(t, seed, procForm, false)
		hashLogs(h, want.log)
		if len(want.log) < 40 {
			t.Fatalf("seed=%d: only %d log entries; the program did nothing", seed, len(want.log))
		}
		for _, heapOnly := range []bool{false, true} {
			for _, form := range []int{procForm, chainForm} {
				got, st := chainProgram(t, seed, form, heapOnly)
				if !reflect.DeepEqual(got.log, want.log) {
					t.Fatalf("seed=%d form=%d heapOnly=%v: logs differ:\n got %q\nwant %q",
						seed, form, heapOnly, got.log, want.log)
				}
				if st.Events+uint64(want.daemons) != wantSt.Events+uint64(got.daemons) {
					t.Fatalf("seed=%d form=%d heapOnly=%v: %d events, %d with %d daemon servers",
						seed, form, heapOnly, st.Events, wantSt.Events, want.daemons)
				}
				if form == chainForm && !heapOnly {
					bursts += got.queuedBursts
					acquires += got.queuedAcquires
					waits += got.queuedWaits
					writes += got.queuedWrites
					reads += got.queuedReads
					timed += got.queuedTimed
					frames += got.queuedFrames
					conds += got.queuedConds
					early += got.firedEarly
					atDeadline += got.firedAtDeadline
					timedOut += got.timedOut
					dropped += got.dropped
					if st.Switches >= wantSt.Switches {
						t.Fatalf("seed=%d: %d switches with chains, %d with procs", seed, st.Switches, wantSt.Switches)
					}
				}
			}
		}
	}
	if bursts == 0 || acquires == 0 || waits == 0 || writes == 0 || reads == 0 || conds == 0 {
		t.Fatalf("%d bursts queued for a core, %d acquires for a permit, %d waits for an event, %d writes and %d reads for the disk, %d waits on a condition: the programs never contended",
			bursts, acquires, waits, writes, reads, conds)
	}
	if timed == 0 || frames == 0 || early == 0 || atDeadline == 0 || timedOut == 0 || dropped == 0 {
		t.Fatalf("%d timed waits queued (%d fired early, %d at the deadline instant, %d timed out), %d frames queued, %d lost: an outcome was never reached",
			timed, early, atDeadline, timedOut, frames, dropped)
	}
	t.Logf("queued: %d bursts, %d acquires, %d event waits, %d disk writes, %d disk reads, %d timed waits (%d fired early, %d at the deadline, %d timed out), %d frames (%d lost), %d condition waits",
		bursts, acquires, waits, writes, reads, timed, early, atDeadline, timedOut, frames, dropped, conds)
	if got := h.Sum64(); got != chainLogHash {
		t.Fatalf("the logs hash to %#x, pinned %#x: an event moved", got, chainLogHash)
	}
}

// TestShutdownDropsQueuedTaskForms: a burst queued behind a busy one-core CPU
// and a task queued on a drained semaphore wait in those FIFOs, not in the
// event queue or an event's waiter list; a chain parked in Event.WaitThen
// waits in the event's waiter list, one in Cond.WaitThen in the condition's,
// one in Disk.WriteThen in the event queue (as itself: no token, no record),
// and one in Event.WaitTimeoutThen in both. Shutdown drops them all — nothing
// of them runs, the FIFOs skip their spent tokens later, the waiter lists are
// emptied, the deadline and the write are taken off the event queue and the
// tokens and records go back to the pools — and leaves nothing live. Before
// that, a timed wait whose event fires first loses its deadline at the Fire:
// the record of its continuation, reused by the next task to wait on a FIFO
// (AcquireThen), is not reached by it.
func TestShutdownDropsQueuedTaskForms(t *testing.T) {
	env := NewEnv(1)
	cpu := NewCPU(env, "c", 1, 1.0, 0)
	sem := NewSemaphore(env, 0)
	disk := NewDisk(env, "d", 1e9, 1e9, Second)
	gate := NewSemaphore(env, 0)
	var ev, timed, early Event
	var cond Cond
	th := NewThread("t", "t")
	var runs []string
	log := func(what string) Task {
		return funcTask(func() { runs = append(runs, fmt.Sprintf("%s@%d", what, env.Now())) })
	}
	var first, reused *pendingTask
	env.Spawn("early", func(p *Proc) {
		if !early.WaitTimeoutThen(env, 5*Microsecond, funcTask(func() {
			runs = append(runs, fmt.Sprintf("fired=%v@%d", early.Fired(), env.Now()))
			// The continuation's record is back on the free list and its
			// deadline gone with it: the next task to wait on a FIFO takes it.
			if !gate.AcquireThen(1, log("later")) {
				t.Error("an acquire on a drained semaphore did not queue")
			}
			reused = env.tasks[len(env.tasks)-1]
		})) {
			t.Error("a timed wait for an unfired event did not queue")
		}
		first = env.tasks[len(env.tasks)-1]
		p.Wait(Microsecond)
		early.Fire()
		p.Wait(10 * Microsecond)
		gate.Release(1)
	})
	ran := 0
	count := funcTask(func() { ran++ })
	env.Spawn("holder", func(p *Proc) { cpu.Exec(p, th, int64(Second)) })
	env.Spawn("queuer", func(p *Proc) {
		if !cpu.ExecThen(th, 1000, nil, count) {
			t.Error("a burst behind a busy core did not queue")
		}
		if !sem.AcquireThen(1, count) {
			t.Error("an acquire on a drained semaphore did not queue")
		}
		if !ev.WaitThen(env, count) {
			t.Error("a wait for an unfired event did not queue")
		}
		cond.WaitThen(env, count)
		if _, queued := disk.WriteThen(1000, count); !queued {
			t.Error("a one-second write completed at once")
		}
		if !timed.WaitTimeoutThen(env, Second, count) {
			t.Error("a timed wait for an unfired event did not queue")
		}
	})
	if err := env.RunUntil(Time(Millisecond)); err != nil {
		t.Fatal(err)
	}
	if want := []string{"fired=true@1000", "later@11000"}; !slices.Equal(runs, want) || reused != first {
		t.Fatalf("the early timed wait's continuation and the task after it ran %q, want %q (record reused: %v)",
			runs, want, reused == first)
	}
	if live := env.LiveProcs(); live != 7 || cpu.waiters.len() != 1 || sem.waiters.len() != 1 ||
		ev.waiters.inline[0] == nil || timed.waiters.inline[0] == nil || cond.waiters.inline[0] == nil {
		t.Fatalf("live=%d, %d waiting for a core, %d for a permit, event waiters %v and %v, condition waiter %v: want the holder and six queued tasks",
			live, cpu.waiters.len(), sem.waiters.len(), ev.waiters.inline[0], timed.waiters.inline[0], cond.waiters.inline[0])
	}
	tok, timedTok, condTok := ev.waiters.inline[0], timed.waiters.inline[0], cond.waiters.inline[0]
	if len(env.deadlines.a) != 1 || timedTok.dl != 1 || env.deadlines.a[0].tok != timedTok || timedTok.refs != 2 {
		t.Fatalf("%d deadlines, the timed wait's token in slot %d with %d refs: want its deadline alone and its waiter-list entry",
			len(env.deadlines.a), timedTok.dl-1, timedTok.refs)
	}
	env.Shutdown()
	if live := env.LiveProcs(); live != 0 || len(env.tasks) != 0 || len(env.taskFree) != env.taskMade {
		t.Fatalf("after Shutdown: live=%d tasks=%d, %d records pooled of %d", live, len(env.tasks), len(env.taskFree), env.taskMade)
	}
	for _, c := range []struct {
		name    string
		waiters *waitList
		tok     *wakeToken
	}{{"event", &ev.waiters, tok}, {"timed event", &timed.waiters, timedTok}, {"condition", &cond.waiters, condTok}} {
		if c.waiters.inline[0] != nil || c.tok.refs != 0 || c.tok.dl != 0 || !slices.Contains(env.tokFree, c.tok) {
			t.Fatalf("after Shutdown the %s still lists %v; its continuation's token has %d refs, deadline slot %d",
				c.name, c.waiters.inline[0], c.tok.refs, c.tok.dl-1)
		}
	}
	queued := env.pending()
	sem.Release(1)
	ev.Fire()
	timed.Fire()
	cond.Broadcast()
	if ran != 0 || env.pending() != queued || sem.waiters.len() != 0 || sem.Available() != 1 {
		t.Fatalf("ran=%d, %d events queued after %d: a dropped task was granted the permit or woken by the event", ran, env.pending(), queued)
	}
}
