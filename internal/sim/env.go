//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// wakeToken is a single-use wakeup permit for a pending task (pendingTask):
// a task registered with After or At, or a task form's continuation waiting in
// a waiter list or FIFO — a proc's own among them, when the proc awaits the
// call. It is registered with every path that may run the task (a timer, a
// deadline, a queue push, an event fire, a grant). The first path to reach the
// kernel wins; the rest find the token spent and are ignored. This is what
// makes timeouts composable with every blocking primitive.
//
// Tokens are pooled: refs counts live registrations (scheduled events, a
// deadline and waiter-list entries). Every registration site increments refs
// and every site that drops a registration calls Env.dropRef; a spent token
// whose last registration is dropped returns to the free list. A token may
// therefore never be recycled while any waiter list can still observe it.
//
// A timed wait's timeout is a deadline, kept apart from the events in
// Env.deadlines; dl is one more than its slot there (0: none), so the wake-up
// that beats it takes it out on the spot (Env.grant). A token is thus never
// in the event queue twice, nor there and in the deadline heap at once, and
// neither ever holds a spent token. refs is 16-bit and dl 32-bit to keep the
// token in the 16-byte size class.
//
// A task has a token only for a registration, or in a waiter list or FIFO
// until its grant (or its deadline, for a timed wait). Nothing else races,
// so nothing else takes one: a proc's start and a Delay are queued as
// themselves.
type wakeToken struct {
	task  *pendingTask
	spent bool
	refs  int16
	dl    int32
}

// Run makes a token one kind of an event's run. The kernel type-switches on
// it and never calls it.
func (*wakeToken) Run() { panic("sim: a wake token was run as a task") }

// when orders events and deadlines: by time, then by the sequence number
// drawn when they were scheduled, a total order.
type when struct {
	t   Time
	seq uint64
}

func (a when) before(b when) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// event is an entry of the event queue. A *wakeToken run advances its pending
// task; a *Proc whose body has not started is started; any other run is a task
// queued as itself (by Delay or a grant), run inline: no token, no record.
type event struct {
	when
	run Task
}

// eventHeap is a 4-ary array-indexed min-heap ordered by (t, seq). It stores
// events by value (no interface boxing, so Push/Pop never allocate beyond
// amortized slice growth) and is flatter than a binary heap, which matters
// because pops dominate: each pop sifts down through at most log4(n) levels.
type eventHeap struct {
	a []event
}

func (h *eventHeap) len() int { return len(h.a) }

// push and down move a hole to where ev belongs and store ev once, instead of
// swapping it level by level.
func (h *eventHeap) push(ev event) {
	h.a = append(h.a, ev)
	a := h.a
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !ev.before(a[parent].when) {
			break
		}
		a[i] = a[parent]
		i = parent
	}
	a[i] = ev
}

func (h *eventHeap) pop() event {
	a := h.a
	min := a[0]
	last := len(a) - 1
	ev := a[last]
	a[last] = event{} // release the token or task
	h.a = a[:last]
	if last > 0 {
		h.down(0, ev)
	}
	return min
}

// down places ev in the subtree rooted at index i, whose own entry is ev or
// has been taken out.
func (h *eventHeap) down(i int, ev event) {
	a := h.a
	n := len(a)
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		m := first
		for c := first + 1; c < min(first+4, n); c++ {
			if a[c].before(a[m].when) {
				m = c
			}
		}
		if !a[m].before(ev.when) {
			break
		}
		a[i] = a[m]
		i = m
	}
	a[i] = ev
}

// deadline is a timed wait's timeout: the (t, seq) its event would have, and
// the token it fires.
type deadline struct {
	when
	tok *wakeToken
}

// deadlineHeap is eventHeap for deadlines, whose entries keep their slots in
// their tokens (dl) so that one can be taken out from anywhere.
type deadlineHeap struct {
	a []deadline
}

func (h *deadlineHeap) set(i int, d deadline) {
	h.a[i] = d
	d.tok.dl = int32(i) + 1
}

func (h *deadlineHeap) push(d deadline) {
	h.a = append(h.a, d)
	h.up(len(h.a)-1, d)
}

// remove takes out the entry in slot i and returns its token. The last entry
// fills the hole, sifting up or, if it stays, down.
func (h *deadlineHeap) remove(i int) *wakeToken {
	tok := h.a[i].tok
	tok.dl = 0
	last := len(h.a) - 1
	d := h.a[last]
	h.a[last] = deadline{}
	h.a = h.a[:last]
	if i < last {
		h.up(i, d)
		h.down(int(d.tok.dl-1), d)
	}
	return tok
}

func (h *deadlineHeap) up(i int, d deadline) {
	for i > 0 {
		parent := (i - 1) >> 2
		if !d.before(h.a[parent].when) {
			break
		}
		h.set(i, h.a[parent])
		i = parent
	}
	h.set(i, d)
}

func (h *deadlineHeap) down(i int, d deadline) {
	a := h.a
	n := len(a)
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		m := first
		for c := first + 1; c < min(first+4, n); c++ {
			if a[c].before(a[m].when) {
				m = c
			}
		}
		if !a[m].before(d.when) {
			break
		}
		h.set(i, a[m])
		i = m
	}
	h.set(i, d)
}

type procState uint8

const (
	// stateNew is a spawned proc whose start event has not fired: it owns no
	// coroutine yet.
	stateNew procState = iota
	stateRunning
	stateBlocked
	// stateDone also covers a proc whose body has returned and which waits in
	// the reuse pool for the next Spawn.
	stateDone
)

// killSignal is the panic sentinel that unwinds a parked proc's body when
// Shutdown stops its coroutine.
type killSignal struct{}

// coro is a runtime coroutine (iter.Pull) that runs proc bodies, one after
// another: it is bound to a proc when the proc starts, and when that body
// returns it either runs the next body itself or goes back to the pool.
type coro struct {
	env *Env
	// p is the proc whose body the coroutine is running; nil while pooled.
	p *Proc
	// resume and stop are the two ends of the coroutine (iter.Pull's next
	// and stop); yield is handed to loop on the coroutine's first run.
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
}

// Proc is a simulated thread of control. All blocking operations on the
// simulation (Wait, queue pops, CPU execution, transfers) take the Proc as
// the identity of the caller; a Proc must only be used from its own body.
// Each is a task-form call awaited: the proc passes itself as the
// continuation and parks in Suspend, so a proc takes no wake token of its own.
//
// Procs are pooled: when a body returns, the proc parks in a free list and
// the next Spawn reuses it. A *Proc must therefore not be retained past the
// return of its body.
type Proc struct {
	env  *Env
	name string
	// id completes the name of procs spawned with SpawnID (hasID); the string
	// is only built when somebody asks for it.
	id uint64
	fn func(*Proc)
	// co is the coroutine running the body, from the proc's start to its end.
	co     *coro
	thread *Thread
	// busy is where the ExecThen that Exec awaits stores the busy time.
	busy Duration
	// idx is the proc's position in env.procs (swap-removed on completion),
	// 32-bit so that Proc stays in the 80-byte size class.
	idx    int32
	hasID  bool
	state  procState
	daemon bool
}

// Name returns the name the process was spawned with.
func (p *Proc) Name() string {
	if p.hasID {
		return p.name + strconv.FormatUint(p.id, 10)
	}
	return p.name
}

// String names the proc, in deadlock reports too when it is the continuation
// of a task-form call it awaits.
func (p *Proc) String() string { return p.Name() }

// ID returns the id SpawnID gave the proc. A per-operation body finds its
// record under it, so every spawn shares one func value: no closure per op.
func (p *Proc) ID() uint64 { return p.id }

// Thread returns the OS-thread identity attached to this process (may be
// nil for pure coordination processes).
func (p *Proc) Thread() *Thread { return p.thread }

// SetThread attaches an OS-thread identity used by CPU cost accounting when
// callees charge work to "the calling thread".
func (p *Proc) SetThread(th *Thread) { p.thread = th }

// Env returns the environment the process belongs to.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Env is a discrete-event simulation environment: a virtual clock, an event
// queue and the set of live processes. Create one with NewEnv, spawn
// processes, then call Run or RunUntil from the host goroutine. Env is not
// safe for concurrent use from multiple host goroutines.
//
// Every proc body runs on a runtime coroutine (iter.Pull). The goroutine that
// called RunUntil is the only scheduler: runWindow pops events until one
// starts or resumes a proc and switches to it, and a suspending or finishing
// proc yields straight back to it. A coroutine switch hands the running thread
// from one goroutine to the other without passing through the Go scheduler, so
// no run queue, idle-P wake-up or futex is involved. A wake-up that is already
// next needs no switch at all: a timed Wait whose deadline comes before every
// other event fires in place, a suspending proc whose own resume is next keeps
// running, and a finishing body whose next event starts a fresh proc runs that
// proc's body on the same coroutine. Exactly one goroutine runs at a time and
// events fire in (t, seq) order whichever way control travels, so every
// simulated result is that of the classic kernel-centric loop.
type Env struct {
	now Time
	seq uint64
	// The event queue is a heap behind a FIFO of entries that carry what they
	// run: a pending task's wake token, or a task queued as itself (a proc's
	// start and its awaited wake-ups among them). An event scheduled for the
	// current instant — a wake-up handed from one proc to the next, about half
	// of all events — is appended to nowq, every other one is pushed to heap.
	// All of nowq is at t == now with ascending seq, and the clock cannot move
	// while a live entry waits there, so the ring is already in (t, seq) order
	// and taking the earlier of its front and the heap's top pops exactly what
	// one heap holding everything would. A timed wait's timeout waits in
	// deadlines, the third front, until it fires or the wake-up that beats it
	// takes it out, so no front ever holds a dead entry. heapOnly, set only by
	// the tests that check this, is the classic loop: every event goes through
	// the heap (the timeouts still through deadlines), every Wait parks, and
	// every finished body yields to runWindow.
	heap      eventHeap
	nowq      fifo[event]
	deadlines deadlineHeap
	heapOnly  bool
	limit     Time
	// ready is the proc a parking proc found next in the queue; runWindow
	// resumes it instead of popping again.
	ready *Proc
	// resumed is the suspended proc a task ran (Proc.Run) in the event being
	// fired; next returns it once the task is done.
	resumed *Proc
	rng     *rand.Rand
	procs   []*Proc
	// tasks lists the records of the tasks that have not run; a task queued
	// as itself is in the event queue alone.
	tasks []*pendingTask
	// served lists the queues consumed through ServeTask, for Backlog.
	served []interface{ backlog() (string, int) }
	stats  EnvStats

	procFree []*Proc
	tokFree  []*wakeToken
	taskFree []*pendingTask
	// tokMade and taskMade count the tokens and records ever allocated.
	tokMade, taskMade int
	// coroFree holds at least one coroutine per unstarted proc (spawned, start
	// event not fired yet), so that procs spawned during set-up make their
	// coroutines there and not in the measured run.
	coroFree  []*coro
	unstarted int

	// locals holds the values Local made, one per type; ledgers are the
	// free lists among them, in the order they were made.
	locals  map[any]any
	ledgers []ledger
	// spawned is WatchSpawns' function, nil when nobody watches.
	spawned func(name string)
}

// NewEnv returns an environment whose random stream is seeded with seed.
func NewEnv(seed int64) *Env {
	return &Env{
		rng:   rand.New(rand.NewSource(seed)),
		limit: MaxTime,
	}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Rand returns the environment's deterministic random stream. It must only
// be used from simulation processes (or before Run), never concurrently.
func (e *Env) Rand() *rand.Rand { return e.rng }

// dropRef releases one registration of tok (heap entry or waiter-list
// entry). A spent token with no registrations left can never be observed
// again and returns to the pool.
func (e *Env) dropRef(tok *wakeToken) {
	tok.refs--
	if tok.refs == 0 && tok.spent {
		tok.task = nil
		e.tokFree = append(e.tokFree, tok)
	}
}

// schedule enqueues tok, a pending task's registration, to fire at time at
// (>= now).
func (e *Env) schedule(tok *wakeToken, at Time) {
	tok.refs++
	e.queue(at, tok)
}

// queue enqueues run at time at (>= now), at the next sequence number.
func (e *Env) queue(at Time, run Task) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	ev := event{when{at, e.seq}, run}
	if at == e.now && !e.heapOnly {
		e.nowq.push(ev)
		e.stats.NowQueued++
		return
	}
	e.heap.push(ev)
	if n := e.heap.len(); n > e.stats.HeapPeak {
		e.stats.HeapPeak = n
	}
}

// timeout registers tok's deadline d from now, at the next sequence number:
// the entry a timed wait's timeout would take in the event queue.
func (e *Env) timeout(tok *wakeToken, d Duration) {
	tok.refs++
	e.seq++
	e.deadlines.push(deadline{when{max(e.now.Add(d), e.now), e.seq}, tok})
	e.stats.Deadlines++
	e.stats.DeadlinePeak = max(e.stats.DeadlinePeak, len(e.deadlines.a))
}

// pending returns the number of events and deadlines waiting.
func (e *Env) pending() int { return e.heap.len() + e.nowq.len() + len(e.deadlines.a) }

// Where peek finds the earliest entry.
const (
	inNone = iota
	inNowq
	inHeap
	inDeadlines
)

// peek reports which front holds the earliest entry, and its time, comparing
// the now-queue's front, the heap's top and the earliest deadline in place.
// None of them holds a dead entry. A heap's top comes before the now-queue's
// front only when it is due at this same instant and was drawn before it.
func (e *Env) peek() (in int, t Time) {
	var seq uint64
	if e.nowq.n > 0 {
		in, t, seq = inNowq, e.now, e.nowq.buf[e.nowq.head].seq
	}
	if len(e.heap.a) > 0 {
		if top := &e.heap.a[0]; in == inNone || top.t < t || top.t == t && top.seq < seq {
			in, t, seq = inHeap, top.t, top.seq
		}
	}
	if len(e.deadlines.a) > 0 {
		if top := &e.deadlines.a[0]; in == inNone || top.t < t || top.t == t && top.seq < seq {
			in, t = inDeadlines, top.t
		}
	}
	return in, t
}

// next pops events until one starts a proc, or runs a task that resumes a
// suspended proc, and returns that proc; the events of tasks on the way are
// run right here, on the caller's stack.
// It returns nil when the queue is exhausted or the next event lies beyond
// the run limit (the event is left queued). Must only be called by the
// goroutine currently holding control.
func (e *Env) next() *Proc {
	for {
		in, t := e.peek()
		if in == inNone || t > e.limit {
			return nil
		}
		e.now = t
		e.stats.Events++
		var run Task
		switch in {
		case inNowq:
			run = e.nowq.pop().run
		case inHeap:
			run = e.heap.pop().run
		default:
			run = e.deadlines.remove(0)
		}
		switch r := run.(type) {
		case *wakeToken:
			pt := r.task // dropRef may pool r
			r.spent = true
			e.dropRef(r)
			if run = e.advance(pt); run == nil {
				continue
			}
		case *Proc:
			if r.state == stateNew {
				return r // its start
			}
		}
		run.Run()
		if p := e.resumed; p != nil {
			e.resumed = nil
			return p
		}
		e.stats.TaskRuns++
	}
}

// purge empties, for Shutdown, the now-queue and the heap. Every entry left
// there is a task queued as itself (a proc's start or awaited wake-up among
// them) or the token of a record Shutdown dropped, which it spent.
func (e *Env) purge() {
	drop := func(ev event) {
		if tok, ok := ev.run.(*wakeToken); ok {
			e.dropRef(tok)
		}
	}
	for e.nowq.len() > 0 {
		drop(e.nowq.pop())
	}
	for _, ev := range e.heap.a {
		drop(ev)
	}
	clear(e.heap.a)
	e.heap.a = e.heap.a[:0]
}

// SpawnDaemon creates a service-loop process that is expected to block
// forever once the system goes idle (messenger workers, storage threads,
// pollers). Daemons are excluded from deadlock detection: a run whose only
// remaining blocked processes are daemons terminates cleanly.
func (e *Env) SpawnDaemon(name string, fn func(*Proc)) *Proc {
	p := e.Spawn(name, fn)
	p.daemon = true
	return p
}

// Spawn creates a new process running fn and schedules it to start at the
// current virtual time. It may be called before Run or from inside a running
// process. Finished procs and their coroutines are reused.
func (e *Env) Spawn(name string, fn func(*Proc)) *Proc {
	var p *Proc
	if n := len(e.procFree); n > 0 {
		p = e.procFree[n-1]
		e.procFree = e.procFree[:n-1]
	} else {
		p = &Proc{env: e}
	}
	if e.unstarted++; len(e.coroFree) < e.unstarted {
		c := &coro{env: e}
		c.resume, c.stop = iter.Pull(c.loop)
		e.coroFree = append(e.coroFree, c)
		e.stats.CoroutinesPeak++
	}
	e.stats.Spawns++
	if e.spawned != nil {
		e.spawned(name)
	}
	p.name, p.hasID, p.fn, p.state = name, false, fn, stateNew
	p.idx = int32(len(e.procs))
	e.procs = append(e.procs, p)
	e.queue(e.now, p)
	return p
}

// WatchSpawns calls f with the name of every live proc, and from then on
// with the name of every proc spawned (a SpawnID's prefix): a diagnostic for
// tests that hold which servers are procs. Called before a run, it sees every
// proc the environment ever has.
func (e *Env) WatchSpawns(f func(name string)) {
	for _, p := range e.procs {
		f(p.name)
	}
	e.spawned = f
}

// SpawnID is Spawn for per-operation procs named prefix+id ("stream-ingest:42").
// The name exists only for diagnostics, so it is stored in parts and
// formatted by Name when a deadlock report asks for it.
func (e *Env) SpawnID(prefix string, id uint64, fn func(*Proc)) *Proc {
	p := e.Spawn(prefix, fn)
	p.id, p.hasID = id, true
	return p
}

// bind hands p, whose start event runWindow just popped, a pooled coroutine.
func (e *Env) bind(p *Proc) {
	n := len(e.coroFree) - 1
	c := e.coroFree[n]
	e.coroFree[n] = nil
	e.coroFree = e.coroFree[:n]
	e.unstarted--
	c.p, p.co = p, c
}

// loop is the body of a coroutine: run the bound proc's function, recycle the
// proc, and then either run the next body or yield until the next bind. One
// coroutine, and one deferred exit path, serve many Spawns. The body that
// follows a finished one on the same coroutine is a hand-off: when the next
// event is the start of a proc that has not run yet, the finishing coroutine
// pops it and runs that body itself, where runWindow would have popped the
// same event, found the same proc and resumed a pooled coroutine for it. It
// returns — ending the coroutine — only when Shutdown stops it; any other
// panic in a body, or in a task run between two bodies, propagates out of
// resume on the goroutine driving the env.
func (c *coro) loop(yield func(struct{}) bool) {
	c.yield = yield
	e := c.env
	defer func() {
		e.stats.CoroutinesEnded++ // the goroutine exits as loop returns
		// A panic with a proc bound is a body cut short.
		if r := recover(); r != nil {
			if p := c.p; p != nil {
				p.state = stateDone
			}
			if _, ok := r.(killSignal); !ok {
				panic(r)
			}
		}
	}()
	for {
		p := c.p
		p.state = stateRunning
		p.fn(p)
		p.state = stateDone
		// Swap-remove from the live list and recycle.
		n := len(e.procs) - 1
		last := e.procs[n]
		e.procs[p.idx], last.idx = last, p.idx
		e.procs[n] = nil
		e.procs = e.procs[:n]
		p.fn, p.thread, p.daemon, p.co = nil, nil, false, nil
		e.procFree = append(e.procFree, p)
		c.p = nil
		if !e.heapOnly {
			next := e.next()
			if next != nil && next.state == stateNew {
				e.unstarted--
				c.p, next.co = next, c
				e.stats.Handoffs++
				continue
			}
			e.ready = next
		}
		e.coroFree = append(e.coroFree, c)
		if !yield(struct{}{}) {
			return
		}
	}
}

// Suspend parks p with no wake-up of its own, after p passed itself as next
// to a task-form call that reported it registered next: the call's chain
// resumes p by running it (Run), in the event whose task it is. So a proc
// makes any call through its task form — at the same events, and drawing no
// sequence number of its own — and every blocking primitive's proc form is
// such an await:
//
//	if cpu.ExecThen(p.Thread(), cycles, nil, p) {
//		p.Suspend()
//	}
//
// Fast path: when the event that resumes p is the next one, Suspend runs it
// and returns without a switch.
func (p *Proc) Suspend() {
	p.state = stateBlocked
	e := p.env
	if next := e.next(); next != p {
		e.ready = next
		if !p.co.yield(struct{}{}) {
			panic(killSignal{})
		}
	} else {
		e.stats.FastPath++
	}
	p.state = stateRunning
}

// Run resumes p, parked in Suspend: the kernel returns to p as soon as the
// task that runs it is done, in that task's event. It makes a *Proc a Task,
// the continuation it hands a task-form call. Run panics unless p is parked in
// Suspend with no resume already pending: a task form that runs its next
// inline after reporting that it registered it, or runs it twice, is a wiring
// bug.
func (p *Proc) Run() {
	e := p.env
	if p.state != stateBlocked || e.resumed != nil {
		panic("sim: " + p.Name() + " run while not parked in Suspend, or with a resume pending")
	}
	e.resumed = p
}

// Wait blocks the process for duration d of virtual time: it awaits WaitThen,
// so a wake-up due within the run limit and strictly before every other
// event and deadline fires in place, and any other is queued as the proc
// itself.
func (p *Proc) Wait(d Duration) {
	if p.env.WaitThen(d, p) {
		p.Suspend()
	}
}

// inPlace fires a wake-up d from now in place when it is due within the run
// limit and strictly before every other event and deadline: the sequence
// number its entry would have drawn is drawn, the clock moves and the caller
// runs on. It reports whether it did.
func (e *Env) inPlace(d Duration) bool {
	// The now-queue's front is due now, and a heap's top due at at was drawn
	// before this wake-up.
	at := e.now.Add(d)
	if d <= 0 || at > e.limit || e.heapOnly || e.nowq.n > 0 ||
		len(e.heap.a) > 0 && at >= e.heap.a[0].t || len(e.deadlines.a) > 0 && at >= e.deadlines.a[0].t {
		return false
	}
	e.seq++
	e.now = at
	e.stats.Events++
	e.stats.FastPath++
	return true
}

// WaitUntil blocks the process until the virtual instant t (no-op if t has
// passed).
func (p *Proc) WaitUntil(t Time) {
	if t <= p.env.now {
		return
	}
	p.Wait(t.Sub(p.env.now))
}

// Yield reschedules the process at the current instant, letting every other
// process that is ready at the same time run first.
func (p *Proc) Yield() { p.Wait(0) }

// PartitionState is the diagnostic snapshot of one partition at the moment
// a deadlock was detected. Serial runs report a single partition; the
// partitioned kernel (Group) reports one entry per member, so a stall in a
// parallel run shows which partition is parked, where its clock stopped and
// whether cross-partition messages were delivered but never consumed.
type PartitionState struct {
	// Name is the partition name ("env" for a serial run).
	Name string
	// Now is the partition's local clock when the run stopped.
	Now Time
	// Parked lists the non-daemon procs blocked forever, sorted.
	Parked []string
	// Daemons counts parked daemon procs (excluded from detection).
	Daemons int
	// Pending counts cross-partition messages sitting in this partition's
	// link inboxes, delivered but never received by any proc.
	Pending int
	// Starved is the partition's Backlog: served queues nobody will drain.
	Starved []string
}

// DeadlockError reports that live processes remain but no event can ever
// wake them. Partitions carries the per-partition breakdown; Blocked stays
// the flat list of stuck proc names (prefixed "partition/" in parallel
// runs) for callers that only want the summary.
type DeadlockError struct {
	Time       Time
	Blocked    []string
	Partitions []PartitionState
}

func (e DeadlockError) Error() string {
	if len(e.Partitions) <= 1 {
		s := fmt.Sprintf("sim: deadlock at %v: %d proc(s) blocked forever: %s",
			e.Time, len(e.Blocked), strings.Join(e.Blocked, ", "))
		if len(e.Partitions) == 1 && len(e.Partitions[0].Starved) > 0 {
			s += "; starved queues: " + strings.Join(e.Partitions[0].Starved, ", ")
		}
		return s
	}
	var b strings.Builder
	fmt.Fprintf(&b, "sim: deadlock at %v: %d proc(s) blocked forever across %d partitions",
		e.Time, len(e.Blocked), len(e.Partitions))
	for _, ps := range e.Partitions {
		fmt.Fprintf(&b, "\n  partition %s @ %v: parked=[%s] daemons=%d pending-msgs=%d starved=[%s]",
			ps.Name, ps.Now, strings.Join(ps.Parked, ", "), ps.Daemons, ps.Pending, strings.Join(ps.Starved, ", "))
	}
	return b.String()
}

// Run executes events until no process remains. It returns a DeadlockError
// if live processes are blocked with an empty event queue.
func (e *Env) Run() error { return e.RunUntil(MaxTime) }

// RunUntil executes events with timestamps <= limit. On return the clock is
// at limit (or at the completion instant if everything finished earlier).
// Processes still blocked at the limit are left parked; use Shutdown to
// reclaim them. A DeadlockError is returned if, before the limit, live
// processes remain with an empty event queue.
func (e *Env) RunUntil(limit Time) error {
	if !e.runWindow(limit) {
		return nil
	}
	if ps := e.blockedState("env"); len(ps.Parked) > 0 {
		return DeadlockError{Time: e.now, Blocked: ps.Parked, Partitions: []PartitionState{ps}}
	}
	return nil
}

// runWindow executes events with timestamps <= limit and reports whether
// the queue drained completely (false means live events remain beyond the
// limit and the clock was advanced to it). Unlike RunUntil it performs no
// deadlock detection: the partitioned kernel calls it for each safe window,
// where an empty queue with parked procs just means the partition is waiting
// for cross-partition messages.
func (e *Env) runWindow(limit Time) (drained bool) {
	e.limit = limit
	for p := e.next(); p != nil; {
		e.ready = nil
		e.stats.Switches += 2 // into the proc, and back when it parks or ends
		if p.co == nil {
			e.bind(p)
		}
		p.co.resume()
		// The last body on the coroutine parked or finished, and has already
		// popped the next event and left its owner in ready. Nil means nothing
		// was due, or a finishing body of the classic loop left that to us.
		if p = e.ready; p == nil {
			p = e.next()
		}
	}
	if e.pending() > 0 {
		// Next event is beyond the limit; leave it queued. The clock
		// never moves back (a limit behind it): the now-queue's order rests
		// on that.
		e.advanceTo(limit)
		return false
	}
	return true
}

// work calls proc for every proc that has not finished and task for every
// task that has not run, listed or queued as itself, once each: a task that
// is a proc's own await (awaited) is that proc's.
func (e *Env) work(proc func(*Proc), task func(Task)) {
	for _, p := range e.procs {
		if p.state != stateDone {
			proc(p)
		}
	}
	each := func(t Task) {
		if _, tok := t.(*wakeToken); !tok && !awaited(t) { // a token is a listed task's
			task(t)
		}
	}
	for _, pt := range e.tasks {
		each(pt.run)
	}
	for i := 0; i < e.nowq.len(); i++ {
		each(e.nowq.at(i).run)
	}
	for _, ev := range e.heap.a {
		each(ev.run)
	}
}

// blockedState is the partition's deadlock snapshot: the sorted names of procs
// and tasks that have not run (daemons' only counted), and the starved queues.
// Tasks queued as themselves are in the event queue, which a deadlock drained.
func (e *Env) blockedState(name string) PartitionState {
	ps := PartitionState{Name: name, Now: e.now}
	e.work(func(p *Proc) {
		switch {
		case p.state == stateRunning:
		case p.daemon:
			ps.Daemons++
		default:
			ps.Parked = append(ps.Parked, p.Name())
		}
	}, func(t Task) {
		if _, ok := t.(Daemon); ok {
			ps.Daemons++
		} else {
			ps.Parked = append(ps.Parked, taskName(t))
		}
	})
	sort.Strings(ps.Parked)
	ps.Starved = e.Backlog()
	return ps
}

// Backlog lists, as "name(values)", the served queues that hold values. An
// identity goes idle only on an empty buffer, so every identity of such a
// queue is inside its body: at a deadlock, the queue is starved.
func (e *Env) Backlog() (out []string) {
	for _, q := range e.served {
		if name, n := q.backlog(); n > 0 {
			out = append(out, fmt.Sprintf("%s(%d)", name, n))
		}
	}
	return out
}

// NextEventTime returns the timestamp of the earliest event or deadline. ok
// is false when none remains. It must only be called while the environment
// is not running (between windows or before Run).
func (e *Env) NextEventTime() (t Time, ok bool) {
	in, t := e.peek()
	return t, in != inNone
}

// advanceTo moves the clock forward to t without executing anything. The
// partitioned kernel uses it to align member clocks at the run limit.
func (e *Env) advanceTo(t Time) {
	if t > e.now {
		e.now = t
	}
}

// Shutdown force-terminates every process that is still parked and stops the
// pooled coroutines, releasing their goroutines; procs that never started own
// no coroutine and are only accounted for. It drops every task that has not
// run: one queued as itself leaves the event queue; a pending one's record
// returns to the pool, and so does its token if it is in the event queue, the
// deadline heap or a waiter list (an After task's, an Event.WaitThen or
// Cond.WaitThen continuation's, or an Event.WaitTimeoutThen one's, which has
// a deadline and a waiter-list entry), while one in a CPU's, Semaphore's or
// Queue's waiter FIFO is left there, spent. The event queue is left empty.
// The environment must not be used afterwards.
func (e *Env) Shutdown() {
	for _, p := range e.procs {
		switch p.state {
		case stateBlocked:
			p.co.stop() // unwinds the body; loop's deferred exit does the accounting
		case stateNew:
			p.state = stateDone
		}
	}
	for _, c := range e.coroFree {
		if c.yield == nil {
			// Never resumed: stop ends its goroutine without running loop.
			e.stats.CoroutinesEnded++
		}
		c.stop()
	}
	e.coroFree = nil
	for _, pt := range e.tasks {
		tok := pt.tok
		tok.spent = true // purge drops its event-queue entry below
		if tok.dl != 0 { // an Event.WaitTimeoutThen continuation's deadline
			e.deadlines.remove(int(tok.dl - 1))
			e.dropRef(tok)
		}
		if pt.ev != nil && pt.started && !pt.ev.fired {
			// A started After task, an Event.WaitThen continuation or an
			// Event.WaitTimeoutThen one: the token is in the event's waiter
			// list until the event fires.
			pt.ev.waiters.remove(tok)
			e.dropRef(tok)
		}
		if pt.cond != nil && pt.cond.waiters.remove(tok) {
			// A Cond.WaitThen continuation no Broadcast has woken yet.
			e.dropRef(tok)
		}
		// A token in neither waits in a CPU's, a Semaphore's or a Queue's
		// FIFO, which drops a spent token when it reaches it, as it does a
		// timed-out one.
		*pt = pendingTask{env: e}
		e.taskFree = append(e.taskFree, pt)
	}
	e.tasks = nil
	e.purge()
}

// LiveProcs returns the number of processes that have not finished plus the
// number of tasks — pending or queued as themselves — that have not run. A
// proc awaiting a task form counts once, as itself.
func (e *Env) LiveProcs() (n int) {
	e.work(func(*Proc) { n++ }, func(Task) { n++ })
	return n
}

// Busy lists, sorted, the live procs and tasks that are not daemons: the work
// still under way. A drained run leaves it empty. It must not be called while
// the environment is running.
func (e *Env) Busy() []string { return e.blockedState("").Parked }

// Events returns the total number of events fired since the environment was
// created (spent tokens skipped by the kernel are not counted). It is the
// numerator of the simulator's events/sec throughput metric.
func (e *Env) Events() uint64 { return e.stats.Events }

// EnvStats is the kernel's account of its own work: plain counters, kept
// unconditionally.
type EnvStats struct {
	// Events is the number of events fired. Each was consumed one of four
	// ways, so Events = Switches/2 + FastPath + Handoffs + task events: by
	// starting or resuming its proc from the scheduler (two coroutine
	// switches, counted in Switches); by the suspending proc itself because
	// the event that resumes it was next (FastPath: a timed wait fired in
	// place, or a proc that ran its own resume); by a finishing body whose
	// next event started a fresh proc, run on the same coroutine (Handoffs);
	// or by running a task inline that resumed no proc (TaskRuns counts these
	// runs; an After or At task that had to wait consumed a second event to
	// get there, a task form's continuation one). An event whose task resumes
	// a suspended proc (Proc.Run) is that resume's: a switch or a fast-path
	// wake, not a task run.
	Events, Switches, FastPath, Handoffs, TaskRuns uint64
	// Tokens and Records count the wake tokens and pending-task records taken:
	// one of each per task registration (After, At) and per wait in a waiter
	// list or FIFO, a proc's awaited ones included. A proc's start and a task
	// queued as itself (a Delay, a granted continuation) take neither.
	Tokens, Records uint64
	// NowQueued counts the events scheduled for the instant they were
	// scheduled at, which waited in the now-queue and never entered the heap.
	NowQueued uint64
	// Deadlines counts the timeouts registered by timed waits, Cancelled the
	// ones a wake-up took out before they were due.
	Deadlines, Cancelled uint64
	// HeapPeak is the high-water mark of the event heap's length alone,
	// DeadlinePeak that of the deadline heap's.
	HeapPeak, DeadlinePeak int
	// Spawns counts the procs started, CoroutinesPeak the coroutines made to
	// run them (bound + pooled; the pool never shrinks and keeps one per
	// unstarted proc, so at most the peak concurrency of procs),
	// CoroutinesEnded those whose goroutine has exited (Shutdown ends them
	// all), Identities the threads registered with Queue.ServeTask.
	Spawns                                      uint64
	CoroutinesPeak, CoroutinesEnded, Identities int
}

// add folds another partition's account into s: counters add, the heaps'
// peaks take the larger (each partition has heaps of its own).
func (s *EnvStats) add(o EnvStats) {
	s.Events += o.Events
	s.Switches += o.Switches
	s.FastPath += o.FastPath
	s.Handoffs += o.Handoffs
	s.TaskRuns += o.TaskRuns
	s.Tokens += o.Tokens
	s.Records += o.Records
	s.NowQueued += o.NowQueued
	s.Deadlines += o.Deadlines
	s.Cancelled += o.Cancelled
	s.HeapPeak = max(s.HeapPeak, o.HeapPeak)
	s.DeadlinePeak = max(s.DeadlinePeak, o.DeadlinePeak)
	s.Spawns += o.Spawns
	s.CoroutinesPeak += o.CoroutinesPeak // each partition has a pool of its own
	s.CoroutinesEnded += o.CoroutinesEnded
	s.Identities += o.Identities
}

// Stats returns the kernel's counters. Like Events it must not be called
// while the environment is running.
func (e *Env) Stats() EnvStats { return e.stats }
