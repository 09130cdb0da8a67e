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

// wakeToken is a single-use wakeup permit for a parked Proc. A Proc about to
// block creates one token and registers it with every path that may resume it
// (a timer, a queue push, an event fire). The first path to reach the kernel
// wins; the rest find the token spent and are ignored. This is what makes
// timeouts composable with every blocking primitive.
//
// Tokens are pooled: refs counts live registrations (scheduled events plus
// waiter-list entries). Every registration site increments refs and every
// site that drops a registration calls Env.dropRef; a spent token whose last
// registration is dropped returns to the free list. A token may therefore
// never be recycled while any waiter list can still observe it.
//
// queued counts the scheduled events alone, in the heap or the now-queue.
// When a token is spent its remaining events are dead (typically the timeout
// that lost the race against a push or a fire); Env.dead totals them so they
// can be compacted away instead of being carried until their virtual
// deadline. A token has at most a handful of registrations, so the counts
// are 16-bit to keep it in the 24-byte size class.
//
// A token belongs either to a proc (p) or to a pending task (task), never
// both; the event queue, the waiter lists and the pool treat the two alike.
type wakeToken struct {
	p      *Proc
	task   *pendingTask
	spent  bool
	refs   int16
	queued int16
}

// env returns the environment of the token's owner.
func (tok *wakeToken) env() *Env {
	if tok.p != nil {
		return tok.p.env
	}
	return tok.task.env
}

type event struct {
	t   Time
	seq uint64
	tok *wakeToken
}

func (a event) before(b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
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
		if !ev.before(a[parent]) {
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
	a[last] = event{} // release the token pointer
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
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if a[c].before(a[m]) {
				m = c
			}
		}
		if !a[m].before(ev) {
			break
		}
		a[i] = a[m]
		i = m
	}
	a[i] = ev
}

type procState uint8

const (
	stateNew procState = iota
	stateRunning
	stateBlocked
	// stateDone also covers a proc whose body has returned and whose
	// coroutine is suspended in the reuse pool awaiting the next Spawn.
	stateDone
)

// killSignal is the panic sentinel that unwinds a parked proc's body when
// Shutdown stops its coroutine.
type killSignal struct{}

// Proc is a simulated thread of control. All blocking operations on the
// simulation (Wait, queue pops, CPU execution, transfers) take the Proc as
// the identity of the caller; a Proc must only be used from its own body.
//
// Procs (and their coroutines) are pooled: when a body returns, the proc
// parks in a free list and the next Spawn reuses it. A *Proc must therefore
// not be retained past the return of its body.
type Proc struct {
	env  *Env
	name string
	// id completes the name of procs spawned with SpawnID (hasID); the string
	// is only built when somebody asks for it.
	id uint64
	fn func(*Proc)
	// resume and stop are the two ends of the proc's coroutine (iter.Pull's
	// next and stop); yield is handed to loop on the coroutine's first run.
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
	thread *Thread
	// idx is the proc's position in env.procs (swap-removed on completion).
	// It and core are 32-bit so that Proc stays in the 96-byte size class.
	idx int32
	// core is the core a CPU granted the proc while it was parked in acquire.
	core   int32
	hasID  bool
	state  procState
	daemon bool
	// granted is set by the primitive that wakes the proc with a result (a
	// queue push, an event fire) and stays false when only a timeout fired.
	// A proc parks in one place at a time, so one flag serves them all.
	granted bool
}

// Name returns the name the process was spawned with.
func (p *Proc) Name() string {
	if p.hasID {
		return p.name + strconv.FormatUint(p.id, 10)
	}
	return p.name
}

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
// Every proc is a runtime coroutine (iter.Pull). The goroutine that called
// RunUntil is the only scheduler: runWindow pops the next event and resumes
// its owner, and a parking or finishing proc yields straight back to it. A
// coroutine switch hands the running thread from one goroutine to the other
// without passing through the Go scheduler, so no run queue, idle-P wake-up
// or futex is involved. A parking proc whose own event is next keeps running
// without any switch at all. Exactly one goroutine runs at a time and events
// fire in (t, seq) order whichever way control travels, so every simulated
// result is that of the classic kernel-centric loop.
type Env struct {
	now Time
	seq uint64
	// The event queue is a heap behind a FIFO: an event scheduled for the
	// current instant — a wake-up handed from one proc to the next, about half
	// of all events — is appended to nowq, every other one is pushed to heap.
	// All of nowq is at t == now with ascending seq, and the clock cannot move
	// while a live entry waits there, so the ring is already in (t, seq) order
	// and taking the earlier of its front and the heap's top pops exactly what
	// one heap holding everything would. heapOnly, set only by the tests that
	// check this, sends every event through the heap.
	heap     eventHeap
	nowq     fifo[event]
	heapOnly bool
	limit    Time
	// ready is the proc a parking proc found next in the queue; runWindow
	// resumes it instead of popping again.
	ready *Proc
	rng   *rand.Rand
	live  int
	procs []*Proc
	// tasks lists the registered tasks that have not run yet.
	tasks []*pendingTask
	// served lists the queues consumed through Serve, for Backlog.
	served []interface{ backlog() (string, int) }
	stats  EnvStats

	// dead counts queued events whose token is already spent; once
	// dead*compactDen exceeds the number of queued events they are compacted
	// away. compactDen is 2 outside tests (0 never compacts, a huge value
	// compacts on every dead entry).
	dead       int
	compactDen int

	procFree []*Proc
	tokFree  []*wakeToken
	taskFree []*pendingTask
}

// NewEnv returns an environment whose random stream is seeded with seed.
func NewEnv(seed int64) *Env {
	return &Env{
		rng:        rand.New(rand.NewSource(seed)),
		limit:      MaxTime,
		compactDen: 2,
	}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Rand returns the environment's deterministic random stream. It must only
// be used from simulation processes (or before Run), never concurrently.
func (e *Env) Rand() *rand.Rand { return e.rng }

// getToken takes a token from the pool (or allocates one) for p.
func (e *Env) getToken(p *Proc) *wakeToken {
	if n := len(e.tokFree); n > 0 {
		tok := e.tokFree[n-1]
		e.tokFree = e.tokFree[:n-1]
		tok.p, tok.spent = p, false
		return tok
	}
	return &wakeToken{p: p}
}

// dropRef releases one registration of tok (heap entry or waiter-list
// entry). A spent token with no registrations left can never be observed
// again and returns to the pool.
func (e *Env) dropRef(tok *wakeToken) {
	tok.refs--
	if tok.refs == 0 && tok.spent {
		tok.p, tok.task = nil, nil
		e.tokFree = append(e.tokFree, tok)
	}
}

// schedule enqueues tok to fire at time at (>= now).
func (e *Env) schedule(tok *wakeToken, at Time) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	tok.refs++
	tok.queued++
	ev := event{t: at, seq: e.seq, tok: tok}
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

// pending returns the number of events waiting, dead ones included.
func (e *Env) pending() int { return e.heap.len() + e.nowq.len() }

// unqueue accounts for an event of tok that left the queue.
func (e *Env) unqueue(tok *wakeToken) {
	tok.queued--
	e.dropRef(tok)
}

// peek returns the earliest live event, whether it is the now-queue's, and
// whether there is one at all, dropping the dead entries it finds in the way.
// The heap's top comes first only when it is due at this same instant and was
// scheduled before the now-queue's front; otherwise it waits unexamined.
func (e *Env) peek() (ev event, inNowq, ok bool) {
	for e.nowq.len() > 0 && e.nowq.front().tok.spent {
		e.dead--
		e.unqueue(e.nowq.pop().tok)
	}
	for e.heap.len() > 0 {
		top := e.heap.a[0]
		if e.nowq.len() > 0 && !top.before(e.nowq.front()) {
			break
		}
		if !top.tok.spent {
			return top, false, true
		}
		e.dead--
		e.unqueue(e.heap.pop().tok)
	}
	if e.nowq.len() == 0 {
		return ev, false, false
	}
	return e.nowq.front(), true, true
}

// next pops live events until one belongs to a proc and returns that proc;
// the events of tasks on the way are run right here, on the caller's stack.
// It returns nil when the queue is exhausted or the next live event lies
// beyond the run limit (the event is left queued). Must only be called by the
// goroutine currently holding control.
func (e *Env) next() *Proc {
	for {
		ev, inNowq, ok := e.peek()
		if !ok || ev.t > e.limit {
			return nil
		}
		if inNowq {
			e.nowq.pop()
		} else {
			e.heap.pop()
		}
		tok := ev.tok
		p, pt := tok.p, tok.task
		e.now = ev.t
		e.stats.Events++
		tok.spent = true
		if tok.queued > 1 {
			e.dead += int(tok.queued) - 1
			if e.dead > e.stats.DeadPeak {
				e.stats.DeadPeak = e.dead
			}
			if e.dead*e.compactDen > e.pending() {
				e.compact()
			}
		}
		e.unqueue(tok)
		if pt == nil {
			return p
		}
		e.advance(pt)
	}
}

// compact removes every dead entry from the now-queue, in place, and from the
// heap, restoring the heap property bottom-up. (t, seq) is a total order, so
// the order in which the surviving entries pop — and with it every simulated
// value — does not depend on the array layout. It runs when more than half
// the queued events are dead, so its cost is amortized over the entries it
// removes; the backing arrays are kept.
func (e *Env) compact() {
	for n := e.nowq.len(); n > 0; n-- {
		if ev := e.nowq.pop(); ev.tok.spent {
			e.unqueue(ev.tok)
		} else {
			e.nowq.push(ev)
		}
	}
	a := e.heap.a
	live := a[:0]
	for _, ev := range a {
		if ev.tok.spent {
			e.unqueue(ev.tok)
			continue
		}
		live = append(live, ev)
	}
	clear(a[len(live):])
	e.heap.a = live
	e.dead = 0
	e.stats.Compactions++
	for i := (len(live) - 2) >> 2; i >= 0; i-- {
		e.heap.down(i, live[i])
	}
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
// process. Finished procs (coroutine included) are reused.
func (e *Env) Spawn(name string, fn func(*Proc)) *Proc {
	var p *Proc
	if n := len(e.procFree); n > 0 {
		p = e.procFree[n-1]
		e.procFree = e.procFree[:n-1]
	} else {
		p = &Proc{env: e}
		p.resume, p.stop = iter.Pull(p.loop)
		e.stats.CoroutinesPeak++
	}
	e.stats.Spawns++
	p.name, p.hasID, p.fn, p.state = name, false, fn, stateNew
	p.idx = int32(len(e.procs))
	e.procs = append(e.procs, p)
	e.live++
	e.schedule(e.getToken(p), e.now)
	return p
}

// SpawnID is Spawn for per-operation procs named prefix+id ("proxy-tx:42").
// The name exists only for diagnostics, so it is stored in parts and
// formatted by Name when a deadlock report asks for it.
func (e *Env) SpawnID(prefix string, id uint64, fn func(*Proc)) *Proc {
	p := e.Spawn(prefix, fn)
	p.id, p.hasID = id, true
	return p
}

// loop is the body of a proc coroutine: run a spawned function, recycle the
// proc, yield until the next reuse. One coroutine, and one deferred exit path,
// serve many Spawns (a served queue starts a body per wake-up). It returns —
// ending the coroutine — only when Shutdown stops it; any other panic in a
// body propagates out of resume on the goroutine driving the env.
func (p *Proc) loop(yield func(struct{}) bool) {
	p.yield = yield
	e := p.env
	defer func() {
		// A panic is a body cut short; stopped while pooled there is none.
		if r := recover(); r != nil {
			e.live--
			p.state = stateDone
			if _, ok := r.(killSignal); !ok {
				panic(r)
			}
		}
	}()
	for {
		p.state = stateRunning
		p.fn(p)
		e.live--
		p.state = stateDone
		// Swap-remove from the live list and recycle.
		n := len(e.procs) - 1
		last := e.procs[n]
		e.procs[p.idx], last.idx = last, p.idx
		e.procs[n] = nil
		e.procs = e.procs[:n]
		p.fn, p.thread, p.daemon = nil, nil, false
		e.procFree = append(e.procFree, p)
		if !yield(struct{}{}) {
			return
		}
	}
}

// park yields control to the kernel until one of the proc's registered wake
// tokens fires. Fast path: when the next event in the heap is the proc's
// own (typical for plain Waits), park pops it and returns without a switch.
func (p *Proc) park() {
	p.state = stateBlocked
	e := p.env
	if next := e.next(); next != p {
		e.ready = next
		if !p.yield(struct{}{}) {
			panic(killSignal{})
		}
	} else {
		e.stats.FastPath++
	}
	p.state = stateRunning
}

// newToken creates a fresh single-use wake token for this proc.
func (p *Proc) newToken() *wakeToken { return p.env.getToken(p) }

// Wait blocks the process for duration d of virtual time.
func (p *Proc) Wait(d Duration) {
	if d < 0 {
		d = 0
	}
	tok := p.newToken()
	p.env.schedule(tok, p.env.now.Add(d))
	p.park()
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
		p.resume()
		// The proc parked or finished. If it parked it has already popped the
		// next event and left the owner in ready.
		if p = e.ready; p == nil {
			p = e.next()
		}
	}
	if e.pending() > 0 {
		// Next live event is beyond the limit; leave it queued. The clock
		// never moves back (a limit behind it): the now-queue's order rests
		// on that.
		e.advanceTo(limit)
		return false
	}
	return true
}

// blockedState is the partition's deadlock snapshot: the sorted names of procs
// (daemons only counted) and tasks that cannot run, and the starved queues.
func (e *Env) blockedState(name string) PartitionState {
	ps := PartitionState{Name: name, Now: e.now}
	for _, p := range e.procs {
		if p.state != stateBlocked && p.state != stateNew {
			continue
		}
		if p.daemon {
			ps.Daemons++
			continue
		}
		ps.Parked = append(ps.Parked, p.Name())
	}
	for _, pt := range e.tasks {
		ps.Parked = append(ps.Parked, taskName(pt.run))
	}
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

// NextEventTime returns the timestamp of the earliest live event, popping
// any dead entries it skims past. ok is false when no live event remains.
// It must only be called while the environment is not running (between
// windows or before Run).
func (e *Env) NextEventTime() (t Time, ok bool) {
	ev, _, ok := e.peek()
	return ev.t, ok
}

// advanceTo moves the clock forward to t without executing anything. The
// partitioned kernel uses it to align member clocks at the run limit.
func (e *Env) advanceTo(t Time) {
	if t > e.now {
		e.now = t
	}
}

// Shutdown force-terminates every process that is still parked or never
// started — including the pooled coroutines of finished procs — releasing
// their goroutines, and drops every pending task, whose tokens return to the
// pool. The environment must not be used afterwards.
func (e *Env) Shutdown() {
	for _, p := range e.procs {
		switch p.state {
		case stateBlocked:
			p.stop() // unwinds the body; loop's deferred exit does the accounting
		case stateNew:
			p.stop() // the body never started
			e.live--
			p.state = stateDone
		}
	}
	for _, p := range e.procFree {
		p.stop()
	}
	e.procFree = nil
	for _, pt := range e.tasks {
		tok := pt.tok
		tok.spent = true
		if tok.queued > 0 {
			e.dead += int(tok.queued) // compact drops the entry below
		} else {
			pt.ev.waiters.remove(tok)
			e.dropRef(tok)
		}
		e.live--
	}
	e.tasks, e.taskFree = nil, nil
	e.compact()
}

// LiveProcs returns the number of processes that have not finished plus the
// number of registered tasks that have not run.
func (e *Env) LiveProcs() int { return e.live }

// Events returns the total number of events fired since the environment was
// created (spent tokens skipped by the kernel are not counted). It is the
// numerator of the simulator's events/sec throughput metric.
func (e *Env) Events() uint64 { return e.stats.Events }

// EnvStats is the kernel's account of its own work: plain counters, kept
// unconditionally.
type EnvStats struct {
	// Events is the number of events fired. Each was consumed one of three
	// ways: by resuming its proc from the scheduler (two coroutine switches,
	// counted in Switches), by the parking proc itself because its own event
	// was next (FastPath), or by running a task inline (TaskRuns counts the
	// tasks run; a task that had to wait consumed a second event to get there).
	Events, Switches, FastPath, TaskRuns uint64
	// NowQueued counts the events scheduled for the instant they were
	// scheduled at, which waited in the now-queue and never entered the heap.
	NowQueued uint64
	// HeapPeak is the high-water mark of the event heap's length, DeadPeak
	// that of the spent entries the heap and the now-queue carried.
	HeapPeak, DeadPeak int
	// Compactions counts the purges of spent entries from the two.
	Compactions uint64
	// Spawns counts the procs started, CoroutinesPeak the coroutines made to
	// run them (live + pooled; the pool never shrinks, so the peak concurrency
	// of procs), Identities the threads registered with Queue.Serve.
	Spawns                     uint64
	CoroutinesPeak, Identities int
}

// add folds another partition's account into s: counters add, the heap's
// peaks take the larger (each partition has a heap of its own).
func (s *EnvStats) add(o EnvStats) {
	s.Events += o.Events
	s.Switches += o.Switches
	s.FastPath += o.FastPath
	s.TaskRuns += o.TaskRuns
	s.NowQueued += o.NowQueued
	s.HeapPeak = max(s.HeapPeak, o.HeapPeak)
	s.DeadPeak = max(s.DeadPeak, o.DeadPeak)
	s.Compactions += o.Compactions
	s.Spawns += o.Spawns
	s.CoroutinesPeak += o.CoroutinesPeak // each partition has a pool of its own
	s.Identities += o.Identities
}

// Stats returns the kernel's counters. Like Events it must not be called
// while the environment is running.
func (e *Env) Stats() EnvStats { return e.stats }
