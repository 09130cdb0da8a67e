package sim

// fifo is a growable ring buffer: the Queue's value buffer and the waiter
// list of Semaphore and CPU. Popping gives the slot back (a slice consumed by
// reslicing [1:] throws it away), so a queue that fills and drains over and
// over stops allocating once the ring has reached its high-water mark.
type fifo[T any] struct {
	buf     []T    // len(buf) is zero or a power of two
	head, n uint32 // 32-bit: a cluster embeds thousands of these headers
}

func (f *fifo[T]) len() int { return int(f.n) }

// push appends v, doubling the ring when it is full.
func (f *fifo[T]) push(v T) {
	if int(f.n) == len(f.buf) {
		grown := make([]T, max(1, 2*len(f.buf)))
		k := copy(grown, f.buf[f.head:])
		copy(grown[k:], f.buf[:f.head])
		f.buf, f.head = grown, 0
	}
	f.buf[(f.head+f.n)&uint32(len(f.buf)-1)] = v
	f.n++
}

// front returns the oldest element; the fifo must not be empty.
func (f *fifo[T]) front() T { return f.buf[f.head] }

// at returns the i-th oldest element, i < len().
func (f *fifo[T]) at(i int) T { return f.buf[(f.head+uint32(i))&uint32(len(f.buf)-1)] }

// pop removes and returns the oldest element. The vacated slot is zeroed so
// the ring does not keep a popped value or token reachable.
func (f *fifo[T]) pop() T {
	var zero T
	v := f.buf[f.head]
	f.buf[f.head] = zero
	f.head = (f.head + 1) & uint32(len(f.buf)-1)
	f.n--
	return v
}

// Queue is an unbounded FIFO channel between simulation processes. Push
// never blocks; Pop blocks until a value is available. The zero Queue is not
// ready for use; create one with NewQueue, or Init one held by value.
type Queue[T any] struct {
	env *Env
	buf fifo[T]
	// head..tail is the FIFO of blocked Pops and free the stack of idle
	// waiter nodes, both linked through queueWaiter.next.
	head, tail, free *queueWaiter[T]
	// srv is set once the queue is consumed through ServeTask instead of Pop.
	srv *served[T]
}

// served is the consuming side of a queue that has serving identities: the
// idle ones, in the order they went idle.
type served[T any] struct {
	name string // the first identity's, for deadlock reports
	idle fifo[*identity[T]]
}

// identity is a thread that only ever waits on one queue, written as a task
// chain and kept as data: no proc or coroutine exists for it. A Push hands it
// a value through v.
type identity[T any] struct {
	q      *Queue[T]
	name   string
	chain  func(T)
	v      T
	handed bool
	// inChain and ended let a chain that completes before chain returns end
	// its turn without recursing into the next.
	inChain, ended bool
}

// ServeTask registers a serving identity on q: what a daemon proc called name
// running for { body(p, q.Pop(p)) } is, for a thread whose body is written as
// a task chain. chain(v) starts the body on v, and the chain runs the returned
// Task where the proc body would have returned. Idle identities take pushed
// values oldest-idle first, as blocked Pops do; a Push that finds one
// schedules the event it would schedule for the woken Pop, and the identity
// runs until the buffer is empty. Only the loop's start event is gone: an
// identity is idle from the call on (or starts at once when values already
// wait), so register identities where, and in the order, their daemons would
// first have Popped.
func (q *Queue[T]) ServeTask(name string, chain func(T)) Task {
	id := &identity[T]{q: q, name: name, chain: chain}
	if q.srv == nil {
		q.srv = &served[T]{name: name}
		q.env.served = append(q.env.served, q)
	}
	q.env.stats.Identities++
	if q.buf.len() > 0 {
		id.start()
	} else {
		q.srv.idle.push(id)
	}
	return id
}

// start begins a turn in an event of its own, the woken Pop's.
func (id *identity[T]) start() { id.q.env.Delay(0, id) }

// Run is a task identity's turn, on its start event and whenever a chain
// ends: the value handed, then the buffer's, then idle. A chain that waits
// ends the turn; the chain runs the identity again when it is done.
func (id *identity[T]) Run() {
	if id.inChain {
		id.ended = true // the chain ended before chain returned: go on below
		return
	}
	for {
		var v T
		switch {
		case id.handed:
			v = id.v
			id.v, id.handed = *new(T), false
		case id.q.buf.len() > 0:
			v = id.q.buf.pop()
		default:
			id.q.srv.idle.push(id)
			return
		}
		id.inChain, id.ended = true, false
		id.chain(v)
		id.inChain = false
		if !id.ended {
			return
		}
	}
}

// String names a task identity in deadlock reports.
func (id *identity[T]) String() string { return id.name }

// backlog reports the served queue's name and its buffered values.
func (q *Queue[T]) backlog() (string, int) { return q.srv.name, q.buf.len() }

// queueWaiter is the slot a blocked Pop receives its value through, got
// telling a value from a timeout. A primitive never stores a pointer to a
// parked proc's stack variable (the variable, a whole T, would move to the
// heap on every blocking call); the queue recycles these nodes instead.
// Whoever unlinks a node disposes of it: Push hands it to the Pop it wakes,
// dropSpent frees it.
type queueWaiter[T any] struct {
	tok  *wakeToken
	next *queueWaiter[T]
	v    T
	got  bool
}

// NewQueue returns an empty queue bound to env.
func NewQueue[T any](env *Env) *Queue[T] {
	q := new(Queue[T])
	q.Init(env)
	return q
}

// Init makes q an empty queue bound to env: NewQueue for a queue that lives
// inside the record that uses it.
func (q *Queue[T]) Init(env *Env) { *q = Queue[T]{env: env} }

// Len returns the number of buffered values.
func (q *Queue[T]) Len() int { return q.buf.len() }

// Push enqueues v, waking the oldest waiting Pop if there is one. It may be
// called from any running process (or before Run).
func (q *Queue[T]) Push(v T) {
	if s := q.srv; s != nil && s.idle.len() > 0 {
		id := s.idle.pop()
		id.v, id.handed = v, true
		id.start()
		return
	}
	q.dropSpent()
	if q.head == nil {
		q.buf.push(v)
		return
	}
	w := q.unlink()
	w.v, w.got = v, true
	q.env.grant(w.tok)
	q.env.dropRef(w.tok)
}

// unlink removes and returns the oldest waiter.
func (q *Queue[T]) unlink() *queueWaiter[T] {
	w := q.head
	if q.head = w.next; q.head == nil {
		q.tail = nil
	}
	return w
}

// dropSpent frees the timed-out waiters at the front of the list.
func (q *Queue[T]) dropSpent() {
	for q.head != nil && q.head.tok.spent {
		w := q.unlink()
		q.env.dropRef(w.tok)
		q.release(w)
	}
}

// release puts an unlinked waiter node on the free stack.
func (q *Queue[T]) release(w *queueWaiter[T]) {
	var zero T
	w.tok, w.v, w.got = nil, zero, false
	w.next, q.free = q.free, w
}

// Pop blocks p until a value is available and returns it.
func (q *Queue[T]) Pop(p *Proc) T {
	v, _ := q.pop(p, -1)
	return v
}

// PopTimeout blocks p until a value is available or d elapses. ok reports
// whether a value was received.
func (q *Queue[T]) PopTimeout(p *Proc, d Duration) (v T, ok bool) {
	return q.pop(p, d)
}

// TryPop returns a buffered value without blocking.
func (q *Queue[T]) TryPop() (v T, ok bool) {
	if q.buf.len() == 0 {
		return v, false
	}
	return q.buf.pop(), true
}

// pop awaits the waiter node's continuation: p, resumed by the Push that hands
// it a value or by the deadline.
func (q *Queue[T]) pop(p *Proc, timeout Duration) (v T, ok bool) {
	if q.srv != nil {
		panic("sim: Pop on a served queue")
	}
	if q.buf.len() > 0 {
		return q.buf.pop(), true
	}
	w := q.free
	if w == nil {
		w = new(queueWaiter[T])
	} else {
		q.free, w.next = w.next, nil
	}
	w.tok = q.env.continuation(p)
	w.tok.refs++
	if q.tail == nil {
		q.head = w
	} else {
		q.tail.next = w
	}
	q.tail = w
	if timeout >= 0 {
		q.env.timeout(w.tok, timeout)
	}
	p.Suspend()
	if !w.got {
		q.dropSpent() // timed out: w leaves the list once it is at its front
		return v, false
	}
	v = w.v
	q.release(w)
	return v, true
}

// Semaphore is a counted, FIFO-fair semaphore. Create one with NewSemaphore,
// or Init one held by value.
type Semaphore struct {
	env     *Env
	avail   int
	waiters fifo[semWaiter]
}

type semWaiter struct {
	tok *wakeToken
	n   int
}

// NewSemaphore returns a semaphore with n initial permits.
func NewSemaphore(env *Env, n int) *Semaphore {
	s := new(Semaphore)
	s.Init(env, n)
	return s
}

// Init makes s a semaphore with n initial permits: NewSemaphore for one that
// lives inside the record that uses it.
func (s *Semaphore) Init(env *Env, n int) { *s = Semaphore{env: env, avail: n} }

// Available returns the current number of free permits.
func (s *Semaphore) Available() int { return s.avail }

// Acquire blocks p until n permits are available and takes them: it awaits
// AcquireThen.
func (s *Semaphore) Acquire(p *Proc, n int) {
	if s.AcquireThen(n, p) {
		p.Suspend()
	}
}

// AcquireThen is the task form of Acquire: it takes n permits now if none
// wait before it, and otherwise queues t in the FIFO, to run when the permits
// are granted. Waiters are served strictly in arrival order (no barging past
// a blocked head-of-line). It reports whether t was queued; if not, the
// caller holds the permits and goes on at once.
func (s *Semaphore) AcquireThen(n int, t Task) bool {
	if s.TryAcquire(n) {
		return false
	}
	tok := s.env.continuation(t)
	tok.refs++
	s.waiters.push(semWaiter{tok: tok, n: n})
	return true
}

// TryAcquire takes n permits if immediately available.
func (s *Semaphore) TryAcquire(n int) bool {
	if s.avail >= n && s.waiters.len() == 0 {
		s.avail -= n
		return true
	}
	return false
}

// Release returns n permits and grants as many head-of-line waiters as fit.
func (s *Semaphore) Release(n int) {
	s.avail += n
	for s.waiters.len() > 0 {
		w := s.waiters.front()
		if !w.tok.spent && s.avail < w.n {
			return
		}
		s.waiters.pop()
		if !w.tok.spent {
			s.avail -= w.n
			s.env.grant(w.tok)
		}
		s.env.dropRef(w.tok)
	}
}

// waitList is the waiter set of a broadcast primitive. Two are kept inline
// (a transfer's submitter and the proc freeing its buffer); a third allocates.
type waitList struct {
	inline [2]*wakeToken
	more   []*wakeToken
}

// add registers tok, a fresh wake token of the waiting task.
func (l *waitList) add(tok *wakeToken) {
	tok.refs++
	switch {
	case l.inline[0] == nil:
		l.inline[0] = tok
	case l.inline[1] == nil:
		l.inline[1] = tok
	default:
		l.more = append(l.more, tok)
	}
}

// remove takes tok out of the list, keeping the others in order, and reports
// whether it was there; the caller drops the registration. Only Shutdown
// removes a waiter.
func (l *waitList) remove(tok *wakeToken) (found bool) {
	rest := append([]*wakeToken{l.inline[0], l.inline[1]}, l.more...)
	*l = waitList{}
	for _, w := range rest {
		if w == tok {
			found = true
		} else if w != nil {
			w.refs--
			l.add(w)
		}
	}
	return found
}

// wakeAll wakes, in registration order, every waiter whose timeout has not
// beaten it, and empties the list. The kernel is reached through the waiters:
// the zero list is ready for use.
func (l *waitList) wakeAll() {
	if l.inline[0] == nil {
		return
	}
	e := l.inline[0].task.env
	e.wake(l.inline[0])
	if l.inline[1] != nil {
		e.wake(l.inline[1])
	}
	for _, tok := range l.more {
		e.wake(tok)
	}
	l.inline = [2]*wakeToken{}
	clear(l.more)
	l.more = l.more[:0]
}

// wake grants tok's task unless a timeout beat it, and drops the waiter-list
// entry.
func (e *Env) wake(tok *wakeToken) {
	if !tok.spent {
		e.grant(tok)
	}
	e.dropRef(tok)
}

// grant queues the wake-up of tok, taken off a waiter list or FIFO, now. A
// deadline of tok's that is still ahead is taken out; one due at this instant
// was drawn before the wake-up and fires first, so it stays and delivers the
// wake-up itself; the sequence number the wake-up's entry would have taken is
// drawn all the same, so every later number is what it was.
// Otherwise the continuation races nothing: its record and token retire, and
// the task is queued as itself.
func (e *Env) grant(tok *wakeToken) {
	if tok.dl != 0 {
		if e.deadlines.a[tok.dl-1].t == e.now {
			e.seq++
			return
		}
		e.deadlines.remove(int(tok.dl - 1))
		e.dropRef(tok)
		e.stats.Cancelled++
	}
	tok.spent = true
	e.queue(e.now, e.unlist(tok.task))
}

// Event is a one-shot broadcast: processes Wait until Fire is called, after
// which Wait returns immediately forever. The zero Event is unfired and ready
// for use, so a completion can live inside the struct that carries it.
type Event struct {
	fired   bool
	waiters waitList
}

// NewEvent returns an unfired event.
func NewEvent() *Event { return new(Event) }

// Fired reports whether the event has fired.
func (ev *Event) Fired() bool { return ev.fired }

// Fire wakes all current and future waiters. Firing twice is a no-op.
func (ev *Event) Fire() {
	if ev.fired {
		return
	}
	ev.fired = true
	ev.waiters.wakeAll()
}

// Wait blocks p until the event fires: it awaits WaitThen.
func (ev *Event) Wait(p *Proc) {
	if ev.WaitThen(p.env, p) {
		p.Suspend()
	}
}

// WaitThen is the task form of Wait: it reports false when the event has
// fired, and the caller goes on at once; otherwise t joins the waiters, to run
// when Fire wakes it, and nothing is scheduled before. The continuation
// records the event, so Shutdown takes it off the waiter list.
func (ev *Event) WaitThen(e *Env, t Task) bool {
	if ev.fired {
		return false
	}
	tok := e.continuation(t)
	tok.task.ev = ev
	ev.waiters.add(tok)
	return true
}

// WaitTimeout blocks p until the event fires or d elapses; it reports
// whether the event fired (before or at the wakeup instant). It awaits
// WaitTimeoutThen and reads the outcome from Fired.
func (ev *Event) WaitTimeout(p *Proc, d Duration) bool {
	if ev.WaitTimeoutThen(p.env, d, p) {
		p.Suspend()
	}
	return ev.fired
}

// WaitTimeoutThen is the task form of WaitTimeout: it reports false when the
// event has fired, and the caller goes on at once, as WaitTimeout returns true;
// otherwise t joins the waiters and its deadline d from now is registered, and
// t runs on whichever fires first. Nothing runs between that entry's pop and
// t, so t reads the outcome from Fired: true if the event fired before the
// deadline or at its instant ahead of it. The losing registration is dropped
// as soon as it loses: the deadline at the wake-up, the waiter-list entry at
// Fire.
func (ev *Event) WaitTimeoutThen(e *Env, d Duration, t Task) bool {
	if ev.fired {
		return false
	}
	tok := e.continuation(t)
	tok.task.ev = ev
	ev.waiters.add(tok)
	e.timeout(tok, d)
	return true
}

// Cond is a broadcast-only condition variable for re-check loops:
//
//	for !pred() { cond.Wait(p) }
//
// Broadcast wakes everyone currently waiting; there is no Signal because
// deterministic fairness is easier to reason about with broadcast + re-check.
// The zero Cond is ready for use.
type Cond struct {
	waiters waitList
}

// NewCond returns a condition variable.
func NewCond() *Cond { return new(Cond) }

// Wait parks p until the next Broadcast: it awaits WaitThen.
func (c *Cond) Wait(p *Proc) {
	c.WaitThen(p.env, p)
	p.Suspend()
}

// WaitThen is the task form of Wait: t joins the waiters, to run when the
// next Broadcast wakes it, and nothing is scheduled before. Unlike the other
// task forms it never goes on at once.
// The continuation records the condition, so Shutdown takes it off the
// waiter list.
func (c *Cond) WaitThen(e *Env, t Task) {
	tok := e.continuation(t)
	tok.task.cond = c
	c.waiters.add(tok)
}

// Broadcast wakes every process currently in Wait.
func (c *Cond) Broadcast() { c.waiters.wakeAll() }
