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
	// srv is set once the queue is consumed through Serve instead of Pop.
	srv *served[T]
}

// served is the consuming side of a queue that has serving identities: the
// idle ones, in the order they went idle.
type served[T any] struct {
	name string // the first identity's, for deadlock reports
	idle fifo[*identity[T]]
}

// identity is a thread that only ever waits on one queue, kept as data: a
// coroutine exists for it only while it has work. A Push hands it a value
// through v; run is serve as a func value, made once.
type identity[T any] struct {
	q      *Queue[T]
	name   string
	thread *Thread
	body   func(*Proc, T)
	run    func(*Proc)
	v      T
	handed bool
}

// Serve registers a serving identity on q: what a daemon proc called name
// running p.SetThread(thread); for { body(p, q.Pop(p)) } is, without the parked
// coroutine. Idle identities take pushed values oldest-idle first, as blocked
// Pops do; a Push that finds one schedules the event it would schedule for
// the woken Pop, and the identity runs on a pooled daemon proc until the
// buffer is empty. Only the loop's start event is gone: an identity is idle
// from the call on (or starts at once when values already wait), so register
// identities where, and in the order, their daemons would first have Popped.
func (q *Queue[T]) Serve(name string, thread *Thread, body func(*Proc, T)) {
	if q.srv == nil {
		q.srv = &served[T]{name: name}
		q.env.served = append(q.env.served, q)
	}
	id := &identity[T]{q: q, name: name, thread: thread, body: body}
	id.run = id.serve
	q.env.stats.Identities++
	if q.buf.len() > 0 {
		id.start()
	} else {
		q.srv.idle.push(id)
	}
}

func (id *identity[T]) start() {
	p := id.q.env.Spawn(id.name, id.run)
	p.thread, p.daemon = id.thread, true
}

// serve is a started identity's proc body: the value handed, the buffer, idle.
func (id *identity[T]) serve(p *Proc) {
	if id.handed {
		v := id.v
		id.v, id.handed = *new(T), false
		id.body(p, v)
	}
	for id.q.buf.len() > 0 {
		id.body(p, id.q.buf.pop())
	}
	id.q.srv.idle.push(id)
}

// backlog reports the served queue's name and its buffered values.
func (q *Queue[T]) backlog() (string, int) { return q.srv.name, q.buf.len() }

// queueWaiter is the slot a blocked Pop receives its value through. A
// primitive never stores a pointer to a parked proc's stack variable (the
// variable, a whole T, would move to the heap on every blocking call); the
// queue recycles these nodes instead. Whoever unlinks a node disposes of it:
// Push hands it to the Pop it wakes, dropSpent frees it.
type queueWaiter[T any] struct {
	tok  *wakeToken
	next *queueWaiter[T]
	v    T
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
	w.v = v
	w.tok.p.granted = true
	q.env.schedule(w.tok, q.env.now)
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
	w.tok, w.v = nil, zero
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
	w.tok = p.newToken()
	w.tok.refs++
	p.granted = false
	if q.tail == nil {
		q.head = w
	} else {
		q.tail.next = w
	}
	q.tail = w
	if timeout >= 0 {
		q.env.schedule(w.tok, q.env.now.Add(timeout))
	}
	p.park()
	if !p.granted {
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

// Acquire blocks p until n permits are available and takes them. Waiters are
// served strictly in arrival order (no barging past a blocked head-of-line).
func (s *Semaphore) Acquire(p *Proc, n int) {
	if s.TryAcquire(n) {
		return
	}
	tok := p.newToken()
	tok.refs++
	s.waiters.push(semWaiter{tok: tok, n: n})
	p.park()
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
			s.env.schedule(w.tok, s.env.now)
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

// add registers tok, a fresh wake token of the waiting proc or task.
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

// remove takes tok out of the list, keeping the others in order; the caller
// drops the registration. Only Shutdown removes a waiter.
func (l *waitList) remove(tok *wakeToken) {
	rest := append([]*wakeToken{l.inline[0], l.inline[1]}, l.more...)
	*l = waitList{}
	for _, w := range rest {
		if w != nil && w != tok {
			w.refs--
			l.add(w)
		}
	}
}

// wakeAll wakes, in registration order, every waiter still parked, marking
// the wake as granted (as opposed to timed out), and empties the list. The
// kernel is reached through the waiters: the zero list is ready for use.
func (l *waitList) wakeAll() {
	if l.inline[0] == nil {
		return
	}
	e := l.inline[0].env()
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

// wake resumes tok's owner — a proc with a granted result — unless a timeout
// beat it.
func (e *Env) wake(tok *wakeToken) {
	if !tok.spent {
		if tok.p != nil {
			tok.p.granted = true
		}
		e.schedule(tok, e.now)
	}
	e.dropRef(tok)
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

// Wait blocks p until the event fires.
func (ev *Event) Wait(p *Proc) {
	if ev.fired {
		return
	}
	ev.waiters.add(p.newToken())
	p.park()
}

// WaitTimeout blocks p until the event fires or d elapses; it reports
// whether the event fired (before or at the wakeup instant).
func (ev *Event) WaitTimeout(p *Proc, d Duration) bool {
	if ev.fired {
		return true
	}
	p.granted = false
	tok := p.newToken()
	ev.waiters.add(tok)
	p.env.schedule(tok, p.env.now.Add(d))
	p.park()
	return p.granted
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

// Wait parks p until the next Broadcast.
func (c *Cond) Wait(p *Proc) {
	c.waiters.add(p.newToken())
	p.park()
}

// Broadcast wakes every process currently in Wait.
func (c *Cond) Broadcast() { c.waiters.wakeAll() }
