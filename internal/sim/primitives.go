package sim

// Queue is an unbounded FIFO channel between simulation processes. Push
// never blocks; Pop blocks until a value is available. The zero Queue is not
// ready for use; create one with NewQueue.
type Queue[T any] struct {
	env     *Env
	buf     []T
	waiters []queueWaiter[T]
}

type queueWaiter[T any] struct {
	tok  *wakeToken
	slot *T
}

// NewQueue returns an empty queue bound to env.
func NewQueue[T any](env *Env) *Queue[T] {
	return &Queue[T]{env: env}
}

// Len returns the number of buffered values.
func (q *Queue[T]) Len() int { return len(q.buf) }

// Push enqueues v, waking the oldest waiting Pop if there is one. It may be
// called from any running process (or before Run).
func (q *Queue[T]) Push(v T) {
	for len(q.waiters) > 0 {
		w := q.waiters[0]
		// Zero vacated slots before reslicing past them (here and below):
		// the backing array would otherwise keep the token, the waiter's
		// result slot or a popped value reachable until it is regrown.
		q.waiters[0] = queueWaiter[T]{}
		q.waiters = q.waiters[1:]
		if w.tok.spent {
			q.env.dropRef(w.tok)
			continue
		}
		*w.slot = v
		w.tok.p.granted = true
		q.env.schedule(w.tok, q.env.now)
		q.env.dropRef(w.tok)
		return
	}
	q.buf = append(q.buf, v)
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
	if len(q.buf) == 0 {
		return v, false
	}
	return q.take(), true
}

// take removes and returns the oldest buffered value.
func (q *Queue[T]) take() T {
	var zero T
	v := q.buf[0]
	q.buf[0] = zero
	q.buf = q.buf[1:]
	return v
}

func (q *Queue[T]) pop(p *Proc, timeout Duration) (v T, ok bool) {
	if len(q.buf) > 0 {
		return q.take(), true
	}
	tok := p.newToken()
	tok.refs++
	p.granted = false
	q.waiters = append(q.waiters, queueWaiter[T]{tok: tok, slot: &v})
	if timeout >= 0 {
		q.env.schedule(tok, q.env.now.Add(timeout))
	}
	p.park()
	return v, p.granted
}

// Semaphore is a counted, FIFO-fair semaphore.
type Semaphore struct {
	env     *Env
	avail   int
	waiters []semWaiter
}

type semWaiter struct {
	tok *wakeToken
	n   int
}

// NewSemaphore returns a semaphore with n initial permits.
func NewSemaphore(env *Env, n int) *Semaphore {
	return &Semaphore{env: env, avail: n}
}

// Available returns the current number of free permits.
func (s *Semaphore) Available() int { return s.avail }

// Acquire blocks p until n permits are available and takes them. Waiters are
// served strictly in arrival order (no barging past a blocked head-of-line).
func (s *Semaphore) Acquire(p *Proc, n int) {
	if s.avail >= n && len(s.waiters) == 0 {
		s.avail -= n
		return
	}
	tok := p.newToken()
	tok.refs++
	s.waiters = append(s.waiters, semWaiter{tok: tok, n: n})
	p.park()
}

// TryAcquire takes n permits if immediately available.
func (s *Semaphore) TryAcquire(n int) bool {
	if s.avail >= n && len(s.waiters) == 0 {
		s.avail -= n
		return true
	}
	return false
}

// Release returns n permits and grants as many head-of-line waiters as fit.
func (s *Semaphore) Release(n int) {
	s.avail += n
	for len(s.waiters) > 0 {
		w := s.waiters[0]
		if !w.tok.spent && s.avail < w.n {
			return
		}
		s.waiters[0] = semWaiter{}
		s.waiters = s.waiters[1:]
		if !w.tok.spent {
			s.avail -= w.n
			s.env.schedule(w.tok, s.env.now)
		}
		s.env.dropRef(w.tok)
	}
}

// Event is a one-shot broadcast: processes Wait until Fire is called, after
// which Wait returns immediately forever.
type Event struct {
	env     *Env
	fired   bool
	waiters []*wakeToken
}

// NewEvent returns an unfired event bound to env.
func NewEvent(env *Env) *Event { return &Event{env: env} }

// Fired reports whether the event has fired.
func (ev *Event) Fired() bool { return ev.fired }

// Fire wakes all current and future waiters. Firing twice is a no-op.
func (ev *Event) Fire() {
	if ev.fired {
		return
	}
	ev.fired = true
	ev.env.wakeAll(ev.waiters)
	ev.waiters = nil
}

// wakeAll wakes every waiter still parked on a broadcast primitive, marking
// the wake as granted (as opposed to timed out), and drops the waiter list's
// registrations.
func (e *Env) wakeAll(waiters []*wakeToken) {
	for _, tok := range waiters {
		if !tok.spent {
			tok.p.granted = true
			e.schedule(tok, e.now)
		}
		e.dropRef(tok)
	}
}

// Wait blocks p until the event fires.
func (ev *Event) Wait(p *Proc) {
	if ev.fired {
		return
	}
	tok := p.newToken()
	tok.refs++
	ev.waiters = append(ev.waiters, tok)
	p.park()
}

// WaitTimeout blocks p until the event fires or d elapses; it reports
// whether the event fired (before or at the wakeup instant).
func (ev *Event) WaitTimeout(p *Proc, d Duration) bool {
	if ev.fired {
		return true
	}
	tok := p.newToken()
	tok.refs++
	p.granted = false
	ev.waiters = append(ev.waiters, tok)
	ev.env.schedule(tok, ev.env.now.Add(d))
	p.park()
	return p.granted
}

// Cond is a broadcast-only condition variable for re-check loops:
//
//	for !pred() { cond.Wait(p) }
//
// Broadcast wakes everyone currently waiting; there is no Signal because
// deterministic fairness is easier to reason about with broadcast + re-check.
type Cond struct {
	env     *Env
	waiters []*wakeToken
}

// NewCond returns a condition variable bound to env.
func NewCond(env *Env) *Cond { return &Cond{env: env} }

// Wait parks p until the next Broadcast.
func (c *Cond) Wait(p *Proc) {
	tok := p.newToken()
	tok.refs++
	c.waiters = append(c.waiters, tok)
	p.park()
}

// Broadcast wakes every process currently in Wait.
func (c *Cond) Broadcast() {
	c.env.wakeAll(c.waiters)
	c.waiters = nil
}
