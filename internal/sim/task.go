package sim

import "fmt"

// Task is a non-blocking continuation: what a Spawn whose body is one wait
// followed by code that never blocks used to be. The kernel runs it inline,
// on whichever goroutine holds control when its event fires — no Proc, no
// coroutine, no switch. A Task is handed no *Proc, so it cannot call a
// blocking primitive; it may do anything else a proc body may (fire events,
// push to queues, release permits, Spawn, register further tasks).
//
// A task occupies exactly the heap entries its proc form would: one at the
// registration instant (the proc's start), where it runs at once if its
// condition already holds, and otherwise one more when the event fires or the
// deadline arrives. Sequence numbers are drawn at the same points, so
// replacing one form by the other changes no event order and no event count.
//
// A step that must wait again continues with a task form of the wait instead
// of a proc's blocking call: Delay or WaitThen for Wait, Event.WaitThen for
// Event.Wait, Event.WaitTimeoutThen for Event.WaitTimeout, Cond.WaitThen for
// Cond.Wait, CPU.ExecThen for Exec, Semaphore.AcquireThen for Acquire,
// Disk.ReadThen and Disk.WriteThen for a disk read or write,
// Link.TransferFrameThen for a frame under the fault model, and a ServeTask
// identity for a daemon popping one queue.
// Each draws its sequence number where the proc form parks or fires in place
// and has no registration entry, so a chain of steps fires its proc form's
// events, in the same order. A *Proc is a Task too: a proc awaits a task form
// by passing itself as the continuation and calling Suspend (Proc.Suspend),
// and every proc form of a blocking primitive is that await of its task form,
// so each primitive has one implementation.
//
// A task that implements fmt.Stringer is listed under that name in deadlock
// reports; others are listed by their type.
type Task interface{ Run() }

// Daemon is implemented by the tasks of a service loop written as a task
// chain that is expected to wait forever once the system goes idle, as a
// SpawnDaemon proc is: such a task waiting at the end of a run is excluded
// from deadlock detection, as a parked daemon proc is. The method is a marker.
type Daemon interface {
	Task
	Daemon()
}

// pendingTask is the kernel's record of a registered task, or of one waiting
// in a waiter list or FIFO, until it runs or is granted. Records are pooled,
// like procs.
type pendingTask struct {
	env *Env
	run Task
	// ev is the event an After task or an Event.WaitThen or WaitTimeoutThen
	// continuation waits for (nil otherwise), at the deadline of an At task
	// (zero otherwise).
	ev *Event
	at Time
	// cond is the condition a Cond.WaitThen continuation waits on (nil
	// otherwise).
	cond *Cond
	// tok is the task's token: its one live registration, an event-queue
	// entry or a place in ev's waiter list, or a deadline and that place for
	// a WaitTimeoutThen continuation.
	tok *wakeToken
	// idx is the record's position in env.tasks (swap-removed when it runs).
	idx int32
	// started is set once the registration entry has fired: the next entry to
	// fire is the wake-up, whatever the event looks like by then.
	started bool
}

// After registers t to run once ev has fired — at this instant's slot in the
// event order if it already has. It replaces Spawn(func(p) { ev.Wait(p); … }).
func (e *Env) After(ev *Event, t Task) { e.register(t, ev, 0) }

// At registers t to run at virtual time at — at this instant's slot if at is
// not in the future. It replaces Spawn(func(p) { p.WaitUntil(at); … }).
func (e *Env) At(at Time, t Task) { e.register(t, nil, at) }

func (e *Env) register(t Task, ev *Event, at Time) {
	pt := e.listTask(t)
	pt.ev, pt.at = ev, at
	e.schedule(e.taskToken(pt), e.now)
}

// listTask lists a fresh record for t.
func (e *Env) listTask(t Task) *pendingTask {
	e.stats.Records++
	var pt *pendingTask
	if n := len(e.taskFree); n > 0 {
		pt = e.taskFree[n-1]
		e.taskFree = e.taskFree[:n-1]
	} else {
		e.taskMade++
		pt = &pendingTask{env: e}
	}
	pt.run, pt.ev, pt.at, pt.cond, pt.started = t, nil, 0, nil, false
	pt.idx = int32(len(e.tasks))
	e.tasks = append(e.tasks, pt)
	return pt
}

// continuation returns the token of a task form's call that waits in a waiter
// list or FIFO: the grant, or the next entry of it to fire, runs t, as the
// parked proc would have been resumed. The caller adds it to the list.
func (e *Env) continuation(t Task) *wakeToken {
	pt := e.listTask(t)
	pt.started = true // no registration entry: the call is made from a running step
	return e.taskToken(pt)
}

// Delay runs t after d of virtual time: the task form of a proc's Wait(d). Its
// one event takes its sequence number here, where the Wait would have drawn
// one whether it fired in place or parked, so a chain of steps joined by
// Delay fires the events its proc form would, in the same order. Nothing can
// race it, so t is queued as itself: no token, no record.
func (e *Env) Delay(d Duration, t Task) {
	if d < 0 {
		d = 0
	}
	e.queue(e.now.Add(d), t)
}

// WaitThen is the task form of a proc's Wait(d), for a step that goes on
// after it: a wake-up that Wait would fire in place fires in place here too —
// its sequence number drawn, the clock moved — and it reports false, the
// caller going on at once; otherwise t runs at now+d, as with Delay.
func (e *Env) WaitThen(d Duration, t Task) bool {
	if e.inPlace(d) {
		return false
	}
	e.Delay(d, t)
	return true
}

// taskToken takes a fresh token for pt's next registration from the pool (or
// allocates one).
func (e *Env) taskToken(pt *pendingTask) *wakeToken {
	e.stats.Tokens++
	var tok *wakeToken
	if n := len(e.tokFree); n > 0 {
		tok = e.tokFree[n-1]
		e.tokFree = e.tokFree[:n-1]
		tok.spent = false
	} else {
		e.tokMade++
		tok = new(wakeToken)
	}
	tok.task, pt.tok = pt, tok
	return tok
}

// advance handles a fired heap entry of pt. The registration entry checks the
// condition once, like a proc body reaching its Wait, and waits for the event
// or the deadline if it is still ahead, returning nil; otherwise, and on the
// wake-up, it retires pt and returns the task to run.
func (e *Env) advance(pt *pendingTask) Task {
	if !pt.started {
		pt.started = true
		switch {
		case pt.ev != nil && !pt.ev.fired:
			pt.ev.waiters.add(e.taskToken(pt))
			return nil
		case pt.at > e.now:
			e.schedule(e.taskToken(pt), pt.at)
			return nil
		}
	}
	return e.unlist(pt)
}

// unlist retires pt, whose task is about to run or be queued as itself, and
// returns the task.
func (e *Env) unlist(pt *pendingTask) Task {
	t := pt.run
	last := e.tasks[len(e.tasks)-1]
	e.tasks[pt.idx], last.idx = last, pt.idx
	e.tasks[len(e.tasks)-1] = nil
	e.tasks = e.tasks[:len(e.tasks)-1]
	pt.run, pt.ev, pt.cond, pt.tok = nil, nil, nil, nil
	e.taskFree = append(e.taskFree, pt)
	return t
}

// awaited reports whether t is a proc's own await — the proc itself, passed as
// the continuation of a task form, or an ExecThen burst that ends in it: the
// proc stands for such a task in LiveProcs and deadlock reports.
func awaited(t Task) bool {
	if b, ok := t.(*burst); ok {
		t = b.next
	}
	_, ok := t.(*Proc)
	return ok
}

func taskName(t Task) string {
	if s, ok := t.(fmt.Stringer); ok {
		return s.String()
	}
	return fmt.Sprintf("%T", t)
}
