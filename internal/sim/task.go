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
// A task that implements fmt.Stringer is listed under that name in deadlock
// reports; others are listed by their type.
type Task interface{ Run() }

// pendingTask is the kernel's record of a registered task until it runs.
// Records are pooled, like procs.
type pendingTask struct {
	env *Env
	run Task
	// ev is the event an After task waits for (nil for At), at the deadline of
	// an At task (zero for After).
	ev *Event
	at Time
	// tok is the task's one live registration: a heap entry or a place in
	// ev's waiter list.
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
	var pt *pendingTask
	if n := len(e.taskFree); n > 0 {
		pt = e.taskFree[n-1]
		e.taskFree = e.taskFree[:n-1]
	} else {
		pt = &pendingTask{env: e}
	}
	pt.run, pt.ev, pt.at, pt.started = t, ev, at, false
	pt.idx = int32(len(e.tasks))
	e.tasks = append(e.tasks, pt)
	e.live++
	e.schedule(e.taskToken(pt), e.now)
}

// taskToken takes a fresh token for pt's next registration.
func (e *Env) taskToken(pt *pendingTask) *wakeToken {
	tok := e.getToken(nil)
	tok.task, pt.tok = pt, tok
	return tok
}

// advance handles a fired heap entry of pt. The registration entry checks the
// condition once, like a proc body reaching its Wait, and waits for the event
// or the deadline if it is still ahead; otherwise, and on the wake-up, the
// task runs.
func (e *Env) advance(pt *pendingTask) {
	if !pt.started {
		pt.started = true
		switch {
		case pt.ev != nil && !pt.ev.fired:
			pt.ev.waiters.add(e.taskToken(pt))
			return
		case pt.at > e.now:
			e.schedule(e.taskToken(pt), pt.at)
			return
		}
	}
	t := pt.run
	last := e.tasks[len(e.tasks)-1]
	e.tasks[pt.idx], last.idx = last, pt.idx
	e.tasks[len(e.tasks)-1] = nil
	e.tasks = e.tasks[:len(e.tasks)-1]
	pt.run, pt.ev, pt.tok = nil, nil, nil
	e.taskFree = append(e.taskFree, pt)
	e.live--
	e.stats.TaskRuns++
	t.Run()
}

func taskName(t Task) string {
	if s, ok := t.(fmt.Stringer); ok {
		return s.String()
	}
	return fmt.Sprintf("%T", t)
}
