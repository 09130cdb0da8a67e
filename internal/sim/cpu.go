package sim

// Thread identifies a simulated OS thread executing on a CPU. Cat groups
// threads into the accounting categories the paper's perf methodology uses
// ("msgr-worker", "bstore", "tp_osd_tp", ...).
type Thread struct {
	Name string
	Cat  string
}

// NewThread returns a thread with the given name and accounting category.
func NewThread(name, cat string) *Thread { return &Thread{Name: name, Cat: cat} }

// CPUStats is a snapshot of a CPU's accounting counters since the last
// ResetStats.
type CPUStats struct {
	WindowStart Time
	WindowEnd   Time
	// BusyByCat is accumulated execution time (including context-switch
	// overhead) per thread category.
	BusyByCat map[string]Duration
	// SwitchesByCat counts voluntary context switches recorded via
	// NoteSwitches (blocking syscalls, futex waits) — the quantity the
	// paper's Table 2 compares.
	SwitchesByCat map[string]int64
	// CoreSwitchesByCat counts involuntary thread changes observed on the
	// cores themselves.
	CoreSwitchesByCat map[string]int64
	TotalBusy         Duration
	Cores             int
}

// Utilization returns total busy time over total core time, in [0,1]
// (assuming no oversubscription beyond the core count).
func (s CPUStats) Utilization() float64 {
	window := s.WindowEnd.Sub(s.WindowStart)
	if window <= 0 || s.Cores == 0 {
		return 0
	}
	return s.TotalBusy.Seconds() / (window.Seconds() * float64(s.Cores))
}

// UtilizationOfCat returns the busy share of one category over total core
// time in [0,1].
func (s CPUStats) UtilizationOfCat(cat string) float64 {
	window := s.WindowEnd.Sub(s.WindowStart)
	if window <= 0 || s.Cores == 0 {
		return 0
	}
	return s.BusyByCat[cat].Seconds() / (window.Seconds() * float64(s.Cores))
}

// ShareOfCat returns cat's fraction of total busy time in [0,1].
func (s CPUStats) ShareOfCat(cat string) float64 {
	if s.TotalBusy <= 0 {
		return 0
	}
	return s.BusyByCat[cat].Seconds() / s.TotalBusy.Seconds()
}

// CPU is a multi-core, FCFS, non-preemptive processor model. Exec acquires a
// core, charges cycles (translated to virtual time by the clock frequency),
// and releases the core. When a core picks up a thread different from the one
// it last ran, a context-switch cost is charged and counted.
type CPU struct {
	env  *Env
	name string

	// FreqGHz is the core clock: cycles per nanosecond.
	FreqGHz float64
	// CtxSwitchCycles is charged whenever a core changes threads.
	CtxSwitchCycles int64

	cores     []coreState
	freeCores []int
	waiters   fifo[*wakeToken]

	windowStart Time
	// cats holds the window's per-category counters. A CPU sees a handful
	// of categories, so Exec finds its slot by a short scan over interned
	// strings instead of hashing one per burst; Stats builds the maps.
	cats      []catAcct
	totalBusy Duration
	// bgLoad is a constant background occupancy per category, in cores
	// (e.g. 0.05 = 5% of one core). It models busy-polling threads without
	// generating millions of idle-tick events; Stats folds it in as
	// coresWorth * window of busy time.
	bgLoad map[string]float64
}

type coreState struct {
	last *Thread
}

// catAcct is one thread category's counters for the current window. The
// has* flags record which counters were touched at all: Stats reports a
// category under a counter only then, as the per-counter maps it replaces
// did.
type catAcct struct {
	cat                         string
	busy                        Duration
	switches, coreSwitches      int64
	hasBusy, hasSwitch, hasCore bool
}

// acct returns cat's slot for the current window, adding it on first use.
func (c *CPU) acct(cat string) *catAcct {
	for i := range c.cats {
		if c.cats[i].cat == cat {
			return &c.cats[i]
		}
	}
	c.cats = append(c.cats, catAcct{cat: cat})
	return &c.cats[len(c.cats)-1]
}

// NewCPU returns a CPU with the given core count and clock frequency.
func NewCPU(env *Env, name string, cores int, freqGHz float64, ctxSwitchCycles int64) *CPU {
	c := &CPU{
		env:             env,
		name:            name,
		FreqGHz:         freqGHz,
		CtxSwitchCycles: ctxSwitchCycles,
		cores:           make([]coreState, cores),
		bgLoad:          make(map[string]float64),
	}
	for i := cores - 1; i >= 0; i-- {
		c.freeCores = append(c.freeCores, i)
	}
	return c
}

// Name returns the CPU's name.
func (c *CPU) Name() string { return c.name }

// Cores returns the core count.
func (c *CPU) Cores() int { return len(c.cores) }

// CyclesToDuration converts a cycle count to virtual time at this clock.
func (c *CPU) CyclesToDuration(cycles int64) Duration {
	return Duration(float64(cycles) / c.FreqGHz)
}

// Exec runs th on this CPU for the given number of cycles, blocking p for
// queueing (if all cores are busy) plus execution time. It returns the busy
// time charged (including any context-switch overhead) so callers can
// attribute the occupancy, e.g. to a trace span.
func (c *CPU) Exec(p *Proc, th *Thread, cycles int64) Duration {
	if cycles <= 0 {
		return 0
	}
	core := c.acquire(p)
	a := c.acct(th.Cat)
	total := cycles
	if c.cores[core].last != th {
		if c.cores[core].last != nil {
			total += c.CtxSwitchCycles
			a.coreSwitches++
			a.hasCore = true
		}
		c.cores[core].last = th
	}
	d := c.CyclesToDuration(total)
	a.busy += d
	a.hasBusy = true
	c.totalBusy += d
	p.Wait(d)
	c.release(core)
	return d
}

// ExecSelf charges cycles to the thread identity attached to p (see
// Proc.SetThread) and returns the busy time charged. It panics if p has no
// thread — that is a wiring bug.
func (c *CPU) ExecSelf(p *Proc, cycles int64) Duration {
	th := p.Thread()
	if th == nil {
		panic("sim: ExecSelf on proc " + p.Name() + " with no thread identity")
	}
	return c.Exec(p, th, cycles)
}

// ExecDuration is Exec with the work expressed directly as time at this
// clock (cycles = d * FreqGHz).
func (c *CPU) ExecDuration(p *Proc, th *Thread, d Duration) Duration {
	return c.Exec(p, th, int64(float64(d)*c.FreqGHz))
}

// NoteSwitches records n voluntary context switches (e.g. blocking syscall
// boundaries) for th's category without consuming core time.
func (c *CPU) NoteSwitches(th *Thread, n int64) {
	a := c.acct(th.Cat)
	a.switches += n
	a.hasSwitch = true
}

func (c *CPU) acquire(p *Proc) int {
	if n := len(c.freeCores); n > 0 {
		core := c.freeCores[n-1]
		c.freeCores = c.freeCores[:n-1]
		return core
	}
	tok := p.newToken()
	tok.refs++
	c.waiters.push(tok)
	p.park()
	return int(p.core)
}

// release hands core to the oldest waiter (through Proc.core) or frees it.
func (c *CPU) release(core int) {
	for c.waiters.len() > 0 {
		tok := c.waiters.pop()
		if !tok.spent {
			tok.p.core = int32(core)
			c.env.schedule(tok, c.env.now)
			c.env.dropRef(tok)
			return
		}
		c.env.dropRef(tok)
	}
	c.freeCores = append(c.freeCores, core)
}

// SetBackgroundLoad registers a constant polling-style occupancy for cat,
// expressed in cores (0.05 = 5% of one core). Accounted analytically in
// Stats rather than via idle-tick events.
func (c *CPU) SetBackgroundLoad(cat string, coresWorth float64) {
	c.bgLoad[cat] = coresWorth
}

// ResetStats starts a fresh accounting window at the current instant
// (used to discard benchmark warmup).
func (c *CPU) ResetStats() {
	c.windowStart = c.env.now
	c.cats = c.cats[:0]
	c.totalBusy = 0
}

// Stats returns a copy of the accounting counters for the current window.
func (c *CPU) Stats() CPUStats {
	busy := make(map[string]Duration, len(c.cats))
	sw := make(map[string]int64, len(c.cats))
	csw := make(map[string]int64, len(c.cats))
	for _, a := range c.cats {
		if a.hasBusy {
			busy[a.cat] = a.busy
		}
		if a.hasSwitch {
			sw[a.cat] = a.switches
		}
		if a.hasCore {
			csw[a.cat] = a.coreSwitches
		}
	}
	total := c.totalBusy
	window := c.env.now.Sub(c.windowStart)
	for cat, cores := range c.bgLoad {
		d := Duration(cores * float64(window))
		busy[cat] += d
		total += d
	}
	return CPUStats{
		WindowStart:       c.windowStart,
		WindowEnd:         c.env.now,
		BusyByCat:         busy,
		SwitchesByCat:     sw,
		CoreSwitchesByCat: csw,
		TotalBusy:         total,
		Cores:             len(c.cores),
	}
}
