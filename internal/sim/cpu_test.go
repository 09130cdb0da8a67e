package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestCPUExecChargesTime(t *testing.T) {
	env := NewEnv(1)
	cpu := NewCPU(env, "host", 1, 2.0, 0) // 2 GHz
	th := NewThread("w0", "work")
	env.Spawn("p", func(p *Proc) {
		cpu.Exec(p, th, 2000) // 2000 cycles at 2 GHz = 1000 ns
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if env.Now() != Time(1000) {
		t.Fatalf("now=%v want 1000ns", env.Now())
	}
	st := cpu.Stats()
	if st.BusyByCat["work"] != 1000 {
		t.Fatalf("busy=%v", st.BusyByCat["work"])
	}
}

func TestCPUCoresContended(t *testing.T) {
	env := NewEnv(1)
	cpu := NewCPU(env, "host", 2, 1.0, 0)
	for i := 0; i < 4; i++ {
		th := NewThread("w", "work")
		env.Spawn("p", func(p *Proc) {
			cpu.Exec(p, th, 1000)
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// 4 jobs of 1000ns on 2 cores = 2000ns makespan.
	if env.Now() != Time(2000) {
		t.Fatalf("now=%v want 2000ns", env.Now())
	}
}

func TestCPUContextSwitchCostAndCount(t *testing.T) {
	env := NewEnv(1)
	cpu := NewCPU(env, "host", 1, 1.0, 100)
	a := NewThread("a", "catA")
	b := NewThread("b", "catB")
	env.Spawn("p", func(p *Proc) {
		cpu.Exec(p, a, 1000) // first-run on a cold core: no switch charged
		cpu.Exec(p, b, 1000) // switch a->b
		cpu.Exec(p, b, 1000) // same thread: no switch
		cpu.Exec(p, a, 1000) // switch b->a
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	st := cpu.Stats()
	if st.CoreSwitchesByCat["catA"] != 1 || st.CoreSwitchesByCat["catB"] != 1 {
		t.Fatalf("core switches=%v", st.CoreSwitchesByCat)
	}
	// 4000 work + 200 switch cost at 1 GHz.
	if env.Now() != Time(4200) {
		t.Fatalf("now=%v", env.Now())
	}
}

func TestCPUNoteSwitches(t *testing.T) {
	env := NewEnv(1)
	cpu := NewCPU(env, "host", 1, 1.0, 0)
	th := NewThread("m", "msgr")
	cpu.NoteSwitches(th, 5)
	if cpu.Stats().SwitchesByCat["msgr"] != 5 {
		t.Fatalf("switches=%v", cpu.Stats().SwitchesByCat)
	}
}

func TestCPUUtilization(t *testing.T) {
	env := NewEnv(1)
	cpu := NewCPU(env, "host", 2, 1.0, 0)
	th := NewThread("w", "work")
	env.Spawn("p", func(p *Proc) {
		cpu.Exec(p, th, 1000)
		p.Wait(1000) // idle
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	st := cpu.Stats()
	// busy 1000ns of 2 cores * 2000ns elapsed = 25%.
	if math.Abs(st.Utilization()-0.25) > 1e-9 {
		t.Fatalf("util=%v", st.Utilization())
	}
	if math.Abs(st.ShareOfCat("work")-1.0) > 1e-9 {
		t.Fatalf("share=%v", st.ShareOfCat("work"))
	}
	if math.Abs(st.UtilizationOfCat("work")-0.25) > 1e-9 {
		t.Fatalf("utilOfCat=%v", st.UtilizationOfCat("work"))
	}
}

func TestCPUResetStats(t *testing.T) {
	env := NewEnv(1)
	cpu := NewCPU(env, "host", 1, 1.0, 0)
	th := NewThread("w", "work")
	env.Spawn("p", func(p *Proc) {
		cpu.Exec(p, th, 5000)
		cpu.ResetStats()
		cpu.Exec(p, th, 1000)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	st := cpu.Stats()
	if st.TotalBusy != 1000 {
		t.Fatalf("busy=%v want 1000ns after reset", st.TotalBusy)
	}
	if st.WindowStart != Time(5000) {
		t.Fatalf("windowStart=%v", st.WindowStart)
	}
}

func TestCPUExecDuration(t *testing.T) {
	env := NewEnv(1)
	cpu := NewCPU(env, "host", 1, 4.0, 0)
	th := NewThread("w", "work")
	env.Spawn("p", func(p *Proc) {
		cpu.ExecDuration(p, th, 250) // 250ns at 4GHz = 1000 cycles
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if env.Now() != Time(250) {
		t.Fatalf("now=%v", env.Now())
	}
}

func TestCPUZeroCyclesNoop(t *testing.T) {
	env := NewEnv(1)
	cpu := NewCPU(env, "host", 1, 1.0, 50)
	th := NewThread("w", "work")
	env.Spawn("p", func(p *Proc) {
		cpu.Exec(p, th, 0)
		cpu.Exec(p, th, -5)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if env.Now() != 0 || cpu.Stats().TotalBusy != 0 {
		t.Fatalf("now=%v busy=%v", env.Now(), cpu.Stats().TotalBusy)
	}
}

func TestCPUFCFSOrder(t *testing.T) {
	env := NewEnv(1)
	cpu := NewCPU(env, "host", 1, 1.0, 0)
	var order []int
	for i := 0; i < 3; i++ {
		id := i
		th := NewThread("w", "work")
		env.Spawn("p", func(p *Proc) {
			p.Wait(Duration(id)) // arrival order 0,1,2
			cpu.Exec(p, th, 1000)
			order = append(order, id)
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("order=%v", order)
		}
	}
}

func TestCPUZeroWidthWorkUnderContention(t *testing.T) {
	// Zero-width work must not queue behind a busy core: the multi-queue
	// engine issues zero-cycle accounting calls on hot paths and relies on
	// them being free even when every core is occupied.
	env := NewEnv(1)
	cpu := NewCPU(env, "host", 1, 1.0, 50)
	hog := NewThread("hog", "work")
	idle := NewThread("idle", "poll")
	env.Spawn("hog", func(p *Proc) {
		cpu.Exec(p, hog, 10_000)
	})
	var elapsed Duration
	env.Spawn("zero", func(p *Proc) {
		p.Wait(100) // arrive while the core is held
		before := p.Now()
		if d := cpu.Exec(p, idle, 0); d != 0 {
			t.Errorf("zero-width work charged %v", d)
		}
		elapsed = p.Now().Sub(before)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed != 0 {
		t.Fatalf("zero-width work queued for %v on a busy core", elapsed)
	}
	if n := cpu.Stats().CoreSwitchesByCat["poll"]; n != 0 {
		t.Fatalf("zero-width work recorded %d core switches", n)
	}
}

func TestCPUSimultaneousReleaseWakesWaitersFIFO(t *testing.T) {
	// Both cores release at the same virtual instant; the three queued
	// waiters must be served in arrival order — C and D take the two cores,
	// E runs after. This is the ordering the per-queue DMA executors lean
	// on for determinism when several transfers complete together.
	env := NewEnv(1)
	cpu := NewCPU(env, "host", 2, 1.0, 0)
	var order []string
	runner := func(name string, arrive Duration) {
		th := NewThread(name, "work")
		env.Spawn(name, func(p *Proc) {
			p.Wait(arrive)
			cpu.Exec(p, th, 1000)
			order = append(order, name)
		})
	}
	runner("A", 0)
	runner("B", 0)
	runner("C", 1)
	runner("D", 2)
	runner("E", 3)
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"A", "B", "C", "D", "E"}
	if len(order) != len(want) {
		t.Fatalf("order=%v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("completion order=%v, want %v", order, want)
		}
	}
	// A/B at t=1000, C/D on the simultaneously released cores at 2000, E
	// on the next release at 3000.
	if env.Now() != Time(3000) {
		t.Fatalf("now=%v want 3000", env.Now())
	}
}

func TestCPUCorePoolReuseKeepsThreadAffinity(t *testing.T) {
	// A core handed directly to a waiter (never returned to the free pool)
	// and a core recycled through the free pool must both remember the last
	// thread they ran: re-running that thread later charges no context
	// switch.
	env := NewEnv(1)
	cpu := NewCPU(env, "host", 1, 1.0, 100)
	ta := NewThread("a", "catA")
	tb := NewThread("b", "catB")
	env.Spawn("A", func(p *Proc) {
		cpu.Exec(p, ta, 1000) // cold core: no switch
	})
	env.Spawn("B", func(p *Proc) {
		p.Wait(10)            // queue behind A: direct core handoff
		cpu.Exec(p, tb, 1000) // a->b: one switch
	})
	env.Spawn("C", func(p *Proc) {
		p.Wait(5000)          // core long idle, recycled via the free pool
		cpu.Exec(p, tb, 1000) // still b: no switch
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	st := cpu.Stats()
	if st.CoreSwitchesByCat["catB"] != 1 || st.CoreSwitchesByCat["catA"] != 0 {
		t.Fatalf("core switches=%v, want catB:1 only", st.CoreSwitchesByCat)
	}
	// 1000 (A) + 1100 (B incl. switch) ends at 2100; C runs 5000-6000.
	if env.Now() != Time(6000) {
		t.Fatalf("now=%v want 6000", env.Now())
	}
	if st.TotalBusy != 3100 {
		t.Fatalf("busy=%v want 3100", st.TotalBusy)
	}
}

// TestCPUStatsMatchMapModel drives a CPU with a seeded mix of Exec,
// NoteSwitches, ResetStats and background load and checks every Stats
// snapshot against the three per-counter maps the category slots replaced:
// same sums, and a category appears under a counter only once that counter
// was touched in the current window.
func TestCPUStatsMatchMapModel(t *testing.T) {
	env := NewEnv(1)
	cpu := NewCPU(env, "c", 2, 2.0, 500)
	cats := []string{"msgr-worker", "bstore", "tp_osd_tp", "rados", "bstore_kv", "cfuse"}
	var threads []*Thread
	for i, c := range cats {
		threads = append(threads, NewThread(fmt.Sprintf("t%d", i), c), NewThread(fmt.Sprintf("u%d", i), c))
	}
	busy, sw, csw := map[string]Duration{}, map[string]int64{}, map[string]int64{}
	var total Duration
	start := Time(0)
	check := func(step int) {
		t.Helper()
		want := CPUStats{WindowStart: start, WindowEnd: env.Now(), Cores: 2, TotalBusy: total,
			BusyByCat: map[string]Duration{}, SwitchesByCat: sw, CoreSwitchesByCat: csw}
		for k, v := range busy {
			want.BusyByCat[k] = v
		}
		bg := Duration(0.25 * float64(env.Now().Sub(start)))
		want.BusyByCat["poller"] += bg
		want.TotalBusy += bg
		if got := cpu.Stats(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d:\n got %+v\nwant %+v", step, got, want)
		}
	}
	cpu.SetBackgroundLoad("poller", 0.25)
	env.Spawn("driver", func(p *Proc) {
		rng := rand.New(rand.NewSource(7))
		var last *Thread // the driver is alone, so it is always handed the same core
		for step := 0; step < 2000; step++ {
			th := threads[rng.Intn(len(threads))]
			switch r := rng.Intn(20); {
			case r == 0:
				cpu.ResetStats()
				busy, sw, csw = map[string]Duration{}, map[string]int64{}, map[string]int64{}
				total, start = 0, p.Now()
			case r < 4:
				n := int64(rng.Intn(3)) // 0 still creates the entry
				cpu.NoteSwitches(th, n)
				sw[th.Cat] += n
			default:
				cycles := int64(1 + rng.Intn(3000))
				want := cycles
				if last != th {
					if last != nil {
						want += cpu.CtxSwitchCycles
						csw[th.Cat]++
					}
					last = th
				}
				d := cpu.Exec(p, th, cycles)
				if d != cpu.CyclesToDuration(want) {
					t.Errorf("step %d: charged %v, want %v", step, d, cpu.CyclesToDuration(want))
				}
				busy[th.Cat] += d
				total += d
			}
			check(step)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	env.Shutdown()
}
