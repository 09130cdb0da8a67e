package cluster

import (
	"errors"
	"fmt"
	"strings"
)

// Quiescent checks that cl is at rest once a run has drained, faulted or
// not, and then tears it down: the served queues hold no value; the live
// procs are exactly the daemons and every pending task is a sim.Daemon; on
// every node the bridge holds no staging buffer or byte and no transaction or
// read in flight (core.Bridge.Quiescent) and the OSD no mutation, sub-op or
// replica wait (osd.OSD.InFlight); every record of the Env's free lists is
// back or was abandoned for a named reason (sim.Env.RecordsOut). Last it
// shuts cl down, after which the goroutine of every coroutine its kernel made
// must have exited (sim.EnvStats.CoroutinesEnded: the Env's own count, so
// other clusters running in the process meanwhile do not disturb it). It
// returns every violation found, joined; nil means quiescent. cl is unusable
// afterwards.
func Quiescent(cl *Cluster) error {
	var errs []error
	if left := cl.Env.Backlog(); left != nil {
		errs = append(errs, fmt.Errorf("served queues hold values: %s", strings.Join(left, ", ")))
	}
	if busy := cl.Env.Busy(); busy != nil {
		errs = append(errs, fmt.Errorf("procs or tasks live besides the daemons: %s", strings.Join(busy, ", ")))
	}
	for _, n := range cl.Nodes {
		if n.Bridge != nil {
			errs = append(errs, n.Bridge.Quiescent())
		}
		if mu, ra, w := n.OSD.InFlight(); mu+ra+w != 0 {
			errs = append(errs, fmt.Errorf("%s: %d mutations, %d replica applies and %d replica waits in flight",
				n.Name, mu, ra, w))
		}
	}
	if out := cl.Env.RecordsOut(); out != nil {
		errs = append(errs, fmt.Errorf("records not back: %s", strings.Join(out, "; ")))
	}
	cl.Shutdown()
	if st := cl.Env.Stats(); st.CoroutinesEnded != st.CoroutinesPeak {
		errs = append(errs, fmt.Errorf("%d goroutines left after Shutdown (%d coroutines made)",
			st.CoroutinesPeak-st.CoroutinesEnded, st.CoroutinesPeak))
	}
	return errors.Join(errs...)
}
