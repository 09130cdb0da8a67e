package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
)

// Quiescent checks that cl is at rest once a run has drained, and then tears
// it down: the served queues hold no value; the live procs are exactly the
// daemons and every pending task is a sim.Daemon; on every node the bridge
// holds no staging buffer or byte and no transaction or read in flight and
// its partition's crossing records and control-plane envelopes are all back
// (core.Bridge.Quiescent), the OSD has nothing in flight and its finishers,
// worker turns, mutations, replica applies and op replies are all back
// (osd.OSD.Quiescent), and BlueStore's call records and txcs
// are all back (bluestore.Store.Quiescent); the client's call records and
// requests are all back (rados.Client.Quiescent); the messengers' frames are
// all back (messenger.Messenger.Quiescent, once for the cluster's one Env).
// Last it shuts cl down, after which every coroutine its kernel made must be
// gone and the goroutine count may not be above its value before New. It
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
		errs = append(errs, n.OSD.Quiescent(), n.Store.Quiescent())
	}
	errs = append(errs, cl.Client.Quiescent(), cl.Registry.Lookup("client.0").Quiescent())
	made, running := cl.Env.Stats().CoroutinesPeak, runtime.NumGoroutine()
	cl.Shutdown()
	after := runtime.NumGoroutine()
	// The count can end below the one before New: a goroutine some earlier
	// run left winding down is not this cluster's.
	if left := max(made-(running-after), after-cl.goroutines); left > 0 {
		errs = append(errs, fmt.Errorf("%d goroutines left after Shutdown (%d before New, %d after)", left, cl.goroutines, after))
	}
	return errors.Join(errs...)
}
