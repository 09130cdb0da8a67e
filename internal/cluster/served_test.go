package cluster

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"doceph/internal/faultinject"
	"doceph/internal/osd"
	"doceph/internal/radosbench"
	"doceph/internal/sim"
	"doceph/internal/wire"
)

// TestIdleClusterIsQueuesAndBodies: once a run has completed, the threads
// that only ever wait on one queue (tp_osd_tp, msgr-worker, the wire: lanes,
// bstore_aio, bstore_kv, rpc-server, the two DMA pollers) are idle identities
// on empty queues, task chains holding no coroutine, and the live procs are
// exactly the loops that stayed daemons because they carry state across
// iterations: per OSD hb, and mgr-poll. An idle DMA engine queue is a task
// chain waiting for a Submit, not live. A daemon added per OSD shows up here
// (and, times 128, in the scale-out pin). The cluster is quiescent: no OSD
// holds a mutation, replica apply or replica wait record any more, every
// record and buffer is back, and Shutdown leaves no goroutine.
func TestIdleClusterIsQueuesAndBodies(t *testing.T) {
	for _, c := range []struct {
		mode        Mode
		daemons     int
		identities  int
		perOSDLoops string
	}{
		{Baseline, 2*1 + 1, 41, "hb"},
		{DoCeph, 2*1 + 1, 49, "hb"},
	} {
		cl := New(Config{Mode: c.mode, Seed: 7})
		_, err := radosbench.Run(cl.Env, cl.Client, radosbench.Config{
			Threads: 4, ObjectBytes: 1 << 20, OpsPerThread: 6, Op: radosbench.Mixed, ReadPercent: 50})
		if err != nil {
			t.Fatalf("%v: %v", c.mode, err)
		}
		// The last reply is in; let the commit notifications behind it land.
		if err := cl.Env.RunUntil(cl.Env.Now().Add(sim.Second)); err != nil {
			t.Fatalf("%v: %v", c.mode, err)
		}
		st := cl.Env.Stats()
		if live := cl.Env.LiveProcs(); live != c.daemons {
			t.Errorf("%v: %d procs live after the run, want %d (per OSD %s; mgr-poll): an identity is still in its body, or a new daemon loop",
				c.mode, live, c.daemons, c.perOSDLoops)
		}
		if st.Identities != c.identities || st.CoroutinesPeak >= c.daemons+c.identities {
			t.Errorf("%v: %d identities on %d coroutines, want %d identities and fewer coroutines than the %d threads",
				c.mode, st.Identities, st.CoroutinesPeak, c.identities, c.daemons+c.identities)
		}
		if err := Quiescent(cl); err != nil {
			t.Errorf("%v: not quiescent after the run: %v", c.mode, err)
		}
	}
}

// TestQuiescentAfterBatchedAndStreamedRuns: the paths the default runs do not
// take end at rest too — batched frames on four DMA queues with four op
// shards and lanes, and 8 MiB writes streamed chunk by chunk — with every
// pendingTxn, batch frame, coalesced commit notification's frame, txc,
// envelope, client call and client request, every one of the "messenger
// frames" (a message's one record from Send to the end of its receiver's
// turn, on every lane and for every stream chunk), and every OSD mutation,
// replica apply and op reply (the streamed run's whole reads and its replies;
// its streamed mutations are left to the GC) back on its free list.
func TestQuiescentAfterBatchedAndStreamedRuns(t *testing.T) {
	batched := Config{Mode: DoCeph, Seed: 7}
	batched.Bridge.Batch.Enable = true
	batched.Bridge.Engine.Queues = 4
	batched.OSD.OpShards = 4
	batched.Messenger.Lanes = 4
	streamed := Config{Mode: DoCeph, Seed: 7}
	streamed.Messenger.Stream.Enable = true
	for _, c := range []struct {
		name        string
		cfg         Config
		objectBytes int64
	}{
		{"batched", batched, 64 << 10},
		{"streamed", streamed, 8 << 20},
	} {
		cl := New(c.cfg)
		_, err := radosbench.Run(cl.Env, cl.Client, radosbench.Config{
			Threads: 4, ObjectBytes: c.objectBytes, OpsPerThread: 8, Op: radosbench.Mixed, ReadPercent: 50})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := cl.Env.RunUntil(cl.Env.Now().Add(sim.Second)); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var engaged, notified int64
		for _, n := range cl.Nodes {
			engaged += n.Bridge.Proxy.Stats().BatchedTxns + n.OSD.Stats().StreamWrites
			notified += n.Bridge.Host.Stats().NotifyBatches
		}
		if engaged == 0 || (notified == 0) == c.cfg.Bridge.Batch.Enable {
			t.Fatalf("%s: the path did not engage (%d ops, %d coalesced notifications)", c.name, engaged, notified)
		}
		if err := Quiescent(cl); err != nil {
			t.Errorf("%s: not quiescent after the run: %v", c.name, err)
		}
	}
}

// TestQuiescentAfterFaultWindows: a DoCeph run with one fault window on
// node0 while ops are in flight — DMA errors, packet drops or a stalled
// comm channel — ends at rest once it has settled. A record an error path
// leaves to the GC counts as abandoned, not as not back: the DMA-error
// window resends segments over RPC, and each shipment that did so leaves its
// segment table to the GC (core's TestRecycledRecordsHoldNothing pins the
// count by reason).
func TestQuiescentAfterFaultWindows(t *testing.T) {
	for _, ev := range []faultinject.Event{
		{Kind: faultinject.DMAError, Prob: 0.2},
		{Kind: faultinject.Drop, Prob: 0.2},
		{Kind: faultinject.CommStall, Extra: sim.Millisecond},
	} {
		ev.Node, ev.Duration = "node0", 2*sim.Second
		cl := New(Config{Mode: DoCeph, Seed: 7})
		inj := faultinject.New(cl.Env, cl.FaultTargets())
		if err := inj.Run(faultinject.Plan{Name: ev.Kind.String(), Events: []faultinject.Event{ev}}); err != nil {
			t.Fatal(err)
		}
		_, err := radosbench.Run(cl.Env, cl.Client, radosbench.Config{
			Threads: 4, ObjectBytes: 1 << 20, OpsPerThread: 60, Op: radosbench.Mixed, ReadPercent: 50})
		if err != nil {
			t.Fatalf("%v: %v", ev.Kind, err)
		}
		if err := cl.Env.RunUntil(cl.Env.Now().Add(60 * sim.Second)); err != nil {
			t.Fatalf("%v: %v", ev.Kind, err)
		}
		var resent int64
		for _, n := range cl.Nodes {
			resent += n.Bridge.Proxy.Stats().FallbackSegments
		}
		if (resent > 0) != (ev.Kind == faultinject.DMAError) {
			t.Errorf("%v: %d segments resent over RPC; want some after DMA errors alone", ev.Kind, resent)
		}
		if err := Quiescent(cl); err != nil {
			t.Errorf("%v: not quiescent after the window: %v", ev.Kind, err)
		}
	}
}

// TestShutdownMidFlightReleasesServedProcs stops a loaded DoCeph cluster at an
// instant when frames wait on a wire: lane behind the one in transfer, ops
// wait in an op shard behind a busy worker and a DMA completion waits for the
// poller — identities inside their bodies, values in served buffers — and
// Shutdown must unwind every one of them. The cluster is squeezed so that all
// three back up at once: a 4 Gb/s link, one slow host core, one op worker,
// 2 MiB writes (DMA segments) mixed with 16 KiB ones (ops).
func TestShutdownMidFlightReleasesServedProcs(t *testing.T) {
	cl := New(Config{Mode: DoCeph, Seed: 7, LinkBytesPerSec: 4 * Link1G,
		HostCores: 1, HostFreqGHz: 0.2, OSD: osd.Config{OpWorkers: 1}})
	big, small := wire.FromBytes(make([]byte, 2<<20)), wire.FromBytes(make([]byte, 16<<10))
	for w := 0; w < 32; w++ {
		data := big
		if w%2 == 1 {
			data = small
		}
		cl.Env.SpawnDaemon(fmt.Sprint("writer-", w), func(p *sim.Proc) {
			p.SetThread(sim.NewThread("writer", "client"))
			for i := 0; ; i++ {
				if err := cl.Client.Write(p, fmt.Sprintf("load-%d-%d", w, i), data); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		})
	}
	var backlog []string
	waiting := func(kind string) bool {
		return slices.ContainsFunc(backlog, func(q string) bool { return strings.HasPrefix(q, kind) })
	}
	for step := 0; ; step++ {
		if step == 500_000 {
			t.Fatalf("no instant in 0.5 s with a lane, an op shard and the completion queue all backed up; last: %v", backlog)
		}
		if err := cl.Env.RunUntil(cl.Env.Now().Add(sim.Microsecond)); err != nil {
			t.Fatal(err)
		}
		backlog = cl.Env.Backlog()
		if waiting("wire:") && waiting("tp_osd_tp") && waiting("host-dma-poll") {
			break
		}
	}
	t.Logf("stopped at %v with %d procs live, backlog %v", cl.Env.Now(), cl.Env.LiveProcs(), backlog)
	err := Quiescent(cl)
	if err == nil || !strings.Contains(err.Error(), "served queues hold values") ||
		strings.Contains(err.Error(), "goroutines left") || cl.Env.LiveProcs() != 0 {
		t.Fatalf("Quiescent mid-flight: %v; %d procs live after its Shutdown: want the backlog reported and every goroutine released",
			err, cl.Env.LiveProcs())
	}
}

// TestDMAPlaneServersAreTaskChains: the DMA plane's servers — the engines'
// queues, the host's DMA poller and its commit notifications, the DPU's read
// poller —, the write path's per-transaction ones — the proxy's shipment of
// each transaction (proxy-tx:), BlueStore's bstore_aio and bstore_kv — and the
// messenger plane's — the msgr-worker threads, the wire: lanes and the OSDs'
// completers (completer:, rep-completer:, push-completer:) —, the batched-frame
// path's — the proxy's batcher (proxy-batch), each frame's settling
// (proxy-batch-dma:) and the host's notify shards (host-notify-batch) —,
// every control-plane endpoint's server (rpc-server:) with its responses
// (rpc-resp:), and the op path's last — the OSDs' tp_osd_tp workers and the
// host's reads (host-read:, host-read-rpc:) — are task chains, so on a small
// run (4 MiB writes, two DMA
// segments each in DoCeph, and reads of them back; 64 KiB ones through batched
// frames on four DMA queues) no proc of theirs is ever spawned, on either
// deployment, and the coroutine resumes per op are pinned with the events: a
// server turned back into a proc, or a new proc on the path, moves the resumes
// while the events stay put.
func TestDMAPlaneServersAreTaskChains(t *testing.T) {
	batched := Config{Mode: DoCeph}
	batched.Bridge.Batch.Enable = true
	batched.Bridge.Engine.Queues = 4
	batched.OSD.OpShards = 4
	batched.Messenger.Lanes = 4
	for _, c := range []struct {
		name            string
		cfg             Config
		objectBytes     int64
		events, resumes uint64
		// tokens and records are the wake tokens and pending-task records
		// the kernel took (EnvStats): a Delay step, or a continuation
		// granted without a deadline, takes neither.
		tokens, records uint64
		// deadlines are the timed waits' timeouts registered, cancelled the
		// ones a wake-up took out before they were due.
		deadlines, cancelled uint64
	}{
		// With every server a proc, DoCeph fires the same 5,007 events and
		// resumes 2,285 times (47.60 per op); with the write path's three as
		// procs, 1,439 times (29.98 per op); with the messenger plane's,
		// 749 times (15.60 per op); with rpc-server's, 324 (6.75 per op);
		// with tp_osd_tp and host-read:, 285 (5.94 per op). Baseline, with
		// the messenger plane's as procs, resumes 645 times (13.44 per op);
		// with tp_osd_tp, 209 (4.35 per op). Batched, with the batched-frame
		// path's servers and rpc-server as procs, fires the same 4,145
		// events and resumes 774 times (16.12 per op); with tp_osd_tp and
		// host-read:, 291 (6.06 per op). What still resumes is the clients, the
		// PG creation and the loops that stayed procs. With every task event
		// on a token and a record, the three took 3,868 / 3,416, 1,424 /
		// 1,332 and 3,175 / 2,863. With the procs' blocking calls on proc
		// tokens of their own, 1,211 / 759, 174 / 82 and 931 / 619: since
		// they await the task forms, a proc's start and a parked Wait are
		// queued as the proc itself (no token), and each proc wait that
		// queues in a waiter list, FIFO or queue — the clients' timed waits
		// among them — takes a continuation record (63 more in each).
		{"doceph", Config{Mode: DoCeph}, 4 << 20, 5007, 76, 1188, 822, 84, 84},
		{"baseline", Config{Mode: Baseline}, 4 << 20, 2044, 73, 145, 145, 75, 75},
		{"batched", batched, 64 << 10, 4145, 76, 899, 682, 80, 80},
	} {
		c.cfg.Seed = 7
		cl := New(c.cfg)
		var procs []string
		cl.Env.WatchSpawns(func(name string) {
			for _, server := range []string{"dma-engine:", "host-dma-poll", "host-notify:", "dpu-dma-poll",
				"proxy-tx:", "bstore_aio", "bstore_kv", "msgr-worker", "wire:", "completer:", "rep-completer:",
				"push-completer:", "proxy-batch", "host-notify-batch", "rpc-server:", "rpc-resp:",
				"tp_osd_tp", "host-read:", "host-read-rpc:"} {
				if strings.HasPrefix(name, server) {
					procs = append(procs, name)
				}
			}
		})
		res, err := radosbench.Run(cl.Env, cl.Client, radosbench.Config{Threads: 4, ObjectBytes: c.objectBytes,
			OpsPerThread: 12, Op: radosbench.Mixed, ReadPercent: 50, PrepopulateObjects: 8})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if procs != nil {
			t.Errorf("%s: server procs spawned: %v", c.name, procs)
		}
		st := cl.Env.Stats()
		resumes := st.Switches / 2
		t.Logf("%s: %d ops: %d events, %d resumes (%.2f per op), %d task runs, %d tokens, %d records, %d deadlines, %d cancelled",
			c.name, res.Ops, st.Events, resumes, float64(resumes)/float64(res.Ops), st.TaskRuns, st.Tokens, st.Records,
			st.Deadlines, st.Cancelled)
		if res.Ops != 48 || st.Events != c.events || resumes != c.resumes {
			t.Errorf("%s: %d ops, %d events, %d resumes; pinned: 48 ops, %d events, %d resumes (%.2f per op)",
				c.name, res.Ops, st.Events, resumes, c.events, c.resumes, float64(c.resumes)/48)
		}
		if st.Tokens != c.tokens || st.Records != c.records {
			t.Errorf("%s: %d tokens, %d records taken; pinned: %d tokens, %d records", c.name, st.Tokens, st.Records, c.tokens, c.records)
		}
		if st.Deadlines != c.deadlines || st.Cancelled != c.cancelled {
			t.Errorf("%s: %d deadlines, %d cancelled; pinned: %d deadlines, %d cancelled", c.name, st.Deadlines, st.Cancelled,
				c.deadlines, c.cancelled)
		}
		if c.cfg.Bridge.Batch.Enable {
			if n := cl.Nodes[0].Bridge.Proxy.Stats().BatchedTxns; n == 0 {
				t.Errorf("%s: batching did not engage", c.name)
			}
		}
		cl.Shutdown()
	}
}
