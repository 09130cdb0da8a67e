// Package rados implements the client library of the mini-RADOS cluster:
// synchronous object write/read/stat/delete calls that resolve placement via
// the client's OSDMap, talk to the primary OSD through the messenger, and
// transparently refresh + retry when the map changes under them.
package rados

import (
	"errors"
	"fmt"

	"doceph/internal/cephmsg"
	"doceph/internal/messenger"
	"doceph/internal/osdmap"
	"doceph/internal/sim"
	"doceph/internal/trace"
	"doceph/internal/wire"
)

// ThreadCat is the accounting category for client threads (on the client
// node's CPU, which the paper does not measure).
const ThreadCat = "client"

// osdNames caches target entity names so the per-op send path stays
// allocation-free (mirrors osd.Name, which we cannot import without a test
// package cycle).
var osdNames = func() [256]string {
	var a [256]string
	for i := range a {
		a[i] = fmt.Sprintf("osd.%d", i)
	}
	return a
}()

func osdName(id int32) string {
	if id >= 0 && int(id) < len(osdNames) {
		return osdNames[id]
	}
	return fmt.Sprintf("osd.%d", id)
}

// Errors returned by client calls.
var (
	ErrNotFound = errors.New("rados: object not found")
	ErrIO       = errors.New("rados: backend I/O error")
	ErrTimeout  = errors.New("rados: request timed out")
	ErrNoOSD    = errors.New("rados: no primary OSD for object")
	ErrNoQuorum = errors.New("rados: PG below min_size, write quorum unavailable")
)

// Config carries client tunables.
type Config struct {
	// OpTimeout bounds one attempt before the client resends (possibly
	// against a fresher map).
	OpTimeout sim.Duration
	// MaxRetries bounds retries on timeout or wrong-primary redirects, so
	// every op resolves (success or typed error) within a virtual-time
	// deadline of roughly (OpTimeout+backoff) * (MaxRetries+1).
	MaxRetries int
	// RetryBackoff is the initial delay between attempts; each retry
	// doubles it up to retryBackoffMax (capped exponential backoff).
	RetryBackoff sim.Duration
	// Monitor is the entity asked for an on-demand map refresh after a
	// timeout or redirect ("" disables refresh requests).
	Monitor string
	// BalanceReads spreads reads across the whole acting set instead of
	// pinning them to the PG primary (Ceph's CEPH_OSD_FLAG_BALANCE_READS).
	// The replica is chosen by a deterministic hash of the object name
	// over the up acting members; retries fall back to the primary. Off by
	// default: primary reads are the consistency-conservative choice and
	// keep existing goldens unchanged.
	BalanceReads bool
}

// DefaultConfig returns client defaults.
func DefaultConfig() Config {
	return Config{
		OpTimeout:    30 * sim.Second,
		MaxRetries:   5,
		RetryBackoff: 100 * sim.Millisecond,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.OpTimeout == 0 {
		c.OpTimeout = d.OpTimeout
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = d.MaxRetries
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = d.RetryBackoff
	}
	return c
}

// Stats counts the client's robustness events.
type Stats struct {
	Ops          int64
	Retries      int64
	Timeouts     int64
	Redirects    int64
	StaleReplies int64
	MapRefreshes int64
	// NoQuorumWaits counts ResNoQuorum replies (PG below min_size): the
	// client backs off and retries, waiting for recovery to restore quorum.
	NoQuorumWaits int64
	// BalancedReads counts reads dispatched to a non-primary replica
	// (BalanceReads enabled and the hash picked a secondary).
	BalancedReads int64
}

// Client is one RADOS client instance bound to a messenger entity.
type Client struct {
	env  *sim.Env
	cpu  *sim.CPU
	msgr *messenger.Messenger
	cfg  Config
	th   *sim.Thread

	curMap   *osdmap.Map
	nextTid  uint64
	inflight map[uint64]*call
	// calls and ops are the partition's free lists (sim.Local) of call
	// records and of requests.
	calls *sim.FreeList[call]
	ops   *sim.FreeList[cephmsg.MOSDOp]

	stats Stats
	tr    *trace.Tracer
}

// call is one attempt of an op in flight: done fires when its reply lands,
// copied in by value, since the OSD may put the message back once dispatch
// returns. It is a record from the partition's free list, put back once do
// has taken the reply; one that timed out keeps a spent wake-up on its event
// and is left to the GC.
type call struct {
	done  sim.Event
	reply cephmsg.MOSDOpReply
	// data holds the views of a read reply's data, taken at dispatch.
	data wire.Inline2
}

// New creates a client using msgr, charging client-side CPU to cpu, with an
// initial cluster map m (kept fresh via MOSDMap broadcasts).
func New(env *sim.Env, cpu *sim.CPU, msgr *messenger.Messenger,
	m *osdmap.Map, cfg Config) *Client {
	c := &Client{
		env: env, cpu: cpu, msgr: msgr, cfg: cfg.withDefaults(),
		th:       sim.NewThread(msgr.Name(), ThreadCat),
		curMap:   m,
		inflight: make(map[uint64]*call),
		calls:    sim.Local[sim.FreeList[call]](env),
		ops:      sim.Local[sim.FreeList[cephmsg.MOSDOp]](env),
	}
	msgr.SetDispatcher(c.dispatch)
	return c
}

// SetTracer enables op tracing (nil disables it; the hooks are
// nil-receiver safe).
func (c *Client) SetTracer(tr *trace.Tracer) { c.tr = tr }

// Map returns the client's current cluster map.
func (c *Client) Map() *osdmap.Map { return c.curMap }

// Stats returns a copy of the robustness counters.
func (c *Client) Stats() Stats { return c.stats }

func (c *Client) dispatch(_ *sim.Proc, src string, m cephmsg.Message) {
	switch msg := m.(type) {
	case *cephmsg.MOSDOpReply:
		call, ok := c.inflight[msg.Tid]
		if !ok {
			// A reply for an unknown or stale tid: the op already
			// completed (or gave up) via another attempt. Account for it
			// instead of dropping it silently — stale replies are the
			// visible residue of timeout+resend under faults.
			c.stats.StaleReplies++
			return
		}
		call.reply = *msg
		call.reply.Owner = nil // the copy is the client's, not the sender's record
		if msg.Data != nil {
			// The data's list is the sender's record's too: its views are
			// the call's.
			call.reply.Data = call.data.Init()
			call.reply.Data.AppendBufferlist(msg.Data)
		}
		call.done.Fire()
		delete(c.inflight, msg.Tid)
	case *cephmsg.MOSDMap:
		c.applyMap(msg)
	}
}

// refreshMap asks the monitor for a newer map than the one we hold; the
// answer arrives through the regular MOSDMap dispatch path.
func (c *Client) refreshMap() {
	if c.cfg.Monitor == "" {
		return
	}
	c.stats.MapRefreshes++
	c.msgr.Send(c.cfg.Monitor, &cephmsg.MGetMap{Epoch: c.curMap.Epoch})
}

func (c *Client) applyMap(m *cephmsg.MOSDMap) {
	if m.Epoch <= c.curMap.Epoch {
		return
	}
	next := c.curMap.Next()
	next.Epoch = m.Epoch
	up := make(map[int32]bool, len(m.Up))
	for _, id := range m.Up {
		up[id] = true
	}
	for _, dev := range next.Crush.Devices() {
		id := int32(dev)
		if up[id] {
			next.MarkUp(id)
		} else {
			next.MarkDown(id)
		}
	}
	c.curMap = next
}

const (
	// retryBackoffMax caps the doubling of Config.RetryBackoff.
	retryBackoffMax = 5 * sim.Second
	// prepCycles is the client-side cost per op (librados encode, CRC).
	prepCycles int64 = 15_000
)

// do runs the op req on a request record from the partition's free list and
// puts the record back once the reply is taken, unless an attempt of the op
// timed out: an OSD may still hold that attempt's request, so the record is
// left to the GC. A redirect or a no-quorum answer is a reply, not a timeout.
// A read reply's data is viewed into dst, the caller's list, or into a new
// list when dst is nil: the call record that took it at dispatch goes back.
func (c *Client) do(p *sim.Proc, req cephmsg.MOSDOp, dst *wire.Bufferlist) (cephmsg.MOSDOpReply, error) {
	op := c.ops.Get()
	*op = req
	reply, timedOut, err := c.send(p, op, dst)
	if timedOut {
		c.ops.Abandon(sim.TimedOut)
	} else {
		c.ops.Put(op)
	}
	return reply, err
}

// send sends op to the current primary and waits for the reply, resending on
// timeouts and redirects with capped exponential backoff, and reports whether
// an attempt timed out. The tid is assigned once per op, so resends are
// idempotent: whichever attempt's reply arrives first completes the op, and
// later duplicates are counted as stale. Every op resolves within a bounded
// virtual-time deadline — success or a typed error (ErrTimeout, ErrNoOSD),
// never a hang.
func (c *Client) send(p *sim.Proc, op *cephmsg.MOSDOp, dst *wire.Bufferlist) (reply cephmsg.MOSDOpReply, timedOut bool, err error) {
	c.stats.Ops++
	c.nextTid++
	op.Tid = c.nextTid
	op.Src = c.msgr.Name()
	defer delete(c.inflight, op.Tid)
	// Root span of the operation: submit through final reply (covering
	// retries). Downstream stages parent themselves to it via op.TraceCtx.
	sp := c.tr.Start(0, op.Tid, trace.StageOp, op.Object)
	op.TraceCtx = uint64(sp)
	if op.Data != nil {
		c.tr.AddBytes(sp, int64(op.Data.Length()))
	}
	defer c.tr.Finish(sp)
	backoff := c.cfg.RetryBackoff
	wait := func() {
		p.Wait(backoff)
		if backoff *= 2; backoff > retryBackoffMax {
			backoff = retryBackoffMax
		}
	}
	sawNoOSD := false
	sawNoQuorum := false
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			c.stats.Retries++
		}
		pg := c.curMap.PGForObject(op.Object)
		primary := c.curMap.Primary(pg)
		if primary < 0 {
			// The whole acting set is down. Ask for a fresher map and
			// back off instead of failing outright — the monitor may be
			// about to re-integrate a recovered OSD.
			sawNoOSD = true
			c.refreshMap()
			wait()
			continue
		}
		sawNoOSD = false
		target := primary
		op.Flags &^= cephmsg.FlagBalanceReads
		if c.cfg.BalanceReads && op.Op == cephmsg.OpRead && attempt == 0 {
			// First attempt only: retries fall back to the primary, so a
			// down or lagging replica costs one timeout, never the op.
			if t := c.balancedTarget(pg, op.Object); t >= 0 {
				target = t
				op.Flags |= cephmsg.FlagBalanceReads
				if target != primary {
					c.stats.BalancedReads++
				}
			}
		}
		c.tr.AddCPU(sp, c.cpu.Name(), c.cpu.Exec(p, c.th, prepCycles))
		op.Epoch = c.curMap.Epoch
		call := c.calls.Get()
		c.inflight[op.Tid] = call
		c.msgr.Send(osdName(target), op)
		if !call.done.WaitTimeout(p, c.cfg.OpTimeout) {
			c.calls.Abandon(sim.TimedOut)
			c.stats.Timeouts++
			timedOut = true
			c.refreshMap()
			wait()
			continue
		}
		reply = call.reply
		if data := reply.Data; data != nil {
			if reply.Data = dst; dst == nil {
				reply.Data = wire.Sized(data.Segments())
			}
			reply.Data.AppendBufferlist(data)
		}
		c.calls.Put(call)
		if reply.Result == cephmsg.ResNotPrimary {
			c.stats.Redirects++
			c.refreshMap()
			wait()
			continue
		}
		if reply.Result == cephmsg.ResNoQuorum {
			// The PG is below min_size: real Ceph blocks such writes until
			// the acting set regrows. Back off and retry against a fresher
			// map; surface a typed error only once retries exhaust.
			c.stats.NoQuorumWaits++
			sawNoQuorum = true
			c.refreshMap()
			wait()
			continue
		}
		return reply, timedOut, nil
	}
	if sawNoQuorum {
		return cephmsg.MOSDOpReply{}, timedOut, ErrNoQuorum
	}
	if sawNoOSD {
		return cephmsg.MOSDOpReply{}, timedOut, ErrNoOSD
	}
	return cephmsg.MOSDOpReply{}, timedOut, ErrTimeout
}

// balancedTarget picks the acting-set member a flagged read goes to: a
// deterministic hash of the object name over the up acting members, so the
// same object always reads from the same replica (cache-friendly) and the
// load spreads across the set object-by-object. Returns -1 when no acting
// member is up.
func (c *Client) balancedTarget(pg uint32, object string) int32 {
	acting := c.curMap.ActingSet(pg)
	up := 0
	for _, id := range acting {
		if c.curMap.IsUp(id) {
			up++
		}
	}
	if up == 0 {
		return -1
	}
	// Decorrelate from PGForObject's fnv%PGCount with an avalanche mix.
	h := fnv64(object)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	// The pick is the k-th up member, in acting order.
	k := int(h % uint64(up))
	for _, id := range acting {
		if c.curMap.IsUp(id) {
			if k == 0 {
				return id
			}
			k--
		}
	}
	return -1 // not reached: k < up
}

func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func resultErr(r int32) error {
	switch r {
	case cephmsg.ResOK:
		return nil
	case cephmsg.ResNotFound:
		return ErrNotFound
	default:
		return ErrIO
	}
}

// Write stores data at offset 0 of object.
func (c *Client) Write(p *sim.Proc, object string, data *wire.Bufferlist) error {
	reply, err := c.do(p, cephmsg.MOSDOp{
		Pool: "rbd", Object: object, Op: cephmsg.OpWrite,
		Length: uint64(data.Length()), Data: data,
	}, nil)
	if err != nil {
		return err
	}
	return resultErr(reply.Result)
}

// Read returns length bytes at offset off of object (length 0 = to EOF), in
// a new list.
func (c *Client) Read(p *sim.Proc, object string, off, length uint64) (*wire.Bufferlist, error) {
	reply, err := c.do(p, cephmsg.MOSDOp{
		Pool: "rbd", Object: object, Op: cephmsg.OpRead, Offset: off, Length: length,
	}, nil)
	if err != nil {
		return nil, err
	}
	if err := resultErr(reply.Result); err != nil {
		return nil, err
	}
	return reply.Data, nil
}

// ReadInto is Read into dst, a list the caller owns: the data's views are
// appended to it, so a caller that reuses one reads without allocating.
func (c *Client) ReadInto(p *sim.Proc, object string, off, length uint64, dst *wire.Bufferlist) error {
	reply, err := c.do(p, cephmsg.MOSDOp{
		Pool: "rbd", Object: object, Op: cephmsg.OpRead, Offset: off, Length: length,
	}, dst)
	if err != nil {
		return err
	}
	return resultErr(reply.Result)
}

// Stat returns object size and version.
func (c *Client) Stat(p *sim.Proc, object string) (size, version uint64, err error) {
	reply, err := c.do(p, cephmsg.MOSDOp{Pool: "rbd", Object: object, Op: cephmsg.OpStat}, nil)
	if err != nil {
		return 0, 0, err
	}
	if err := resultErr(reply.Result); err != nil {
		return 0, 0, err
	}
	return reply.Size, reply.Version, nil
}

// Delete removes object.
func (c *Client) Delete(p *sim.Proc, object string) error {
	reply, err := c.do(p, cephmsg.MOSDOp{Pool: "rbd", Object: object, Op: cephmsg.OpDelete}, nil)
	if err != nil {
		return err
	}
	return resultErr(reply.Result)
}
