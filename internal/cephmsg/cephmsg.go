// Package cephmsg defines the messages exchanged by the mini-RADOS cluster:
// client ops, replication sub-ops, heartbeats and map updates — the
// counterparts of Ceph's MOSDOp/MOSDRepOp/MOSDPing/MOSDMap families. Each
// message encodes to and decodes from a wire.Bufferlist; framing (length
// prefix + CRC) is owned by the messenger.
package cephmsg

import (
	"fmt"

	"doceph/internal/wire"
)

// Type discriminates message kinds on the wire.
type Type uint16

// Message type tags.
const (
	TOSDOp      Type = 0x0701 // client -> primary OSD
	TOSDOpReply Type = 0x0702 // primary OSD -> client
	TRepOp      Type = 0x0703 // primary -> replica
	TRepOpReply Type = 0x0704 // replica -> primary
	TPing       Type = 0x0705 // heartbeat
	TPingReply  Type = 0x0706
	TOSDMap     Type = 0x0707 // monitor -> daemons
	TOSDFailure Type = 0x0708 // osd -> monitor failure report
	TPGPush     Type = 0x0709 // recovery: primary -> backfill target
	TPGPushAck  Type = 0x070A // recovery: target -> primary
	TScrub      Type = 0x070B // scrub: primary -> replica digest request
	TScrubReply Type = 0x070C // scrub: replica -> primary digest
	TGetStats   Type = 0x070D // mgr -> osd statistics poll
	TStatsReply Type = 0x070E // osd -> mgr statistics report
	TGetMap     Type = 0x070F // client/osd -> monitor map refresh request
	TOSDBoot    Type = 0x0710 // osd -> monitor "I am alive" announcement
	// Stream framing (see stream.go): flow-controlled chunked transfer of
	// large write payloads.
	TStreamOpen   Type = 0x0711 // sender -> receiver: start a chunked transfer
	TStreamChunk  Type = 0x0712 // sender -> receiver: one ordered payload chunk
	TStreamEnd    Type = 0x0713 // sender -> receiver: stream complete
	TStreamCredit Type = 0x0714 // receiver -> sender: flow-control credit return
	TStreamAbort  Type = 0x0715 // sender -> receiver: discard partial stream
)

func (t Type) String() string {
	switch t {
	case TOSDOp:
		return "osd_op"
	case TOSDOpReply:
		return "osd_op_reply"
	case TRepOp:
		return "rep_op"
	case TRepOpReply:
		return "rep_op_reply"
	case TPing:
		return "ping"
	case TPingReply:
		return "ping_reply"
	case TOSDMap:
		return "osd_map"
	case TOSDFailure:
		return "osd_failure"
	case TPGPush:
		return "pg_push"
	case TPGPushAck:
		return "pg_push_ack"
	case TScrub:
		return "scrub"
	case TScrubReply:
		return "scrub_reply"
	case TGetStats:
		return "get_stats"
	case TStatsReply:
		return "stats_reply"
	case TGetMap:
		return "get_map"
	case TOSDBoot:
		return "osd_boot"
	case TStreamOpen:
		return "stream_open"
	case TStreamChunk:
		return "stream_chunk"
	case TStreamEnd:
		return "stream_end"
	case TStreamCredit:
		return "stream_credit"
	case TStreamAbort:
		return "stream_abort"
	}
	return fmt.Sprintf("type(%#04x)", uint16(t))
}

// Op is the operation carried by an MOSDOp.
type Op uint8

// Client operation codes.
const (
	OpWrite Op = iota + 1
	OpRead
	OpStat
	OpDelete
)

// FlagBalanceReads marks a read the client is willing to have served by
// any in-acting-set replica, not just the PG primary — the counterpart of
// Ceph's CEPH_OSD_FLAG_BALANCE_READS. It travels in the high bit of the
// op byte, so flagged requests are the same wire length as unflagged ones
// (both the PayloadBytes cost model and real WireEncode framing see
// identical sizes).
const FlagBalanceReads uint8 = 0x80

func (o Op) String() string {
	switch o {
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpStat:
		return "stat"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Message is a decoded cluster message.
type Message interface {
	// MsgType returns the wire discriminator.
	MsgType() Type
	// EncodePayload appends the message body (everything after the type
	// tag) to e.
	EncodePayload(e *wire.Encoder)
	// PayloadBytes is the approximate body size used by CPU/network cost
	// models without encoding.
	PayloadBytes() int64
}

// MOSDOp is a client request against one object.
type MOSDOp struct {
	Tid    uint64
	Epoch  uint32
	Src    string
	Pool   string
	Object string
	Op     Op
	Offset uint64
	Length uint64
	// Flags carries op modifiers (FlagBalanceReads); packed into the op
	// byte's high bits on the wire.
	Flags uint8
	// Data carries write payloads.
	Data *wire.Bufferlist
	// TraceCtx is the sender's trace span context (trace.SpanID as a raw
	// uint64). It is simulator instrumentation, not protocol state: it is
	// never encoded, so wire-encoded round trips drop it.
	TraceCtx uint64
}

// MsgType implements Message.
func (m *MOSDOp) MsgType() Type { return TOSDOp }

// EncodePayload implements Message.
func (m *MOSDOp) EncodePayload(e *wire.Encoder) {
	e.U64(m.Tid)
	e.U32(m.Epoch)
	e.String(m.Src)
	e.String(m.Pool)
	e.String(m.Object)
	e.U8(uint8(m.Op) | m.Flags)
	e.U64(m.Offset)
	e.U64(m.Length)
	e.BufferlistField(data(m.Data))
}

// PayloadBytes implements Message.
func (m *MOSDOp) PayloadBytes() int64 {
	return 64 + int64(len(m.Src)+len(m.Pool)+len(m.Object)) +
		int64(data(m.Data).Length())
}

// Result codes carried in MOSDOpReply.Result.
const (
	ResOK         int32 = 0
	ResNotPrimary int32 = -2  // client must refresh its map and retry
	ResNotFound   int32 = -61 // object does not exist
	ResError      int32 = -5  // backend I/O error
	ResNoQuorum   int32 = -11 // PG below min_size: retry after recovery (EAGAIN)
)

// MOSDOpReply answers an MOSDOp.
type MOSDOpReply struct {
	Tid     uint64
	Object  string
	Op      Op
	Result  int32
	Version uint64
	Size    uint64 // stat result
	// Data is the read payload. With an Owner, the list is the record's
	// too: a dispatcher that keeps the data views it into a list of its own.
	Data *wire.Bufferlist
	// TraceCtx carries the trace span context out-of-band (see MOSDOp).
	TraceCtx uint64
	// Owner is the record the reply lives in, out-of-band like TraceCtx
	// (nil: the GC's).
	Owner Owner
}

// MsgType implements Message.
func (m *MOSDOpReply) MsgType() Type { return TOSDOpReply }

// EncodePayload implements Message.
func (m *MOSDOpReply) EncodePayload(e *wire.Encoder) {
	e.U64(m.Tid)
	e.String(m.Object)
	e.U8(uint8(m.Op))
	e.U32(uint32(m.Result))
	e.U64(m.Version)
	e.U64(m.Size)
	e.BufferlistField(data(m.Data))
}

// PayloadBytes implements Message.
func (m *MOSDOpReply) PayloadBytes() int64 {
	return 40 + int64(len(m.Object)) + int64(data(m.Data).Length())
}

// MRepOp carries a replicated write from a primary to a replica OSD.
type MRepOp struct {
	Tid    uint64
	Epoch  uint32
	PGID   uint32
	Object string
	Op     Op
	Offset uint64
	Data   *wire.Bufferlist
	// TraceCtx carries the trace span context out-of-band (see MOSDOp).
	TraceCtx uint64
}

// MsgType implements Message.
func (m *MRepOp) MsgType() Type { return TRepOp }

// EncodePayload implements Message.
func (m *MRepOp) EncodePayload(e *wire.Encoder) {
	e.U64(m.Tid)
	e.U32(m.Epoch)
	e.U32(m.PGID)
	e.String(m.Object)
	e.U8(uint8(m.Op))
	e.U64(m.Offset)
	e.BufferlistField(data(m.Data))
}

// PayloadBytes implements Message.
func (m *MRepOp) PayloadBytes() int64 {
	return 48 + int64(len(m.Object)) + int64(data(m.Data).Length())
}

// MRepOpReply acknowledges an MRepOp.
type MRepOpReply struct {
	Tid    uint64
	PGID   uint32
	Result int32
	// TraceCtx carries the trace span context out-of-band (see MOSDOp).
	TraceCtx uint64
	// Owner is the record the ack lives in, out-of-band like TraceCtx (nil:
	// the GC's).
	Owner Owner
}

// MsgType implements Message.
func (m *MRepOpReply) MsgType() Type { return TRepOpReply }

// EncodePayload implements Message.
func (m *MRepOpReply) EncodePayload(e *wire.Encoder) {
	e.U64(m.Tid)
	e.U32(m.PGID)
	e.U32(uint32(m.Result))
}

// PayloadBytes implements Message.
func (m *MRepOpReply) PayloadBytes() int64 { return 16 }

// MPing is a heartbeat probe; Stamp is the sender's virtual-time nanosecond
// clock, echoed back in MPingReply for RTT estimation.
type MPing struct {
	Src   string
	Stamp int64
	// Owner is the record the probe lives in, out-of-band (nil: the GC's).
	Owner Owner
}

// MsgType implements Message.
func (m *MPing) MsgType() Type { return TPing }

// EncodePayload implements Message.
func (m *MPing) EncodePayload(e *wire.Encoder) {
	e.String(m.Src)
	e.I64(m.Stamp)
}

// PayloadBytes implements Message.
func (m *MPing) PayloadBytes() int64 { return 16 + int64(len(m.Src)) }

// MPingReply echoes an MPing.
type MPingReply struct {
	Src   string
	Stamp int64
	// Owner is the record the answer lives in, out-of-band (nil: the GC's).
	Owner Owner
}

// MsgType implements Message.
func (m *MPingReply) MsgType() Type { return TPingReply }

// EncodePayload implements Message.
func (m *MPingReply) EncodePayload(e *wire.Encoder) {
	e.String(m.Src)
	e.I64(m.Stamp)
}

// PayloadBytes implements Message.
func (m *MPingReply) PayloadBytes() int64 { return 16 + int64(len(m.Src)) }

// MOSDMap distributes a new OSDMap epoch: the set of up+in OSD ids.
type MOSDMap struct {
	Epoch uint32
	Up    []int32
}

// MsgType implements Message.
func (m *MOSDMap) MsgType() Type { return TOSDMap }

// EncodePayload implements Message.
func (m *MOSDMap) EncodePayload(e *wire.Encoder) {
	e.U32(m.Epoch)
	e.U32(uint32(len(m.Up)))
	for _, id := range m.Up {
		e.U32(uint32(id))
	}
}

// PayloadBytes implements Message.
func (m *MOSDMap) PayloadBytes() int64 { return 8 + 4*int64(len(m.Up)) }

// MOSDFailure reports a suspected-dead peer OSD to the monitor.
type MOSDFailure struct {
	Reporter string
	Failed   int32
	Epoch    uint32
}

// MsgType implements Message.
func (m *MOSDFailure) MsgType() Type { return TOSDFailure }

// EncodePayload implements Message.
func (m *MOSDFailure) EncodePayload(e *wire.Encoder) {
	e.String(m.Reporter)
	e.U32(uint32(m.Failed))
	e.U32(m.Epoch)
}

// PayloadBytes implements Message.
func (m *MOSDFailure) PayloadBytes() int64 { return 12 + int64(len(m.Reporter)) }

// MPGPush carries one object from a PG's primary to a backfill target
// during recovery (the rebalancing traffic the paper's §1 attributes to the
// messenger layer).
type MPGPush struct {
	Tid     uint64
	Epoch   uint32
	PGID    uint32
	Object  string
	Version uint64
	// Force overwrites the target's copy even if present (scrub repair).
	Force bool
	Data  *wire.Bufferlist
}

// MsgType implements Message.
func (m *MPGPush) MsgType() Type { return TPGPush }

// EncodePayload implements Message.
func (m *MPGPush) EncodePayload(e *wire.Encoder) {
	e.U64(m.Tid)
	e.U32(m.Epoch)
	e.U32(m.PGID)
	e.String(m.Object)
	e.U64(m.Version)
	e.Bool(m.Force)
	e.BufferlistField(data(m.Data))
}

// PayloadBytes implements Message.
func (m *MPGPush) PayloadBytes() int64 {
	return 48 + int64(len(m.Object)) + int64(data(m.Data).Length())
}

// MPGPushAck confirms a pushed object is durable on the target.
type MPGPushAck struct {
	Tid    uint64
	PGID   uint32
	Object string
	Result int32
}

// MsgType implements Message.
func (m *MPGPushAck) MsgType() Type { return TPGPushAck }

// EncodePayload implements Message.
func (m *MPGPushAck) EncodePayload(e *wire.Encoder) {
	e.U64(m.Tid)
	e.U32(m.PGID)
	e.String(m.Object)
	e.U32(uint32(m.Result))
}

// PayloadBytes implements Message.
func (m *MPGPushAck) PayloadBytes() int64 { return 24 + int64(len(m.Object)) }

// MScrub asks a replica for an object's content digest (deep scrub).
type MScrub struct {
	Tid    uint64
	PGID   uint32
	Object string
}

// MsgType implements Message.
func (m *MScrub) MsgType() Type { return TScrub }

// EncodePayload implements Message.
func (m *MScrub) EncodePayload(e *wire.Encoder) {
	e.U64(m.Tid)
	e.U32(m.PGID)
	e.String(m.Object)
}

// PayloadBytes implements Message.
func (m *MScrub) PayloadBytes() int64 { return 16 + int64(len(m.Object)) }

// MScrubReply returns a replica's digest of one object.
type MScrubReply struct {
	Tid    uint64
	PGID   uint32
	Object string
	Exists bool
	CRC    uint32
	Size   uint64
}

// MsgType implements Message.
func (m *MScrubReply) MsgType() Type { return TScrubReply }

// EncodePayload implements Message.
func (m *MScrubReply) EncodePayload(e *wire.Encoder) {
	e.U64(m.Tid)
	e.U32(m.PGID)
	e.String(m.Object)
	e.Bool(m.Exists)
	e.U32(m.CRC)
	e.U64(m.Size)
}

// PayloadBytes implements Message.
func (m *MScrubReply) PayloadBytes() int64 { return 32 + int64(len(m.Object)) }

// MGetStats polls a daemon for its runtime statistics (MGR traffic).
type MGetStats struct {
	Tid uint64
}

// MsgType implements Message.
func (m *MGetStats) MsgType() Type { return TGetStats }

// EncodePayload implements Message.
func (m *MGetStats) EncodePayload(e *wire.Encoder) { e.U64(m.Tid) }

// PayloadBytes implements Message.
func (m *MGetStats) PayloadBytes() int64 { return 8 }

// MStatsReply reports a daemon's counters as ordered key/value pairs; the
// schema is owned by the sender so the MGR aggregates without coupling to
// daemon internals.
type MStatsReply struct {
	Tid    uint64
	Source string
	Keys   []string
	Values []int64
}

// MsgType implements Message.
func (m *MStatsReply) MsgType() Type { return TStatsReply }

// EncodePayload implements Message.
func (m *MStatsReply) EncodePayload(e *wire.Encoder) {
	e.U64(m.Tid)
	e.String(m.Source)
	e.U32(uint32(len(m.Keys)))
	for i := range m.Keys {
		e.String(m.Keys[i])
		e.I64(m.Values[i])
	}
}

// PayloadBytes implements Message.
func (m *MStatsReply) PayloadBytes() int64 {
	n := int64(16 + len(m.Source))
	for _, k := range m.Keys {
		n += int64(len(k)) + 12
	}
	return n
}

// MGetMap asks the monitor to send the requester its current map epoch
// directly (an on-demand refresh: after an op timeout a client cannot rely
// on having seen the broadcast that may have been lost with the fault).
type MGetMap struct {
	// Epoch is the requester's current epoch; the monitor may skip the
	// reply if it has nothing newer.
	Epoch uint32
}

// MsgType implements Message.
func (m *MGetMap) MsgType() Type { return TGetMap }

// EncodePayload implements Message.
func (m *MGetMap) EncodePayload(e *wire.Encoder) { e.U32(m.Epoch) }

// PayloadBytes implements Message.
func (m *MGetMap) PayloadBytes() int64 { return 4 }

// MOSDBoot announces a live OSD to the monitor (Ceph's MOSDBoot). Sent on
// daemon restart and, crucially, when a running OSD sees a map that marks
// it down: the monitor's failure evidence was stale, and the daemon defends
// itself by requesting to be marked back up.
type MOSDBoot struct {
	OSD   int32
	Epoch uint32 // sender's map epoch when it booted/protested
}

// MsgType implements Message.
func (m *MOSDBoot) MsgType() Type { return TOSDBoot }

// EncodePayload implements Message.
func (m *MOSDBoot) EncodePayload(e *wire.Encoder) {
	e.U32(uint32(m.OSD))
	e.U32(m.Epoch)
}

// PayloadBytes implements Message.
func (m *MOSDBoot) PayloadBytes() int64 { return 8 }

func data(bl *wire.Bufferlist) *wire.Bufferlist {
	if bl == nil {
		return &wire.Bufferlist{}
	}
	return bl
}

// Encode serializes m with its type tag into a Bufferlist. Headers and
// other fixed-size fields go into a pooled scratch segment; bulk payload
// fields (MOSDOp/MRepOp data and friends) are spliced in as shared
// segments, so encoding never copies the payload. The first segment of the
// result is pool-owned: once the list and everything decoded zero-copy
// from it are dead, the framing layer hands it back with wire.PutBuffer.
func Encode(m Message) *wire.Bufferlist {
	hint := int(m.PayloadBytes()) + 8 - int(data(payloadOf(m)).Length())
	e := wire.NewEncoderBL(wire.GetBuffer(hint))
	e.U16(uint16(m.MsgType()))
	m.EncodePayload(e)
	return e.Bufferlist()
}

// TraceContext returns the out-of-band trace span context carried by op
// messages (0 for message types that carry none). The messenger uses it to
// parent its framing spans without knowing the concrete message type.
func TraceContext(m Message) uint64 {
	switch m := m.(type) {
	case *MOSDOp:
		return m.TraceCtx
	case *MOSDOpReply:
		return m.TraceCtx
	case *MRepOp:
		return m.TraceCtx
	case *MRepOpReply:
		return m.TraceCtx
	case *MStreamOpen:
		return m.TraceCtx
	case *MStreamChunk:
		return m.TraceCtx
	}
	return 0
}

// Owner is the record a reply lives in when its sender recycles it (Ceph's
// refcounted Message, put back by the dispatcher once it is done). The
// receiving messenger, which shares the sender's Env, calls Release once the
// reply's dispatcher, and any charge it made, is done, so a dispatcher that
// keeps a reply past its return keeps a copy. It is never encoded: a decoded
// copy has none, and the GC takes the record.
type Owner interface {
	// Release puts the record back; nothing reads the reply after it.
	Release()
}

// OwnerOf returns the record m lives in, if its sender recycles it.
func OwnerOf(m Message) Owner {
	switch m := m.(type) {
	case *MOSDOpReply:
		return m.Owner
	case *MRepOpReply:
		return m.Owner
	case *MPing:
		return m.Owner
	case *MPingReply:
		return m.Owner
	}
	return nil
}

// LaneKey returns a stable ordering key for multi-lane transports and
// whether the message may leave lane 0 at all. Messages addressing one
// object hash by object name (RADOS ordering is per object per session);
// PG-scoped traffic hashes by PG id so a PG's replication stream stays
// FIFO. Everything else — maps, boots, heartbeats, stats — returns false
// and must ride lane 0, preserving the strict peer-wide ordering those
// protocols assume.
func LaneKey(m Message) (uint64, bool) {
	switch m := m.(type) {
	case *MOSDOp:
		return fnv64(m.Object), true
	case *MOSDOpReply:
		return fnv64(m.Object), true
	case *MRepOp:
		return uint64(m.PGID), true
	case *MRepOpReply:
		return uint64(m.PGID), true
	case *MPGPush:
		return uint64(m.PGID), true
	case *MPGPushAck:
		return uint64(m.PGID), true
	case *MScrub:
		return uint64(m.PGID), true
	case *MScrubReply:
		return uint64(m.PGID), true
	// Stream frames echo the ordering key of the op they carry, so every
	// frame of one stream stays on one lane (per-stream FIFO), and credits
	// flow back on the matching reverse lane.
	case *MStreamOpen:
		return m.Lane, true
	case *MStreamChunk:
		return m.Lane, true
	case *MStreamEnd:
		return m.Lane, true
	case *MStreamCredit:
		return m.Lane, true
	case *MStreamAbort:
		return m.Lane, true
	}
	return 0, false
}

// fnv64 is FNV-1a, inlined so lane steering never allocates.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// payloadOf returns the bulk data field excluded from the scratch sizing
// hint (it travels as shared segments, not through scratch).
func payloadOf(m Message) *wire.Bufferlist {
	switch m := m.(type) {
	case *MOSDOp:
		return m.Data
	case *MOSDOpReply:
		return m.Data
	case *MRepOp:
		return m.Data
	case *MPGPush:
		return m.Data
	case *MStreamChunk:
		return m.Data
	}
	return nil
}

// Decode parses a message previously produced by Encode.
func Decode(bl *wire.Bufferlist) (Message, error) {
	return decodeMsg(wire.NewDecoderBL(bl), 0)
}

// decodeMsg parses one tag+payload frame from d. depth guards the one
// level of nesting MStreamOpen introduces (its inner op is a nested frame;
// an inner frame may not itself be a stream message).
func decodeMsg(d *wire.Decoder, depth int) (Message, error) {
	t := Type(d.U16())
	var m Message
	switch t {
	case TOSDOp:
		op := &MOSDOp{
			Tid: d.U64(), Epoch: d.U32(), Src: d.String(), Pool: d.String(),
			Object: d.String(),
		}
		// The op byte carries flags in its high bits (FlagBalanceReads).
		b := d.U8()
		op.Op, op.Flags = Op(b&^FlagBalanceReads), b&FlagBalanceReads
		op.Offset, op.Length = d.U64(), d.U64()
		op.Data = d.BufferlistField()
		m = op
	case TOSDOpReply:
		m = &MOSDOpReply{
			Tid: d.U64(), Object: d.String(), Op: Op(d.U8()),
			Result: int32(d.U32()), Version: d.U64(), Size: d.U64(),
			Data: d.BufferlistField(),
		}
	case TRepOp:
		m = &MRepOp{
			Tid: d.U64(), Epoch: d.U32(), PGID: d.U32(), Object: d.String(),
			Op: Op(d.U8()), Offset: d.U64(), Data: d.BufferlistField(),
		}
	case TRepOpReply:
		m = &MRepOpReply{Tid: d.U64(), PGID: d.U32(), Result: int32(d.U32())}
	case TPing:
		m = &MPing{Src: d.String(), Stamp: d.I64()}
	case TPingReply:
		m = &MPingReply{Src: d.String(), Stamp: d.I64()}
	case TOSDMap:
		mm := &MOSDMap{Epoch: d.U32()}
		n := d.U32()
		for i := uint32(0); i < n && d.Err() == nil; i++ {
			mm.Up = append(mm.Up, int32(d.U32()))
		}
		m = mm
	case TOSDFailure:
		m = &MOSDFailure{Reporter: d.String(), Failed: int32(d.U32()), Epoch: d.U32()}
	case TPGPush:
		m = &MPGPush{
			Tid: d.U64(), Epoch: d.U32(), PGID: d.U32(), Object: d.String(),
			Version: d.U64(), Force: d.Bool(), Data: d.BufferlistField(),
		}
	case TPGPushAck:
		m = &MPGPushAck{Tid: d.U64(), PGID: d.U32(), Object: d.String(),
			Result: int32(d.U32())}
	case TScrub:
		m = &MScrub{Tid: d.U64(), PGID: d.U32(), Object: d.String()}
	case TScrubReply:
		m = &MScrubReply{Tid: d.U64(), PGID: d.U32(), Object: d.String(),
			Exists: d.Bool(), CRC: d.U32(), Size: d.U64()}
	case TGetStats:
		m = &MGetStats{Tid: d.U64()}
	case TStatsReply:
		sr := &MStatsReply{Tid: d.U64(), Source: d.String()}
		n := d.U32()
		for i := uint32(0); i < n && d.Err() == nil; i++ {
			sr.Keys = append(sr.Keys, d.String())
			sr.Values = append(sr.Values, d.I64())
		}
		m = sr
	case TGetMap:
		m = &MGetMap{Epoch: d.U32()}
	case TOSDBoot:
		m = &MOSDBoot{OSD: int32(d.U32()), Epoch: d.U32()}
	case TStreamOpen:
		if depth > 0 {
			return nil, fmt.Errorf("cephmsg: nested stream open")
		}
		so, err := decodeStreamOpen(d, depth)
		if err != nil {
			return nil, err
		}
		m = so
	case TStreamChunk:
		m = &MStreamChunk{StreamID: d.U64(), Seq: d.U32(), Lane: d.U64(),
			Data: d.BufferlistField()}
	case TStreamEnd:
		m = &MStreamEnd{StreamID: d.U64(), Chunks: d.U32(), Lane: d.U64()}
	case TStreamCredit:
		m = &MStreamCredit{StreamID: d.U64(), Credits: d.U32(), Lane: d.U64()}
	case TStreamAbort:
		m = &MStreamAbort{StreamID: d.U64(), Lane: d.U64()}
	default:
		return nil, fmt.Errorf("cephmsg: unknown message type %#04x", uint16(t))
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("cephmsg: decoding %v: %w", t, err)
	}
	return m, nil
}
