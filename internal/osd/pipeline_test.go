package osd

import (
	"fmt"
	"testing"

	"doceph/internal/cephmsg"
	"doceph/internal/messenger"
	"doceph/internal/objstore"
	"doceph/internal/sim"
	"doceph/internal/wire"
)

// The tests in this file pin what the one mutation pipeline must keep for
// every kind of op and from both of its feeders. They speak cephmsg to the
// OSDs directly, because rados.Client folds a reply into an error and always
// finds the primary.

// rawClient is a bare client endpoint: it sends one op to the OSD it is told
// to and hands back that OSD's reply as it came.
type rawClient struct {
	msgr    *messenger.Messenger
	replies *sim.Queue[*cephmsg.MOSDOpReply]
	tid     uint64
}

func newRawClient(tc *testCluster) *rawClient {
	rc := &rawClient{msgr: tc.addClient("client.1"), replies: sim.NewQueue[*cephmsg.MOSDOpReply](tc.env)}
	rc.msgr.SetDispatcher(func(p *sim.Proc, src string, m cephmsg.Message) {
		if r, ok := m.(*cephmsg.MOSDOpReply); ok {
			rc.replies.Push(r)
		}
	})
	return rc
}

func (rc *rawClient) do(p *sim.Proc, target int32, op *cephmsg.MOSDOp) *cephmsg.MOSDOpReply {
	rc.tid++
	op.Tid, op.Src, op.Pool = rc.tid, rc.msgr.Name(), "rbd"
	rc.msgr.Send(Name(target), op)
	return rc.replies.Pop(p)
}

// subOpTap records the PayloadBytes of every MRepOp an OSD is sent, whole
// (through its dispatcher) or as the inner op of a stream (through its sink).
type subOpTap struct {
	o     *OSD
	bytes *[]int64
}

func (s subOpTap) OpenStream(src string, open *cephmsg.MStreamOpen) *messenger.InStream {
	if rm, ok := open.Inner.(*cephmsg.MRepOp); ok {
		*s.bytes = append(*s.bytes, rm.PayloadBytes())
	}
	return s.o.OpenStream(src, open)
}

func tapSubOps(tc *testCluster) *[]int64 {
	seen := new([]int64)
	for _, o := range tc.osds {
		o.msgr.SetDispatcher(func(p *sim.Proc, src string, m cephmsg.Message) {
			if rm, ok := m.(*cephmsg.MRepOp); ok {
				*seen = append(*seen, rm.PayloadBytes())
			}
			o.dispatch(p, src, m)
		})
		o.msgr.SetStreamSink(subOpTap{o: o, bytes: seen})
	}
	return seen
}

// TestMutationKindsThroughOnePipeline: every kind of replicated mutation,
// whole or streamed, leaves the replica's store equal to the primary's,
// answers with its kind's result, moves its kind's counters and sends the
// replica a sub-op carrying exactly the fields its kind uses.
func TestMutationKindsThroughOnePipeline(t *testing.T) {
	const obj = "thing"
	const chunk = 64 << 10
	small, big := payload(10_000, 3), payload(200_000, 5)
	write := func(data *wire.Bufferlist) *cephmsg.MOSDOp {
		return &cephmsg.MOSDOp{Object: obj, Op: cephmsg.OpWrite, Data: data}
	}
	base := int64(48 + len(obj)) // MRepOp.PayloadBytes with no data
	cases := []struct {
		name   string
		before *cephmsg.MOSDOp // makes what the op under test needs
		op     *cephmsg.MOSDOp
		result int32
		// Deltas on the primary, then on the replica.
		writes, deletes, bytes, streamed int64
		repBytes                         int64
		subBytes                         int64
	}{
		{name: "write whole", op: write(small),
			writes: 1, bytes: 10_000, repBytes: 10_000, subBytes: base + 10_000},
		{name: "write streamed", op: write(big),
			writes: 1, bytes: 200_000, repBytes: 200_000, streamed: 1, subBytes: base},
		{name: "delete", before: write(small), op: &cephmsg.MOSDOp{Object: obj, Op: cephmsg.OpDelete},
			deletes: 1, subBytes: base},
		{name: "delete missing", op: &cephmsg.MOSDOp{Object: obj, Op: cephmsg.OpDelete},
			result: cephmsg.ResNotFound, deletes: 1, subBytes: base},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tc := newTestClusterMsgr(t, 2, 2, 0, streamMsgrCfg(false, chunk, 2), defaultOSDCfg())
			rc := newRawClient(tc)
			subs := tapSubOps(tc)
			tc.run(t, func(p *sim.Proc) {
				m := tc.client.Map()
				pg := m.PGForObject(obj)
				acting := m.ActingSet(pg)
				pri, rep := tc.osds[acting[0]], tc.osds[acting[1]]
				if c.before != nil {
					before := *c.before
					if r := rc.do(p, pri.id, &before); r.Result != cephmsg.ResOK {
						t.Fatalf("setup op: result %d", r.Result)
					}
				}
				p0, r0 := pri.Stats(), rep.Stats()
				*subs = nil
				op := *c.op
				reply := rc.do(p, pri.id, &op)
				if reply.Result != c.result {
					t.Fatalf("result = %d, want %d", reply.Result, c.result)
				}
				if isWrite := c.op.Op == cephmsg.OpWrite; (reply.Version != 0) != isWrite {
					t.Fatalf("version = %d on a %v", reply.Version, c.op.Op)
				}
				p1, r1 := pri.Stats(), rep.Stats()
				got := []int64{p1.ClientWrites - p0.ClientWrites, p1.ClientDeletes - p0.ClientDeletes,
					p1.BytesWritten - p0.BytesWritten, p1.StreamWrites - p0.StreamWrites,
					r1.RepOpsServed - r0.RepOpsServed, r1.BytesWritten - r0.BytesWritten}
				want := []int64{c.writes, c.deletes, c.bytes, c.streamed, 1, c.repBytes}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("writes/deletes/bytes/streamed, replica ops/bytes moved by %v, want %v", got, want)
				}
				if len(*subs) != 1 || (*subs)[0] != c.subBytes {
					t.Fatalf("sub-op PayloadBytes = %v, want one of %d", *subs, c.subBytes)
				}
				// The replica holds what the primary holds: the object or its
				// absence.
				var crcs [2]uint32
				var found [2]bool
				for i, id := range acting {
					bl, err := objstore.Read(p, tc.stores[id], pgColl(pg), obj, 0, 0)
					if found[i] = err == nil; found[i] {
						crcs[i] = bl.CRC32C()
					}
				}
				if found != [2]bool{c.op.Op != cephmsg.OpDelete, c.op.Op != cephmsg.OpDelete} || crcs[0] != crcs[1] {
					t.Fatalf("stores differ: found %v, crc %x", found, crcs)
				}
				if c.op.Op == cephmsg.OpWrite && crcs[0] != c.op.Data.CRC32C() {
					t.Fatal("stored object is not the payload written")
				}
			})
		})
	}
}

// TestAdmissionGateSameFromBothFeeders: an op bounced or admitted by the
// gate gets the same result and moves the same counters whether it arrived
// whole on a worker or as a stream on an ingest proc.
func TestAdmissionGateSameFromBothFeeders(t *testing.T) {
	const obj = "gated"
	const chunk = 64 << 10
	cases := []struct {
		name       string
		minSize    int
		failPeer   bool // crash the replica and wait for the map to say so
		toReplica  bool // send to acting[1]
		result     int32
		wrong      int64
		noQuorum   int64
		degraded   int64
		mustCommit bool
	}{
		{name: "not primary", toReplica: true, result: cephmsg.ResNotPrimary, wrong: 1},
		{name: "below min_size", minSize: 2, failPeer: true, result: cephmsg.ResNoQuorum, noQuorum: 1},
		{name: "degraded", minSize: 1, failPeer: true, degraded: 1, mustCommit: true},
		{name: "accepted", minSize: 1, mustCommit: true},
	}
	for _, c := range cases {
		for _, size := range []int{10_000, 200_000} {
			streamed := size > chunk
			t.Run(fmt.Sprintf("%s/streamed=%v", c.name, streamed), func(t *testing.T) {
				tc := newTestClusterMsgr(t, 2, 2, c.minSize, streamMsgrCfg(false, chunk, 2), defaultOSDCfg())
				rc := newRawClient(tc)
				tc.run(t, func(p *sim.Proc) {
					pg := tc.client.Map().PGForObject(obj)
					acting := tc.client.Map().ActingSet(pg)
					target := tc.osds[acting[0]]
					if c.toReplica {
						target = tc.osds[acting[1]]
					}
					if c.failPeer {
						tc.osds[acting[1]].Fail()
						p.Wait(15 * sim.Second) // detection + new epoch
						if got := target.Map().ActingSet(pg); len(got) != 1 {
							t.Fatalf("acting set still %v", got)
						}
					}
					s0 := target.Stats()
					reply := rc.do(p, target.id, &cephmsg.MOSDOp{Object: obj, Op: cephmsg.OpWrite, Data: payload(size, 9)})
					if reply.Result != c.result {
						t.Fatalf("result = %d, want %d", reply.Result, c.result)
					}
					s1 := target.Stats()
					got := []int64{s1.WrongPrimary - s0.WrongPrimary, s1.NoQuorumRejects - s0.NoQuorumRejects,
						s1.DegradedWrites - s0.DegradedWrites, target.DegradedLedger()[pg]}
					want := []int64{c.wrong, c.noQuorum, c.degraded, c.degraded}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("wrong-primary/no-quorum/degraded/ledger moved by %v, want %v", got, want)
					}
					wantStreamed, wantWrites := int64(0), int64(0)
					if c.mustCommit {
						wantWrites = 1
						if streamed {
							wantStreamed = 1
						}
					}
					if s1.StreamWrites-s0.StreamWrites != wantStreamed || s1.ClientWrites-s0.ClientWrites != wantWrites {
						t.Fatalf("stream/client writes moved by %d/%d, want %d/%d", s1.StreamWrites-s0.StreamWrites,
							s1.ClientWrites-s0.ClientWrites, wantStreamed, wantWrites)
					}
					if streamed && target.msgr.Stats().StreamsRecv == 0 {
						t.Fatal("the large write did not arrive as a stream")
					}
					if _, err := objstore.Read(p, tc.stores[target.id], pgColl(pg), obj, 0, 0); (err == nil) != c.mustCommit {
						t.Fatalf("object present = %v, want %v", err == nil, c.mustCommit)
					}
				})
			})
		}
	}
}
