package osd

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"doceph/internal/cephmsg"
	"doceph/internal/messenger"
	"doceph/internal/objstore"
	"doceph/internal/rados"
	"doceph/internal/sim"
	"doceph/internal/trace"
)

// streamMsgrCfg enables the chunk-pipelined transport with a test-sized
// chunk so modest payloads exercise multi-chunk streams.
func streamMsgrCfg(wireEncode bool, chunk int64, window int) messenger.Config {
	cfg := messenger.Config{WireEncode: wireEncode}
	cfg.Stream.Enable = true
	cfg.Stream.ChunkBytes = chunk
	cfg.Stream.Window = window
	return cfg
}

func defaultOSDCfg() Config {
	return Config{HeartbeatInterval: sim.Second, Monitor: "mon.0"}
}

// TestStreamedWriteReplicatesAndReadsBack drives multi-chunk writes through
// the streaming ingest path end to end: the primary must count them as
// streamed, fan the chunks out to the replica as a stream, and every acting
// store must hold the full object bytes.
func TestStreamedWriteReplicatesAndReadsBack(t *testing.T) {
	for _, wireEncode := range []bool{false, true} {
		t.Run(fmt.Sprintf("wire=%v", wireEncode), func(t *testing.T) {
			tc := newTestClusterMsgr(t, 2, 2, 0, streamMsgrCfg(wireEncode, 64<<10, 2), defaultOSDCfg())
			tc.run(t, func(p *sim.Proc) {
				data := payload(300_000, 7) // 5 chunks at 64KB
				for i := 0; i < 3; i++ {
					obj := fmt.Sprintf("stream-obj-%d", i)
					if err := tc.client.Write(p, obj, data); err != nil {
						t.Fatalf("write %s: %v", obj, err)
					}
					got, err := tc.client.Read(p, obj, 0, 0)
					if err != nil || !got.Equal(data) {
						t.Fatalf("read-back %s: err=%v", obj, err)
					}
					m := tc.client.Map()
					pg := m.PGForObject(obj)
					for _, id := range m.ActingSet(pg) {
						bl, err := objstore.Read(p, tc.stores[id], fmt.Sprintf("pg.%d", pg), obj, 0, 0)
						if err != nil || bl.CRC32C() != data.CRC32C() {
							t.Fatalf("osd.%d %s: err=%v", id, obj, err)
						}
					}
				}
				var streamed, reps int64
				for _, o := range tc.osds {
					streamed += o.Stats().StreamWrites
					reps += o.Stats().RepOpsServed
				}
				if streamed != 3 {
					t.Fatalf("stream_writes=%d, want 3", streamed)
				}
				if reps != 3 {
					t.Fatalf("rep_ops_served=%d, want 3", reps)
				}
			})
		})
	}
}

// TestStreamedOverwriteLastWins pins ordering through the per-chunk
// transaction path: sequential streamed overwrites of one object must leave
// the last payload, on the primary and the replica alike.
func TestStreamedOverwriteLastWins(t *testing.T) {
	tc := newTestClusterMsgr(t, 2, 2, 0, streamMsgrCfg(false, 32<<10, 4), defaultOSDCfg())
	tc.run(t, func(p *sim.Proc) {
		var last byte
		for seed := byte(1); seed <= 4; seed++ {
			if err := tc.client.Write(p, "hot", payload(200_000, seed)); err != nil {
				t.Fatalf("write %d: %v", seed, err)
			}
			last = seed
		}
		want := payload(200_000, last)
		m := tc.client.Map()
		pg := m.PGForObject("hot")
		for _, id := range m.ActingSet(pg) {
			bl, err := objstore.Read(p, tc.stores[id], fmt.Sprintf("pg.%d", pg), "hot", 0, 0)
			if err != nil || bl.CRC32C() != want.CRC32C() {
				t.Fatalf("osd.%d: stale content after overwrites (err=%v)", id, err)
			}
		}
	})
}

// TestStreamedWriteBelowMinSizeRejected exercises the streaming reject
// path: the primary must drain and credit the whole stream (so the client
// pump finishes) and then reply with the quorum error — no partial object
// may land.
func TestStreamedWriteBelowMinSizeRejected(t *testing.T) {
	ocfg := defaultOSDCfg()
	ocfg.RecoveryMaxPGs = 1
	tc := newTestClusterMsgr(t, 2, 2, 2, streamMsgrCfg(false, 64<<10, 2), ocfg)
	tc.run(t, func(p *sim.Proc) {
		if err := tc.client.Write(p, "obj", payload(200_000, 3)); err != nil {
			t.Fatal(err)
		}
		tc.osds[1].Fail()
		p.Wait(15 * sim.Second)
		err := tc.client.Write(p, "obj", payload(200_000, 4))
		if !errors.Is(err, rados.ErrNoQuorum) {
			t.Fatalf("streamed write below min_size: err = %v, want ErrNoQuorum", err)
		}
		if tc.osds[0].Stats().NoQuorumRejects == 0 {
			t.Fatal("primary recorded no quorum rejections")
		}
		// The rejected stream must not have mutated the object.
		m := tc.client.Map()
		pg := m.PGForObject("obj")
		bl, err := objstore.Read(p, tc.stores[0], fmt.Sprintf("pg.%d", pg), "obj", 0, 0)
		if err != nil || bl.CRC32C() != payload(200_000, 3).CRC32C() {
			t.Fatalf("rejected stream left partial content (err=%v)", err)
		}
	})
}

// TestStreamedSmallWriteBypasses: one-chunk payloads must use the plain
// store-and-forward path even with streaming on.
func TestStreamedSmallWriteBypasses(t *testing.T) {
	tc := newTestClusterMsgr(t, 2, 2, 0, streamMsgrCfg(false, 64<<10, 2), defaultOSDCfg())
	tc.run(t, func(p *sim.Proc) {
		if err := tc.client.Write(p, "small", payload(10_000, 9)); err != nil {
			t.Fatal(err)
		}
		for _, o := range tc.osds {
			if n := o.Stats().StreamWrites; n != 0 {
				t.Fatalf("%d writes streamed below the chunk size", n)
			}
		}
	})
}

// streamAllocCeiling is one above what a streamed write of a new 16 MiB
// object allocates today, rounded up (31.88). Per write: the client's eight
// chunk views of the payload (8; the primary forwards each chunk it received
// as it is); the new object's extent table growing three times on each side
// (6) and its onode on each side (2); the client's pump and the primary's
// forward, each an OutStream and its chunk-frame table (4); the primary's and
// the replica's ingest, each a streamIngest and its chunk table, whose entries
// hold the Results their commits complete (4); their threads (2, one per
// stream: the CPU tells threads apart by pointer); the first blocking Next on
// each InStream's queue (2); the client's MOSDOp and the stream's copy of it
// without the data (2); the primary's mutation (1); a credit window's waiter
// ring (1); and about 0.9 for the collections' object indexes growing.
// BlueStore's txcs and the client's call come from free lists, and its extents
// view the chunks from the table the object holds.
// The next record somebody adds to the streamed write fails here, not in a
// benchmark.
const streamAllocCeiling = 33

// TestStreamedWriteAllocationBudget holds one streamed write — the client's
// pump, the primary's ingest and forward, the replica's ingest, both acks — of
// a new 16 MiB object to its allocation budget on the two-OSD rig, streaming
// on at the default chunk and window, heartbeats off.
func TestStreamedWriteAllocationBudget(t *testing.T) {
	cfg := messenger.Config{}
	cfg.Stream.Enable = true
	tc := newTestClusterMsgr(t, 2, 2, 0, cfg, Config{})
	const warm, writes = 512, 64
	names := make([]string, warm+writes)
	for i := range names {
		names[i] = fmt.Sprintf("budget-%d", i)
	}
	data := payload(16<<20, 1)
	tc.run(t, func(p *sim.Proc) {
		write := func(first, n int) {
			for _, obj := range names[first : first+n] {
				if err := tc.client.Write(p, obj, data); err != nil {
					t.Fatalf("%s: %v", obj, err)
				}
			}
		}
		write(0, warm) // pools, maps, queues and every PG's lock reach their size
		for _, o := range tc.osds {
			if len(o.pgLocks) != int(o.curMap.PGCount) {
				t.Fatalf("%s: warm-up touched %d of %d PGs", o.name, len(o.pgLocks), o.curMap.PGCount)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		write(warm, writes)
		runtime.ReadMemStats(&after)
		per := float64(after.Mallocs-before.Mallocs) / writes
		t.Logf("%.2f allocations, %.0f B per streamed write", per, float64(after.TotalAlloc-before.TotalAlloc)/writes)
		if per > streamAllocCeiling {
			t.Fatalf("%.2f allocations per streamed write, want at most %d", per, streamAllocCeiling)
		}
		var streamed int64
		for _, o := range tc.osds {
			streamed += o.Stats().StreamWrites
		}
		if streamed != warm+writes {
			t.Fatalf("%d of %d writes streamed", streamed, warm+writes)
		}
	})
}

// TestStreamChunksPastTheFirstTable streams twelve chunks of 25,000 bytes — a
// sender cutting finer than the 64 KiB chunk size — into ingests whose chunk
// tables the open frame sized for five, on the primary and, forwarded chunk
// for chunk, on the replica. The store completes each chunk's Result where the
// chunk's entry is, so the entries may not move as the ingest goes on in
// further tables: every chunk's stream.stage span, which ends as its credit
// goes back, ends at the instant its own BlueStore commit did, and, with every
// commit on the primary failing, the error reaches the end of the ingest and
// the client's reply.
func TestStreamChunksPastTheFirstTable(t *testing.T) {
	const pieces, piece = 12, 25_000
	for _, failing := range []bool{false, true} {
		tc := newTestClusterMsgr(t, 2, 2, 0, streamMsgrCfg(false, 64<<10, 2), Config{})
		tr := trace.New(tc.env)
		for i, o := range tc.osds {
			o.SetTracer(tr)
			tc.stores[i].SetTracer(tr)
		}
		m := tc.addClient("client.9")
		var reply *cephmsg.MOSDOpReply
		var replied sim.Event
		m.SetDispatcher(func(_ *sim.Proc, _ string, msg cephmsg.Message) {
			if r, ok := msg.(*cephmsg.MOSDOpReply); ok {
				reply = keepReply(r)
				replied.Fire()
			}
		})
		data := payload(pieces*piece, 5)
		tc.run(t, func(p *sim.Proc) {
			pg := tc.client.Map().PGForObject("fine")
			primary := tc.client.Map().Primary(pg)
			if failing {
				tc.osds[primary].ready.Wait(p) // the PG collections exist
				tc.stores[primary].SetWriteErrorProb(1)
			}
			root := tr.Start(0, 1, trace.StageOp, "fine")
			out := m.OpenStream(Name(primary), &cephmsg.MOSDOp{Tid: 1, Src: "client.9", Pool: "rbd", Object: "fine",
				Op: cephmsg.OpWrite, Length: uint64(data.Length()), TraceCtx: uint64(root)}, int64(data.Length()))
			for i := 0; i < pieces; i++ {
				out.Write(p, data.SubList(i*piece, piece))
			}
			out.Close(p)
			replied.Wait(p)
			p.Wait(sim.Second) // the replica's last commits land
		})
		if want := map[bool]int32{false: cephmsg.ResOK, true: cephmsg.ResError}[failing]; reply == nil || reply.Result != want {
			t.Fatalf("failing %v: reply %+v, want result %d", failing, reply, want)
		}
		spans := tr.Spans()
		kvEnd := map[trace.SpanID]sim.Time{} // each chunk's commit, by its stage span
		for _, sp := range spans {
			if sp.Stage == trace.StageKV {
				kvEnd[sp.Parent] = sp.End
			}
		}
		stages := 0
		for _, sp := range spans {
			if sp.Stage != trace.StageStreamStage {
				continue
			}
			stages++
			if end, ok := kvEnd[sp.ID]; !ok || end != sp.End {
				t.Fatalf("failing %v: chunk span %d ended at %v, its commit at %v (found %v)", failing, sp.ID, sp.End, end, ok)
			}
		}
		if stages != 2*pieces {
			t.Fatalf("failing %v: %d chunk spans ended, want %d on each OSD", failing, stages, pieces)
		}
		for _, o := range tc.osds {
			if n := o.Stats().StreamWrites + o.Stats().RepOpsServed; n != 1 {
				t.Fatalf("failing %v: %s ingested %d streams, want 1", failing, o.name, n)
			}
		}
	}
}
