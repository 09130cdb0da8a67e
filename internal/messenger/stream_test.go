package messenger

import (
	"testing"

	"doceph/internal/cephmsg"
	"doceph/internal/sim"
	"doceph/internal/wire"
)

func bigPayload(n int) *wire.Bufferlist {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*131 + i>>9)
	}
	return wire.FromBytes(b)
}

// An enabled sender talking to a sink-less receiver must be invisible to
// the dispatcher: the reconstructed op arrives whole and byte-identical.
func TestStreamReassemblyTransparent(t *testing.T) {
	r := newRig(Config{WireEncode: true,
		Stream: StreamConfig{Enable: true, ChunkBytes: 64 << 10, Window: 2}})
	payload := bigPayload(500_000)
	wantCRC := payload.CRC32C()
	var got *cephmsg.MOSDOp
	r.b.SetDispatcher(func(p *sim.Proc, src string, m cephmsg.Message) {
		got = m.(*cephmsg.MOSDOp)
	})
	r.env.Spawn("starter", func(p *sim.Proc) {
		r.a.Send("ent.b", &cephmsg.MOSDOp{
			Tid: 9, Object: "obj", Op: cephmsg.OpWrite,
			Length: uint64(payload.Length()), Data: payload,
		})
	})
	r.run(t, sim.Second)
	if got == nil {
		t.Fatal("op never dispatched")
	}
	if got.Tid != 9 || got.Object != "obj" || got.Data.Length() != payload.Length() {
		t.Fatalf("reconstructed op mismatch: %+v", got)
	}
	if got.Data.CRC32C() != wantCRC {
		t.Fatalf("payload corrupted: crc=%08x want %08x", got.Data.CRC32C(), wantCRC)
	}
	wantChunks := int64((500_000 + 64<<10 - 1) / (64 << 10))
	as, bs := r.a.Stats(), r.b.Stats()
	if as.StreamsSent != 1 || as.StreamChunksSent != wantChunks {
		t.Fatalf("sender stats: %+v want 1 stream / %d chunks", as, wantChunks)
	}
	if bs.StreamsRecv != 1 || bs.StreamChunksRecv != wantChunks {
		t.Fatalf("receiver stats: %+v want 1 stream / %d chunks", bs, wantChunks)
	}
}

// Payloads at or below the chunk size must bypass streaming entirely.
func TestStreamSmallWritesBypass(t *testing.T) {
	r := newRig(Config{Stream: StreamConfig{Enable: true, ChunkBytes: 1 << 20}})
	var got bool
	r.b.SetDispatcher(func(p *sim.Proc, src string, m cephmsg.Message) {
		if _, ok := m.(*cephmsg.MOSDOp); ok {
			got = true
		}
	})
	r.env.Spawn("starter", func(p *sim.Proc) {
		r.a.Send("ent.b", &cephmsg.MOSDOp{Tid: 1, Object: "o", Op: cephmsg.OpWrite,
			Data: wire.FromBytes(make([]byte, 1<<20))})
	})
	r.run(t, sim.Second)
	if !got {
		t.Fatal("op not delivered")
	}
	if s := r.a.Stats(); s.StreamsSent != 0 {
		t.Fatalf("small write was streamed: %+v", s)
	}
}

// testSink hands every accepted stream to a consumer goroutine that records
// chunk arrivals and paces credits explicitly.
type testSink struct {
	env     *sim.Env
	hold    bool // withhold credits until released
	release *sim.Event

	chunks   []int
	lists    []*wire.Bufferlist
	total    int64
	ended    bool
	aborted  bool
	accepted int
}

func (s *testSink) OpenStream(src string, open *cephmsg.MStreamOpen) *InStream {
	s.accepted++
	in := new(InStream)
	s.env.Spawn("sink-consumer", func(p *sim.Proc) {
		for {
			data, done, aborted := in.Next(p)
			if done {
				s.ended = true
				return
			}
			if aborted {
				s.aborted = true
				return
			}
			s.chunks = append(s.chunks, data.Length())
			s.lists = append(s.lists, data)
			s.total += int64(data.Length())
			if s.hold {
				s.release.Wait(p)
			}
			in.Credit(new(cephmsg.MStreamCredit))
		}
	})
	return in
}

// With a sink installed, chunks arrive incrementally and the consumer sees
// every byte exactly once.
func TestStreamSinkIncrementalDelivery(t *testing.T) {
	r := newRig(Config{Stream: StreamConfig{Enable: true, ChunkBytes: 100_000, Window: 3}})
	sink := &testSink{env: r.env}
	r.b.SetStreamSink(sink)
	r.b.SetDispatcher(func(p *sim.Proc, src string, m cephmsg.Message) {
		t.Errorf("unexpected dispatch of %T in sink mode", m)
	})
	payload := bigPayload(450_000)
	r.env.Spawn("starter", func(p *sim.Proc) {
		r.a.Send("ent.b", &cephmsg.MOSDOp{Tid: 3, Object: "o", Op: cephmsg.OpWrite,
			Length: 450_000, Data: payload})
	})
	r.run(t, sim.Second)
	if sink.accepted != 1 || !sink.ended || sink.aborted {
		t.Fatalf("sink state: %+v", sink)
	}
	if len(sink.chunks) != 5 || sink.total != 450_000 {
		t.Fatalf("chunks=%v total=%d", sink.chunks, sink.total)
	}
	for i, n := range sink.chunks {
		want := 100_000
		if i == 4 {
			want = 50_000
		}
		if n != want {
			t.Fatalf("chunk %d: %d bytes, want %d", i, n, want)
		}
	}
}

// A consumer that withholds credits must stall the sender at exactly the
// window: that is the backpressure bound on staging memory.
func TestStreamCreditWindowBoundsInFlight(t *testing.T) {
	const window = 3
	r := newRig(Config{Stream: StreamConfig{Enable: true, ChunkBytes: 10_000, Window: window}})
	sink := &testSink{env: r.env, hold: true, release: sim.NewEvent()}
	r.b.SetStreamSink(sink)
	payload := bigPayload(100_000) // 10 chunks
	r.env.Spawn("starter", func(p *sim.Proc) {
		r.a.Send("ent.b", &cephmsg.MOSDOp{Tid: 4, Object: "o", Op: cephmsg.OpWrite,
			Length: 100_000, Data: payload})
	})
	// At a virtual instant well past the stall, exactly `window` chunks
	// must have left the sender; then release the consumer and let the
	// stream run to completion.
	r.env.Spawn("checker", func(p *sim.Proc) {
		p.Wait(100 * sim.Millisecond)
		if s := r.a.Stats(); s.StreamChunksSent != window {
			t.Errorf("sender put %d chunks in flight, window is %d", s.StreamChunksSent, window)
		}
		sink.release.Fire()
	})
	r.run(t, sim.Second)
	if !sink.ended || sink.total != 100_000 {
		t.Fatalf("after release: ended=%v total=%d", sink.ended, sink.total)
	}
}

// MRepOp writes stream too (the replica fan-out path), and an explicitly
// opened stream delivers into the sink with the inner op intact.
func TestStreamRepOpViaOpenStream(t *testing.T) {
	r := newRig(Config{Stream: StreamConfig{Enable: true, ChunkBytes: 50_000, Window: 2}})
	sink := &testSink{env: r.env}
	r.b.SetStreamSink(sink)
	r.b.SetDispatcher(func(p *sim.Proc, src string, m cephmsg.Message) {})
	payload := bigPayload(120_000)
	r.env.Spawn("starter", func(p *sim.Proc) {
		out := r.a.OpenStream("ent.b", &cephmsg.MRepOp{
			Tid: 7, PGID: 2, Object: "o", Op: cephmsg.OpWrite,
		}, int64(payload.Length()))
		out.Write(p, payload)
		out.Close(p)
	})
	r.run(t, sim.Second)
	if sink.accepted != 1 || !sink.ended || sink.total != 120_000 {
		t.Fatalf("sink state: accepted=%d ended=%v total=%d",
			sink.accepted, sink.ended, sink.total)
	}
}

// A Write that fits one chunk — what the primary does with each chunk it
// forwards — sends the caller's list itself, which the aliasing contract allows
// (no holder writes to a list it was handed; TestBufferlistAliasingContract);
// a longer one sends views of it.
func TestStreamWholeChunkWriteSendsCallerList(t *testing.T) {
	r := newRig(Config{Stream: StreamConfig{Enable: true, ChunkBytes: 10_000, Window: 4}})
	sink := &testSink{env: r.env}
	r.b.SetStreamSink(sink)
	whole, long := bigPayload(10_000), bigPayload(25_000)
	r.env.Spawn("starter", func(p *sim.Proc) {
		out := r.a.OpenStream("ent.b", &cephmsg.MRepOp{Tid: 7, PGID: 2, Object: "o", Op: cephmsg.OpWrite}, 35_000)
		out.Write(p, whole)
		out.Write(p, long)
		out.Close(p)
	})
	r.run(t, sim.Second)
	if !sink.ended || len(sink.lists) != 4 || sink.lists[0] != whole {
		t.Fatalf("ended=%v, %d chunks; want the one-chunk write's own list first", sink.ended, len(sink.lists))
	}
	for i, bl := range sink.lists[1:] {
		if bl == long || !bl.Equal(long.SubList(i*10_000, min(10_000, 25_000-i*10_000))) {
			t.Fatalf("chunk %d of the long write is not a view of its piece", i+1)
		}
	}
}

// Abort mid-stream surfaces as an aborted InStream and drops partial state;
// a later stream on the same connection still works.
func TestStreamAbortThenReuse(t *testing.T) {
	r := newRig(Config{Stream: StreamConfig{Enable: true, ChunkBytes: 10_000, Window: 8}})
	sink := &testSink{env: r.env}
	r.b.SetStreamSink(sink)
	r.b.SetDispatcher(func(p *sim.Proc, src string, m cephmsg.Message) {})
	r.env.Spawn("starter", func(p *sim.Proc) {
		out := r.a.OpenStream("ent.b", &cephmsg.MOSDOp{
			Tid: 1, Object: "o", Op: cephmsg.OpWrite,
		}, 50_000)
		out.Write(p, bigPayload(20_000))
		out.Abort(p)
		// Second, clean stream.
		out2 := r.a.OpenStream("ent.b", &cephmsg.MOSDOp{
			Tid: 2, Object: "o2", Op: cephmsg.OpWrite,
		}, 30_000)
		out2.Write(p, bigPayload(30_000))
		out2.Close(p)
	})
	r.run(t, sim.Second)
	if !sink.aborted {
		t.Fatal("abort not surfaced")
	}
	if !sink.ended || sink.accepted != 2 {
		t.Fatalf("second stream: ended=%v accepted=%d", sink.ended, sink.accepted)
	}
	if s := r.a.Stats(); s.StreamAborts != 1 {
		t.Fatalf("StreamAborts=%d want 1", s.StreamAborts)
	}
}
