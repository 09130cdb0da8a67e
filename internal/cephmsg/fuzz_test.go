package cephmsg

import (
	"testing"

	"doceph/internal/wire"
)

// segmented rebuilds raw as a multi-segment Bufferlist so the Decoder's
// cross-segment gather path is exercised, not just the contiguous fast
// path.
func segmented(raw []byte, segLen int) *wire.Bufferlist {
	bl := &wire.Bufferlist{}
	for len(raw) > 0 {
		n := segLen
		if n > len(raw) {
			n = len(raw)
		}
		bl.AppendCopy(raw[:n])
		raw = raw[n:]
	}
	return bl
}

// fuzzSeeds is one valid frame per message type — the encoded golden
// corpus the fuzzer mutates into corrupt and truncated variants.
func fuzzSeeds() []Message {
	payload := wire.FromBytes([]byte("0123456789abcdef"))
	return []Message{
		&MOSDOp{Tid: 1, Epoch: 2, Src: "client.0", Pool: "benchmark_data",
			Object: "obj-1", Op: OpWrite, Offset: 0, Length: 16, Data: payload},
		&MOSDOp{Tid: 2, Epoch: 2, Src: "client.0", Pool: "p", Object: "o",
			Op: OpRead, Flags: FlagBalanceReads, Offset: 4096, Length: 16},
		&MOSDOpReply{Tid: 1, Object: "obj-1", Op: OpRead, Result: 0,
			Version: 3, Size: 16, Data: payload},
		&MRepOp{Tid: 4, Epoch: 2, PGID: 17, Object: "obj-1", Op: OpWrite,
			Offset: 0, Data: payload},
		&MRepOpReply{Tid: 4, PGID: 17, Result: 0},
		&MPing{Src: "osd.0", Stamp: 12345},
		&MPingReply{Src: "osd.1", Stamp: 12345},
		&MOSDMap{Epoch: 7, Up: []int32{0, 1}},
		&MOSDFailure{Reporter: "osd.0", Failed: 1, Epoch: 7},
		&MPGPush{Tid: 9, Epoch: 7, PGID: 3, Object: "obj-2", Version: 5,
			Force: true, Data: payload},
		&MPGPushAck{Tid: 9, PGID: 3, Object: "obj-2", Result: 0},
		&MScrub{Tid: 11, PGID: 3, Object: "obj-2"},
		&MScrubReply{Tid: 11, PGID: 3, Object: "obj-2", Exists: true,
			CRC: 0xdeadbeef, Size: 16},
		&MGetStats{Tid: 13},
		&MStatsReply{Tid: 13, Source: "osd.0", Keys: []string{"ops"},
			Values: []int64{42}},
		&MGetMap{Epoch: 7},
		&MOSDBoot{OSD: 1, Epoch: 7},
		// Stream framing. The open's inner op must carry no inline payload
		// (the strict decoder rejects smuggled data; bulk travels in chunks).
		&MStreamOpen{StreamID: 21, Total: 32, ChunkBytes: 16, Window: 2, Lane: 5,
			Inner: &MOSDOp{Tid: 21, Epoch: 2, Src: "client.0", Pool: "p",
				Object: "obj-3", Op: OpWrite, Length: 32}},
		&MStreamChunk{StreamID: 21, Seq: 0, Lane: 5, Data: payload},
		&MStreamEnd{StreamID: 21, Chunks: 2, Lane: 5},
		&MStreamCredit{StreamID: 21, Credits: 1, Lane: 5},
		&MStreamAbort{StreamID: 21, Lane: 5},
	}
}

// FuzzDecode asserts the codec's robustness contract: Decode must return
// an error — never panic, never spin — on arbitrary corrupt or truncated
// input, whether the frame arrives contiguous or scattered across tiny
// segments. Run with: go test -fuzz=FuzzDecode ./internal/cephmsg
func FuzzDecode(f *testing.F) {
	for _, m := range fuzzSeeds() {
		f.Add(Encode(m).Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add([]byte{0xff, 0xff})
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, segLen := range []int{len(raw) + 1, 7, 1} {
			m, err := Decode(segmented(raw, segLen))
			if err != nil {
				continue
			}
			if m == nil {
				t.Fatal("Decode returned nil message with nil error")
			}
			// Whatever decodes must re-encode without panicking.
			Encode(m)
		}
	})
}

// FuzzStreamAssembler drives the stream protocol state machine with an
// arbitrary frame script — interleaved streams, torn (short/oversized)
// chunks, out-of-order sequences, credit violations, ends and aborts for
// streams in any state. The contract under fuzz: never panic, report every
// violation as an error, keep the open-stream count bounded, and only
// return a fully-sized payload from a successful End.
// Run with: go test -fuzz=FuzzStreamAssembler ./internal/cephmsg
//
// Script encoding, 4 bytes per op: {opcode, streamID, argA, argB}.
//
//	opcode%6: 0=open(total=argA*8, chunk=argB, window=argA%4+1)
//	          1=chunk(seq=argA, size=argB)  2=end(chunks=argA)
//	          3=credit(n=argA)              4=abort      5=re-open dup
func FuzzStreamAssembler(f *testing.F) {
	// Clean open → in-order chunks → end.
	f.Add([]byte{
		0, 1, 2, 8, // open id1 total=16 chunk=8 window=2
		1, 1, 0, 8, // chunk seq0 size8
		3, 1, 1, 0, // credit 1
		1, 1, 1, 8, // chunk seq1 size8
		2, 1, 2, 0, // end chunks=2
	})
	// Interleaved streams with a credit violation on one of them.
	f.Add([]byte{
		0, 1, 2, 8,
		0, 2, 2, 8,
		1, 1, 0, 8,
		1, 2, 0, 8,
		1, 1, 1, 8, // id1 window exhausted: violation
		4, 2, 0, 0, // abort id2
	})
	// Torn chunks: short, oversized, wrong seq, end with wrong count.
	f.Add([]byte{
		0, 3, 4, 16,
		1, 3, 0, 0, // zero-size chunk
		1, 3, 0, 17, // oversized chunk
		1, 3, 2, 16, // out-of-order seq
		2, 3, 7, 0, // end with bogus count
	})
	f.Fuzz(func(t *testing.T, script []byte) {
		a := NewAssembler()
		a.MaxStreams = 8
		accumulate := len(script)%2 == 0
		for i := 0; i+4 <= len(script); i += 4 {
			op, id := script[i]%6, uint64(script[i+1]%4)
			argA, argB := script[i+2], script[i+3]
			switch op {
			case 0, 5:
				a.Open(&MStreamOpen{
					StreamID: id, Total: int64(argA) * 8, ChunkBytes: int64(argB),
					Window: uint32(argA%4) + 1,
					Inner:  &MOSDOp{Tid: id, Object: "o", Op: OpWrite},
				}, accumulate)
			case 1:
				data := make([]byte, int(argB))
				a.Chunk(&MStreamChunk{StreamID: id, Seq: uint32(argA),
					Data: wire.FromBytes(data)})
			case 2:
				inner, err := a.End(&MStreamEnd{StreamID: id, Chunks: uint32(argA)})
				if err == nil && inner == nil {
					t.Fatal("End returned nil inner with nil error")
				}
			case 3:
				a.Credit(id, uint32(argA))
			case 4:
				a.Abort(id)
			}
			if a.Active() > a.MaxStreams {
				t.Fatalf("open streams %d exceed bound %d", a.Active(), a.MaxStreams)
			}
		}
	})
}

// TestDecodeSeedsRoundTrip pins that every fuzz seed actually decodes
// back to its own type — guarding the corpus itself against rot.
func TestDecodeSeedsRoundTrip(t *testing.T) {
	for _, m := range fuzzSeeds() {
		enc := Encode(m)
		for _, segLen := range []int{int(enc.Length()), 3} {
			got, err := Decode(segmented(enc.Bytes(), segLen))
			if err != nil {
				t.Fatalf("%T (seg %d): %v", m, segLen, err)
			}
			if got.MsgType() != m.MsgType() {
				t.Errorf("%T: round-tripped to type %v", m, got.MsgType())
			}
		}
	}
}
