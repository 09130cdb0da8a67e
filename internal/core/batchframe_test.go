package core

import (
	"testing"

	"doceph/internal/wire"
)

// frameOf frames ops into a list of its own.
func frameOf(ops []*pendingTxn) *wire.Bufferlist {
	return encodeBatchFrame(ops, nil, &wire.Bufferlist{})
}

// frameBytes builds a valid frame over the given (reqID, txnSeq, payload)
// triples and returns its flat encoding.
func frameBytes(ops []*pendingTxn) []byte {
	return frameOf(ops).Bytes()
}

// newBatchOp is what the batcher queues: a pendingTxn holding its frame.
func newBatchOp(reqID, txnSeq uint64, payload *wire.Bufferlist) *pendingTxn {
	op := &pendingTxn{reqID: reqID, txnSeq: txnSeq}
	op.frame.Init().AppendBufferlist(payload)
	return op
}

func testOps(n int, payloadLen int) []*pendingTxn {
	ops := make([]*pendingTxn, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, newBatchOp(uint64(100+i), uint64(200+i), seeded(payloadLen, byte(i))))
	}
	return ops
}

// mqInterleavedOps builds the op mix a multi-queue flush produces when
// several requests are in flight at once: nreq requests round-robin through
// the frame, each contributing perReq ops with its own txnSeq progression
// and a payload size that differs per request.
func mqInterleavedOps(nreq, perReq int) []*pendingTxn {
	ops := make([]*pendingTxn, 0, nreq*perReq)
	seq := make([]uint64, nreq)
	for round := 0; round < perReq; round++ {
		for r := 0; r < nreq; r++ {
			seq[r]++
			ops = append(ops, newBatchOp(uint64(1+r), seq[r], seeded(32<<r, byte(r*16+round))))
		}
	}
	return ops
}

// mqQueueLocalOps builds a frame as one queue of a queues-wide engine would
// carry it under ReqID-hash steering: every ReqID is congruent to q mod
// queues, so the frame covers a strided slice of the request space.
func mqQueueLocalOps(queues, q, n int) []*pendingTxn {
	ops := make([]*pendingTxn, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, newBatchOp(uint64(q+(i+1)*queues), uint64(1+i), seeded(64+i*96, byte(q*32+i))))
	}
	return ops
}

// segmentedBL rebuilds raw as a multi-segment Bufferlist so the decoder's
// cross-segment gather path is exercised too.
func segmentedBL(raw []byte, segLen int) *wire.Bufferlist {
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

func TestBatchFrameRoundTrip(t *testing.T) {
	for _, tc := range []struct{ n, payloadLen int }{
		{1, 100}, {3, 4 << 10}, {maxBatchOps, 0}, {7, 1},
	} {
		ops := testOps(tc.n, tc.payloadLen)
		raw := frameBytes(ops)
		for _, segLen := range []int{len(raw) + 1, 13} {
			entries, err := decodeBatchFrame(segmentedBL(raw, segLen), nil)
			if err != nil {
				t.Fatalf("n=%d seg=%d: %v", tc.n, segLen, err)
			}
			if len(entries) != tc.n {
				t.Fatalf("n=%d: decoded %d entries", tc.n, len(entries))
			}
			for i, en := range entries {
				if en.reqID != ops[i].reqID || en.txnSeq != ops[i].txnSeq ||
					!en.payload.Equal(&ops[i].frame.Bufferlist) {
					t.Fatalf("entry %d mismatch", i)
				}
			}
		}
	}
}

func TestBatchFrameZeroCopyEncode(t *testing.T) {
	ops := testOps(4, 8<<10)
	frame := frameOf(ops)
	// The payload segments must be shared into the frame, not copied: the
	// frame has at least one segment per payload beyond the header scratch.
	if frame.Segments() < len(ops) {
		t.Fatalf("frame has %d segments for %d payloads — payloads were copied",
			frame.Segments(), len(ops))
	}
}

func TestDecodeBatchFrameRejectsMalformed(t *testing.T) {
	valid := frameBytes(testOps(2, 64))
	corrupt := func(mut func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		mut(b)
		return b
	}
	cases := map[string][]byte{
		"empty":          {},
		"short magic":    valid[:3],
		"bad magic":      corrupt(func(b []byte) { b[0] ^= 0xff }),
		"zero count":     corrupt(func(b []byte) { b[4], b[5], b[6], b[7] = 0, 0, 0, 0 }),
		"huge count":     corrupt(func(b []byte) { b[4], b[5], b[6], b[7] = 0xff, 0xff, 0xff, 0xff }),
		"count past end": corrupt(func(b []byte) { b[4] = 200 }),
		"truncated body": valid[:len(valid)-5],
		"payload len overflow": corrupt(func(b []byte) {
			// First entry's payloadLen field (offset 8+16).
			b[24], b[25], b[26], b[27] = 0xff, 0xff, 0xff, 0x7f
		}),
		"trailing garbage": append(append([]byte(nil), valid...), 0xde, 0xad),
	}
	for name, raw := range cases {
		for _, segLen := range []int{len(raw) + 1, 5} {
			if _, err := decodeBatchFrame(segmentedBL(raw, segLen), nil); err == nil {
				t.Errorf("%s (seg %d): decoded without error", name, segLen)
			}
		}
	}
	if _, err := decodeBatchFrame(nil, nil); err == nil {
		t.Error("nil bufferlist decoded without error")
	}
}

// TestDecodeBatchFrameIntoCallerArray: the host's poller unpacks every frame
// into one array it keeps. A frame that fits is decoded in place, and one that
// fails part-way leaves no payload view behind in it.
func TestDecodeBatchFrameIntoCallerArray(t *testing.T) {
	arr := make([]batchEntry, 0, 4)
	entries, err := decodeBatchFrame(frameOf(testOps(3, 64)), arr)
	if err != nil || len(entries) != 3 || &entries[0] != &arr[:1][0] {
		t.Fatalf("decoded %d entries (err %v) outside the caller's array", len(entries), err)
	}
	clear(entries) // as the poller does once it has dispatched them
	valid := frameBytes(testOps(3, 64))
	if _, err := decodeBatchFrame(wire.FromBytes(valid[:len(valid)-5]), arr); err == nil {
		t.Fatal("truncated frame decoded without error")
	}
	for i, en := range arr[:cap(arr)] {
		if en.payload != nil {
			t.Fatalf("entry %d of the caller's array still holds a payload after a failed decode", i)
		}
	}
}

func TestTxnDoneBatchRoundTrip(t *testing.T) {
	in := []txnDoneEntry{
		{reqID: 1, code: rcOK, hostNanos: 123456},
		{reqID: 99, code: rcIO, hostNanos: 0},
		{reqID: 7, code: rcNotFound, hostNanos: -1},
	}
	out, err := decodeTxnDoneBatch(encodeTxnDoneBatch(in), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len=%d", len(out))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("entry %d: %+v != %+v", i, out[i], in[i])
		}
	}
	// Malformed variants error.
	raw := encodeTxnDoneBatch(in).Bytes()
	for name, bad := range map[string][]byte{
		"truncated": raw[:len(raw)-3],
		"empty":     {},
		"zero":      {0, 0, 0, 0},
		"huge":      {0xff, 0xff, 0xff, 0xff},
		"trailing":  append(append([]byte(nil), raw...), 1),
	} {
		if _, err := decodeTxnDoneBatch(wire.FromBytes(bad), nil); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// FuzzDecodeBatchFrame asserts the host-side unpack's robustness contract:
// arbitrary corrupt or truncated frames must return an error — never panic
// — whether the frame arrives contiguous or scattered across tiny segments,
// and anything that decodes must re-encode to an equivalent frame.
// Run with: go test -fuzz=FuzzDecodeBatchFrame ./internal/core
func FuzzDecodeBatchFrame(f *testing.F) {
	// Seed corpus: 1-op frame, a max-fill frame, truncated and corrupt.
	f.Add(frameBytes(testOps(1, 64)))
	f.Add(frameBytes(testOps(8, 512)))
	f.Add(frameBytes(testOps(maxBatchOps, 0)))
	valid := frameBytes(testOps(2, 32))
	f.Add(valid[:len(valid)-7])
	bad := append([]byte(nil), valid...)
	bad[0] ^= 0xff
	f.Add(bad)
	f.Add([]byte{})
	f.Add([]byte{0x44, 0x43, 0x42, 0x46}) // magic only
	// Multi-queue interleavings. With queues > 1 the batcher drains per-queue
	// flushes whose op mixes look different from the serial stream: a frame
	// holds ops from several in-flight requests with interleaved txn
	// sequences and uneven payload sizes, or only the requests that steered
	// to one queue (ReqIDs congruent mod the queue count), and frames from
	// different queues land on the wire back to back.
	f.Add(frameBytes(mqInterleavedOps(4, 3)))
	f.Add(frameBytes(mqQueueLocalOps(4, 2, 6)))
	q0 := frameBytes(mqQueueLocalOps(4, 0, 3))
	q3 := frameBytes(mqQueueLocalOps(4, 3, 3))
	f.Add(append(append([]byte(nil), q0...), q3...)) // two queue flushes concatenated
	splice := append([]byte(nil), q0...)
	copy(splice[len(splice)/2:], q3) // queue frames torn mid-entry
	f.Add(splice)
	f.Fuzz(func(t *testing.T, raw []byte) {
		segLens := []int{len(raw) + 1, 7}
		if len(raw) < 4<<10 {
			// Byte-per-segment decode is O(len^2)-ish in segment count;
			// only worth it on small inputs.
			segLens = append(segLens, 1)
		}
		for _, segLen := range segLens {
			entries, err := decodeBatchFrame(segmentedBL(raw, segLen), nil)
			if err != nil {
				continue
			}
			if len(entries) == 0 || len(entries) > maxBatchOps {
				t.Fatalf("accepted frame with %d entries", len(entries))
			}
			// Re-encode what decoded and check it decodes identically.
			ops := make([]*pendingTxn, 0, len(entries))
			var total int
			for _, en := range entries {
				total += en.payload.Length()
				ops = append(ops, newBatchOp(en.reqID, en.txnSeq, en.payload))
			}
			if total > len(raw) {
				t.Fatalf("payload bytes %d exceed input %d", total, len(raw))
			}
			again, err := decodeBatchFrame(frameOf(ops), nil)
			if err != nil {
				t.Fatalf("re-encoded frame failed to decode: %v", err)
			}
			if len(again) != len(entries) {
				t.Fatalf("re-encode changed entry count: %d != %d", len(again), len(entries))
			}
		}
	})
}
