package wire

import (
	"bytes"
	"runtime"
	"testing"
)

// TestBufferlistAliasingContract pins down the sharing-vs-copying contract
// documented on Bufferlist: which operations alias the caller's storage and
// which isolate it. The zero-copy data plane (messenger framing, OSD
// replication, BlueStore blobs) is built on exactly these guarantees, so a
// behavior change here is a correctness bug even if every codec test still
// passes.
func TestBufferlistAliasingContract(t *testing.T) {
	t.Run("AppendShares", func(t *testing.T) {
		src := []byte{1, 2, 3}
		bl := &Bufferlist{}
		bl.Append(src)
		src[0] = 99
		if got := bl.Bytes(); !bytes.Equal(got, []byte{99, 2, 3}) {
			t.Fatalf("Append must share storage; got %v", got)
		}
	})

	t.Run("AppendCopyIsolates", func(t *testing.T) {
		src := []byte{1, 2, 3}
		bl := &Bufferlist{}
		bl.AppendCopy(src)
		src[0] = 99
		if got := bl.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
			t.Fatalf("AppendCopy must isolate; got %v", got)
		}
	})

	t.Run("AppendBufferlistShares", func(t *testing.T) {
		seg := []byte{4, 5}
		inner := FromBytes(seg)
		outer := &Bufferlist{}
		outer.AppendBufferlist(inner)
		seg[1] = 50
		if got := outer.Bytes(); !bytes.Equal(got, []byte{4, 50}) {
			t.Fatalf("AppendBufferlist must share storage; got %v", got)
		}
	})

	t.Run("SubListShares", func(t *testing.T) {
		seg := []byte{0, 1, 2, 3, 4}
		view := FromBytes(seg).SubList(1, 3)
		seg[2] = 77
		if got := view.Bytes(); !bytes.Equal(got, []byte{1, 77, 3}) {
			t.Fatalf("SubList must be a view; got %v", got)
		}
	})

	t.Run("CloneIsolates", func(t *testing.T) {
		seg := []byte{8, 9}
		cl := FromBytes(seg).Clone()
		seg[0] = 0
		if got := cl.Bytes(); !bytes.Equal(got, []byte{8, 9}) {
			t.Fatalf("Clone must deep-copy; got %v", got)
		}
	})

	t.Run("ContiguousBytesSharesSingleSegment", func(t *testing.T) {
		seg := []byte{1, 2}
		b := FromBytes(seg).ContiguousBytes()
		seg[0] = 42
		if b[0] != 42 {
			t.Fatal("ContiguousBytes must share a single-segment list's storage")
		}
	})

	// The framing path: BufferlistField in Bufferlist-assembly mode shares
	// the payload's segments, and header bytes flushed to the output stay
	// intact even though later fields keep appending into the same scratch
	// array (append never rewrites below its starting length).
	t.Run("EncoderBLSharesPayload", func(t *testing.T) {
		payload := []byte{10, 20, 30}
		e := NewEncoderBL(make([]byte, 0, 64))
		e.U16(0x0102)
		e.BufferlistField(FromBytes(payload))
		e.U32(0xdeadbeef) // trailer continues in the same scratch array
		out := e.Bufferlist()

		payload[0] = 111
		d := NewDecoderBL(out)
		if v := d.U16(); v != 0x0102 {
			t.Fatalf("header corrupted: %#x", v)
		}
		field := d.BufferlistField()
		if got := field.Bytes(); !bytes.Equal(got, []byte{111, 20, 30}) {
			t.Fatalf("payload must be shared through the encoder; got %v", got)
		}
		if v := d.U32(); v != 0xdeadbeef {
			t.Fatalf("trailer corrupted: %#x", v)
		}
		if d.Err() != nil {
			t.Fatal(d.Err())
		}
	})

	// A view of up to three segments carries its segment table in its own
	// allocation, not in its parent's: it outlives the parent.
	t.Run("CoAllocatedViewOutlivesParent", func(t *testing.T) {
		parent := NewBufferlist([]byte{1, 2, 3, 4}, []byte{5, 6, 7, 8})
		view, joined := parent.SubList(2, 4), Concat([]*Bufferlist{parent, FromBytes([]byte{9})})
		parent = nil
		for i := 0; i < 3; i++ {
			runtime.GC()
			for j := 0; j < 1000; j++ { // reuse whatever was freed
				sink = NewBufferlist(make([]byte, 8), make([]byte, 8))
			}
		}
		if got := view.Bytes(); !bytes.Equal(got, []byte{3, 4, 5, 6}) || view.Segments() != 2 {
			t.Fatalf("view after its parent was collected: %v in %d segments", got, view.Segments())
		}
		if got := joined.Bytes(); !bytes.Equal(got, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}) {
			t.Fatalf("joined list after its first part was collected: %v", got)
		}
	})

	// Appending past the co-allocated slots moves the table to a grown one,
	// like any append: lists built from the first one keep what they had.
	t.Run("GrowingPastTheSlotsLeavesOtherListsAlone", func(t *testing.T) {
		first := FromBytes([]byte{1, 2})
		view := first.SubList(0, 2)
		second := Sized(2)
		second.AppendBufferlist(first)
		first.Append([]byte{3})
		first.AppendBufferlist(NewBufferlist([]byte{4}, []byte{5}, []byte{6}))
		second.Append([]byte{7})
		second.Append([]byte{8}) // past second's own two slots
		if got := first.Bytes(); !bytes.Equal(got, []byte{1, 2, 3, 4, 5, 6}) || first.Segments() != 5 {
			t.Fatalf("grown list: %v in %d segments", got, first.Segments())
		}
		if got := second.Bytes(); !bytes.Equal(got, []byte{1, 2, 7, 8}) || second.Segments() != 3 {
			t.Fatalf("second list: %v in %d segments", got, second.Segments())
		}
		if got := view.Bytes(); !bytes.Equal(got, []byte{1, 2}) || view.Segments() != 1 {
			t.Fatalf("view: %v in %d segments", got, view.Segments())
		}
	})

	// An embedded Inline1 is reused by its record: Init empties it.
	t.Run("Inline1Reinitialised", func(t *testing.T) {
		var rec struct {
			bl  Inline1
			buf [4]byte
		}
		for i := byte(0); i < 2; i++ {
			rec.buf = [4]byte{i, i, i, i}
			bl := rec.bl.Init()
			bl.Append(rec.buf[:])
			if got := bl.Bytes(); !bytes.Equal(got, []byte{i, i, i, i}) || bl.Segments() != 1 {
				t.Fatalf("round %d: %v in %d segments", i, got, bl.Segments())
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { rec.bl.Init().Append(rec.buf[:]) }); allocs != 0 {
			t.Fatalf("an embedded list over embedded bytes: %.0f allocations", allocs)
		}
	})

	// A record that holds its list, that list's table and its header bytes
	// frames into them: the header is written over the record's bytes, the
	// payload's segments are shared, and nothing is allocated.
	t.Run("EncoderBLOnRecordsOwnList", func(t *testing.T) {
		var rec struct {
			bl    Bufferlist
			table [2][]byte
			hdr   [8]byte
		}
		payload := FromBytes([]byte{1, 2, 3})
		encode := func() *Bufferlist {
			e := EncoderBLOn(rec.hdr[:], rec.bl.InitOn(rec.table[:]))
			e.U32(7)
			e.BufferlistField(payload)
			return e.Bufferlist()
		}
		out := encode()
		if got := out.Bytes(); out != &rec.bl || out.Segments() != 2 || !bytes.Equal(got, []byte{7, 0, 0, 0, 3, 0, 0, 0, 1, 2, 3}) {
			t.Fatalf("framed %v in %d segments", got, out.Segments())
		}
		if &out.segs[0][0] != &rec.hdr[0] || &out.segs[0:1][0] != &rec.table[0] || &out.segs[1][0] != &payload.segs[0][0] {
			t.Fatal("the frame is not over the record's bytes and table, sharing the payload")
		}
		if allocs := testing.AllocsPerRun(100, func() { encode() }); allocs != 0 {
			t.Fatalf("framing into a record: %.0f allocations", allocs)
		}
	})

	// The decode side of the same contract: a BufferlistField read from a
	// segmented list is a view of the frame's storage, not a copy.
	t.Run("DecoderFieldIsView", func(t *testing.T) {
		frame := &Bufferlist{}
		e := NewEncoder(16)
		e.U32(4)
		frame.Append(e.Bytes())
		body := []byte{7, 7, 7, 7}
		frame.Append(body)

		field := NewDecoderBL(frame).BufferlistField()
		body[3] = 9
		if got := field.Bytes(); !bytes.Equal(got, []byte{7, 7, 7, 9}) {
			t.Fatalf("decoded field must view frame storage; got %v", got)
		}
	})
}

// TestBufferPoolRoundTrip exercises the scratch pool the framing layer
// recycles header buffers through.
func TestBufferPoolRoundTrip(t *testing.T) {
	b := GetBuffer(256)
	if len(b) != 0 || cap(b) < 256 {
		t.Fatalf("GetBuffer: len=%d cap=%d", len(b), cap(b))
	}
	b = append(b, 1, 2, 3)
	PutBuffer(b)
	c := GetBuffer(128)
	if len(c) != 0 {
		t.Fatalf("recycled buffer must come back empty, len=%d", len(c))
	}
	// Oversized buffers must not be retained.
	PutBuffer(make([]byte, poolMaxCap+1))
}
