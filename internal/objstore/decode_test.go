package objstore

import (
	"fmt"
	"reflect"
	"testing"

	"doceph/internal/wire"
)

// decodeTransactionBLRef is DecodeTransactionBL as it was before it stopped
// flattening sub-lists to read its header; it is kept as the reference the
// current decoder must agree with, error for error.
func decodeTransactionBLRef(bl *wire.Bufferlist) (*Transaction, error) {
	if bl.Length() < 4 {
		return nil, fmt.Errorf("objstore: frame too short (%d bytes)", bl.Length())
	}
	b := bl.SubList(0, 4).Bytes()
	metaLen := int(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
	if 4+metaLen > bl.Length() {
		return nil, fmt.Errorf("objstore: meta length %d exceeds frame %d", metaLen, bl.Length())
	}
	d := wire.NewDecoder(bl.SubList(4, metaLen).Bytes())
	n := d.U32()
	t := &Transaction{}
	dataOff := 4 + metaLen
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		op := Op{
			Code:       OpCode(d.U8()),
			Collection: d.String(),
			Object:     d.String(),
			Offset:     d.U64(),
			Length:     d.U64(),
		}
		dataLen := int(d.U32())
		op.AttrName = d.String()
		op.AttrValue = d.Blob()
		if dataLen > 0 {
			if dataOff+dataLen > bl.Length() {
				return nil, fmt.Errorf("objstore: data overruns frame")
			}
			op.Data = bl.SubList(dataOff, dataLen)
			dataOff += dataLen
		}
		t.Ops = append(t.Ops, op)
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("objstore: decoding transaction frame: %w", err)
	}
	return t, nil
}

// segmented cuts raw into segments of at most segLen bytes.
func segmented(raw []byte, segLen int) *wire.Bufferlist {
	bl := &wire.Bufferlist{}
	for len(raw) > 0 {
		n := min(segLen, len(raw))
		bl.Append(raw[:n])
		raw = raw[n:]
	}
	return bl
}

// sameTxn compares two decoded transactions by content (payloads by their
// bytes, not by how they are segmented).
func sameTxn(a, b *Transaction) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if len(a.Ops) != len(b.Ops) || (a.Ops == nil) != (b.Ops == nil) {
		return false
	}
	for i := range a.Ops {
		x, y := a.Ops[i], b.Ops[i]
		if (x.Data == nil) != (y.Data == nil) || (x.Data != nil && !x.Data.Equal(y.Data)) {
			return false
		}
		x.Data, y.Data = nil, nil
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

// transactionFrames returns valid transaction frames plus every truncation
// and a sweep of single-byte corruptions of them (the same seed shapes
// FuzzDecodeBatchFrame carries its entries in): lengths, counts and op codes
// all get hit.
func transactionFrames() [][]byte {
	data := make([]byte, 300)
	for i := range data {
		data[i] = byte(i * 13)
	}
	txns := []*Transaction{
		{},
		(&Transaction{}).MkColl("pg.0"),
		(&Transaction{}).Write("pg.1", "obj", 64, wire.FromBytes(data)),
		(&Transaction{}).Touch("pg.1", "o").Write("pg.1", "o", 0, segmented(data, 37)).
			SetAttr("pg.1", "o", "k", []byte("value")).OmapSet("pg.1", "o", "key", nil).
			Write("pg.1", "o", 4096, wire.FromBytes(data[:5])).Truncate("pg.1", "o", 9).Remove("pg.1", "gone"),
	}
	var corpus [][]byte
	for _, txn := range txns {
		raw := txn.EncodeBL().Bytes()
		corpus = append(corpus, raw)
		for cut := 0; cut < len(raw); cut++ {
			corpus = append(corpus, raw[:cut])
		}
		// Each metadata byte (and a stretch of payload) in turn.
		for i := 0; i < min(len(raw), 160); i++ {
			for _, flip := range []byte{0x01, 0x80, 0xff} {
				bad := append([]byte(nil), raw...)
				bad[i] ^= flip
				corpus = append(corpus, bad)
			}
		}
	}
	return corpus
}

// checkAgainstReference decodes raw, delivered in segLen-byte segments, with
// both decoders: same transaction, or an error from both with the same
// message.
func checkAgainstReference(t *testing.T, raw []byte, segLen int) {
	t.Helper()
	got, gotErr := DecodeTransactionBL(segmented(raw, segLen), &Names{})
	want, wantErr := decodeTransactionBLRef(segmented(raw, segLen))
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%d-byte frame %x in %d-byte segments: err %v, reference %v", len(raw), raw, segLen, gotErr, wantErr)
	}
	if !sameTxn(got, want) {
		t.Fatalf("%d-byte frame %x in %d-byte segments: decoded %+v, reference %+v", len(raw), raw, segLen, got, want)
	}
}

// TestDecodeTransactionBLMatchesReference runs both decoders over the frame
// corpus, delivered contiguous and scattered across small segments.
func TestDecodeTransactionBLMatchesReference(t *testing.T) {
	for _, raw := range transactionFrames() {
		for _, segLen := range []int{len(raw) + 1, 7, 1} {
			checkAgainstReference(t, raw, segLen)
		}
	}
}

// FuzzDecodeTransactionBL: the decoder every DMA'd segment and RPC-fallback
// frame goes through on the host never panics, whatever the bytes and however
// they are cut into segments, and accepts exactly what the reference decoder
// accepts, with the same result.
func FuzzDecodeTransactionBL(f *testing.F) {
	for i, raw := range transactionFrames() {
		f.Add(raw, uint16(i%9))
	}
	f.Fuzz(func(t *testing.T, raw []byte, segLen uint16) {
		checkAgainstReference(t, raw, int(segLen)+1)
	})
}

// TestDecodeTransactionBLAllocs pins the allocation budget of the decode every
// DMA'd chunk goes through on the host: the transaction with its one op, the
// two names, and the payload view with its segment table — and without the
// names when the frame before it carried the same ones.
func TestDecodeTransactionBLAllocs(t *testing.T) {
	frame := NewTransaction().Write("pg.17", "bench_w3_117", 0, wire.FromBytes(make([]byte, 2<<20))).EncodeBL()
	var txn *Transaction
	var last Names
	decode := func() {
		var err error
		if txn, err = DecodeTransactionBL(frame, &last); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { last = Names{}; decode() }); allocs > 4 {
		t.Fatalf("DecodeTransactionBL: %.0f allocations for a one-write transaction, want at most 4", allocs)
	}
	if allocs := testing.AllocsPerRun(100, decode); allocs > 2 {
		t.Fatalf("DecodeTransactionBL: %.0f allocations with the names of the frame before, want at most 2", allocs)
	}
	if len(txn.Ops) != 1 || txn.Ops[0].Data.Length() != 2<<20 || txn.Ops[0].Object != "bench_w3_117" {
		t.Fatalf("decoded %+v", txn.Ops)
	}
	// The frame itself: the metadata buffer and the list with its segment
	// table.
	txn = NewTransaction().Write("pg.17", "bench_w3_117", 0, wire.FromBytes(make([]byte, 2<<20)))
	if allocs := testing.AllocsPerRun(100, func() { frame = txn.EncodeBL() }); allocs > 2 {
		t.Fatalf("EncodeBL: %.0f allocations for a one-write transaction, want at most 2", allocs)
	}
	// A one-op builder is one object; a second op moves the ops to a grown
	// slice and leaves the first where it was.
	if allocs := testing.AllocsPerRun(100, func() { txn = NewTransaction().Touch("pg.17", "o") }); allocs > 1 {
		t.Fatalf("NewTransaction + one op: %.0f allocations, want 1", allocs)
	}
	txn.Remove("pg.17", "o")
	if len(txn.Ops) != 2 || txn.Ops[0].Code != OpTouch || txn.Ops[1].Code != OpRemove {
		t.Fatalf("ops after growing past the slot: %+v", txn.Ops)
	}
}
