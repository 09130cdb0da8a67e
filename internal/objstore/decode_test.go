package objstore

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

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
// bytes, not by how they are segmented; no ops is no ops, in a slot or nil).
func sameTxn(a, b *Transaction) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if len(a.Ops) != len(b.Ops) {
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

// sampleTxns returns transactions of every shape the frame carries: none, one
// op without data and with, and seven ops mixing codes, attrs and payloads
// (the last).
func sampleTxns() []*Transaction {
	data := make([]byte, 300)
	for i := range data {
		data[i] = byte(i * 13)
	}
	mixed := (&Transaction{}).MkColl("pg.1").Write("pg.1", "o", 0, segmented(data, 37))
	// No builder sets an op's attr fields, but every op in the frame carries
	// them.
	mixed.Ops = append(mixed.Ops, Op{Code: OpWrite, Collection: "pg.1", Object: "o", Offset: 9,
		AttrName: "k", AttrValue: []byte("value")})
	mixed.Write("pg.1", "empty", 0, &wire.Bufferlist{}).
		Write("pg.1", "o", 4096, wire.FromBytes(data[:5])).Remove("pg.1", "empty").Remove("pg.1", "gone")
	return []*Transaction{
		{},
		(&Transaction{}).MkColl("pg.0"),
		(&Transaction{}).Write("pg.1", "obj", 64, wire.FromBytes(data)),
		mixed,
	}
}

// transactionFrames returns valid transaction frames plus every truncation
// and a sweep of single-byte corruptions of them (the same seed shapes
// FuzzDecodeBatchFrame carries its entries in): lengths, counts and op codes
// all get hit.
func transactionFrames() [][]byte {
	var corpus [][]byte
	for _, txn := range sampleTxns() {
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
// the reference decoder, with DecodeTransactionBL and with DecodeBL into
// reused — a record that has decoded other frames before — and requires the
// same transaction from all three, or an error from all three with the same
// message (and no ops left in reused).
func checkAgainstReference(t *testing.T, raw []byte, segLen int, reused *Transaction) {
	t.Helper()
	want, wantErr := decodeTransactionBLRef(segmented(raw, segLen))
	got, gotErr := DecodeTransactionBL(segmented(raw, segLen), &Names{})
	reused.TraceCtx, reused.StreamReuse = 1, true // outside the encoded form: cleared
	intoErr := reused.DecodeBL(segmented(raw, segLen), &Names{})
	into := reused
	if intoErr != nil {
		if len(reused.Ops) != 0 {
			t.Fatalf("%d-byte frame %x in %d-byte segments: %d ops left after %v", len(raw), raw, segLen, len(reused.Ops), intoErr)
		}
		into = nil
	}
	for _, d := range []struct {
		name string
		txn  *Transaction
		err  error
	}{{"DecodeTransactionBL", got, gotErr}, {"DecodeBL into a reused transaction", into, intoErr}} {
		if (d.err == nil) != (wantErr == nil) || (d.err != nil && d.err.Error() != wantErr.Error()) {
			t.Fatalf("%s: %d-byte frame %x in %d-byte segments: err %v, reference %v", d.name, len(raw), raw, segLen, d.err, wantErr)
		}
		if !sameTxn(d.txn, want) || d.txn != nil && (d.txn.TraceCtx != 0 || d.txn.StreamReuse) {
			t.Fatalf("%s: %d-byte frame %x in %d-byte segments: decoded %+v, reference %+v", d.name, len(raw), raw, segLen, d.txn, want)
		}
	}
}

// TestDecodeTransactionBLMatchesReference runs the decoders over the frame
// corpus, delivered contiguous and scattered across small segments, decoding
// into one transaction throughout.
func TestDecodeTransactionBLMatchesReference(t *testing.T) {
	reused := NewTransaction()
	for _, raw := range transactionFrames() {
		for _, segLen := range []int{len(raw) + 1, 7, 1} {
			checkAgainstReference(t, raw, segLen, reused)
		}
	}
}

// FuzzDecodeTransactionBL: the decoder every DMA'd segment and RPC-fallback
// frame goes through on the host never panics, whatever the bytes and however
// they are cut into segments, and accepts exactly what the reference decoder
// accepts, with the same result. The decode-into form runs twice in a row on
// one transaction that first held a seven-op frame, so a reused record never
// carries ops from the frame before.
func FuzzDecodeTransactionBL(f *testing.F) {
	for i, raw := range transactionFrames() {
		f.Add(raw, uint16(i%9))
	}
	txns := sampleTxns()
	rich := txns[len(txns)-1].EncodeBL()
	f.Fuzz(func(t *testing.T, raw []byte, segLen uint16) {
		reused := NewTransaction()
		if err := reused.DecodeBL(rich, &Names{}); err != nil || len(reused.Ops) != 7 {
			t.Fatalf("seven-op frame: %d ops, err %v", len(reused.Ops), err)
		}
		checkAgainstReference(t, raw, int(segLen)+1, reused)
		checkAgainstReference(t, raw, len(raw)+1, reused)
	})
}

// TestDecodeTransactionBLAllocs pins the allocation budget of the decode every
// DMA'd chunk goes through on the host: the transaction with its one op, the
// two names, and the payload view with its segment table — and without the
// names when the frame before it carried the same ones, or, for the
// collection, when the receiver has read it before.
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
	// Into a record that holds the transaction and its op slot, as the host's
	// does: the payload view alone.
	rec := &struct {
		txn Transaction
		op  [1]Op
	}{}
	rec.txn.Ops = rec.op[:0]
	if allocs := testing.AllocsPerRun(100, func() {
		if err := rec.txn.DecodeBL(frame, &last); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Fatalf("DecodeBL: %.0f allocations into a one-op record with the names of the frame before, want at most 1", allocs)
	}
	if len(rec.txn.Ops) != 1 || &rec.txn.Ops[0] != &rec.op[0] || rec.txn.Ops[0].Data.Length() != 2<<20 {
		t.Fatalf("decoded into the record: %+v", rec.txn.Ops)
	}
	// Frames that alternate between collections, as a host's writes to its
	// placement groups do: with the receiver's Colls, each name is allocated
	// once, and a frame costs its payload view alone.
	other := NewTransaction().Write("pg.18", "bench_w3_117", 0, wire.FromBytes(make([]byte, 2<<20))).EncodeBL()
	seen := Names{Colls: &Colls{}}
	alternate := func() {
		for _, f := range []*wire.Bufferlist{frame, other} {
			if err := rec.txn.DecodeBL(f, &seen); err != nil {
				t.Fatal(err)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, alternate); allocs > 2 {
		t.Fatalf("DecodeBL: %.0f allocations for two frames into alternating collections, want at most 2", allocs)
	}
	if rec.txn.Ops[0].Collection != "pg.18" || seen.Collection != "pg.18" || len(seen.Colls.names) != 2 {
		t.Fatalf("decoded %q, last %q, %d collections seen", rec.txn.Ops[0].Collection, seen.Collection, len(seen.Colls.names))
	}
	// The frame itself: the metadata buffer and the list with its segment
	// table — or nothing, into a list and bytes the caller holds.
	txn = NewTransaction().Write("pg.17", "bench_w3_117", 0, wire.FromBytes(make([]byte, 2<<20)))
	if allocs := testing.AllocsPerRun(100, func() { frame = txn.EncodeBL() }); allocs > 2 {
		t.Fatalf("EncodeBL: %.0f allocations for a one-write transaction, want at most 2", allocs)
	}
	out := &struct {
		frame wire.Inline2
		meta  [112]byte
	}{}
	if allocs := testing.AllocsPerRun(100, func() { txn.EncodeBLInto(out.meta[:], out.frame.Init()) }); allocs > 0 {
		t.Fatalf("EncodeBLInto: %.0f allocations into a caller's list and bytes, want 0", allocs)
	}
	if !out.frame.Equal(frame) || &out.frame.FirstSegment()[0] != &out.meta[0] {
		t.Fatal("EncodeBLInto: frame differs from EncodeBL's, or its metadata is not in the caller's bytes")
	}
	// A one-op builder is one object; a second op moves the ops to a grown
	// slice and leaves the first where it was.
	if allocs := testing.AllocsPerRun(100, func() { txn = NewTransaction().Remove("pg.17", "o") }); allocs > 1 {
		t.Fatalf("NewTransaction + one op: %.0f allocations, want 1", allocs)
	}
	txn.MkColl("pg.17")
	if len(txn.Ops) != 2 || txn.Ops[0].Code != OpRemove || txn.Ops[1].Code != OpMkColl {
		t.Fatalf("ops after growing past the slot: %+v", txn.Ops)
	}
}

// TestCollsInternsEachNameOnce: Colls keeps the names it has read sorted, hands
// back the string it listed for bytes that spell it again, and stops listing
// new names at its bound, still returning them.
func TestCollsInternsEachNameOnce(t *testing.T) {
	var c Colls
	first := map[string]string{}
	for _, n := range []string{"pg.7", "pg.12", "pg.1", "pg.7", "pg.30", "pg.12"} {
		s := c.intern([]byte(n))
		if s != n {
			t.Fatalf("intern(%q) = %q", n, s)
		}
		if f, ok := first[n]; ok && unsafe.StringData(f) != unsafe.StringData(s) {
			t.Fatalf("%q read again is a new string", n)
		}
		first[n] = s
	}
	if want := []string{"pg.1", "pg.12", "pg.30", "pg.7"}; !slices.Equal(c.names, want) {
		t.Fatalf("listed %q, want %q", c.names, want)
	}
	for i := len(c.names); i < maxColls; i++ {
		c.intern([]byte(fmt.Sprint("coll.", i)))
	}
	if s := c.intern([]byte("one.more")); s != "one.more" || len(c.names) != maxColls {
		t.Fatalf("past the bound: intern = %q, %d listed", s, len(c.names))
	}
}
