package objstore

import (
	"bytes"
	"testing"
	"testing/quick"

	"doceph/internal/wire"
)

func TestBuildersPopulateOps(t *testing.T) {
	data := wire.FromBytes([]byte("payload"))
	txn := (&Transaction{}).
		MkColl("c").
		Touch("c", "o").
		Write("c", "o", 5, data).
		Zero("c", "o", 1, 2).
		Truncate("c", "o", 3).
		SetAttr("c", "o", "k", []byte("v")).
		Remove("c", "o").
		RmColl("c")
	want := []OpCode{OpMkColl, OpTouch, OpWrite, OpZero, OpTruncate, OpSetAttr, OpRemove, OpRmColl}
	if len(txn.Ops) != len(want) {
		t.Fatalf("ops=%d", len(txn.Ops))
	}
	for i, c := range want {
		if txn.Ops[i].Code != c {
			t.Fatalf("op %d = %v want %v", i, txn.Ops[i].Code, c)
		}
	}
	w := txn.Ops[2]
	if w.Offset != 5 || w.Length != 7 || w.Data.Length() != 7 {
		t.Fatalf("write op=%+v", w)
	}
	if txn.DataBytes() != 7 {
		t.Fatalf("databytes=%d", txn.DataBytes())
	}
}

func TestEncodeBLZeroCopyAndRoundTrip(t *testing.T) {
	big := make([]byte, 3<<20)
	for i := range big {
		big[i] = byte(i * 7)
	}
	payload := wire.FromBytes(big)
	txn := (&Transaction{}).
		MkColl("pg.1").
		Write("pg.1", "obj", 64, payload).
		SetAttr("pg.1", "obj", "a", []byte("b"))
	frame := txn.EncodeBL()
	// Zero-copy: the frame must not duplicate the 3 MiB payload.
	if frame.Length() < 3<<20 || frame.Length() > (3<<20)+1024 {
		t.Fatalf("frame len=%d", frame.Length())
	}
	got, err := DecodeTransactionBL(frame, &Names{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ops) != 3 || got.Ops[1].Code != OpWrite || got.Ops[1].Offset != 64 {
		t.Fatalf("ops=%+v", got.Ops)
	}
	if !got.Ops[1].Data.Equal(payload) {
		t.Fatal("payload mismatch")
	}
	if got.Ops[2].AttrName != "a" || !bytes.Equal(got.Ops[2].AttrValue, []byte("b")) {
		t.Fatalf("attr=%+v", got.Ops[2])
	}
	// Mutating the original buffer is visible through the decode: proof of
	// shared storage end to end.
	big[100] = ^big[100]
	if !got.Ops[1].Data.Equal(payload) {
		t.Fatal("decoded data no longer shares storage")
	}
}

func TestDecodeBLRejectsCorruptFrames(t *testing.T) {
	txn := (&Transaction{}).Write("c", "o", 0, wire.FromBytes(make([]byte, 100)))
	flat := txn.EncodeBL().Bytes()
	for _, cut := range []int{0, 3, 10, len(flat) - 1} {
		if _, err := DecodeTransactionBL(wire.FromBytes(flat[:cut]), &Names{}); err == nil {
			t.Fatalf("cut=%d accepted", cut)
		}
	}
	// Corrupt the meta length.
	bad := append([]byte{}, flat...)
	bad[0] = 0xFF
	bad[1] = 0xFF
	if _, err := DecodeTransactionBL(wire.FromBytes(bad), &Names{}); err == nil {
		t.Fatal("oversized meta length accepted")
	}
}

func TestLegacyEncodeDecodeAgreesWithBL(t *testing.T) {
	txn := (&Transaction{}).
		MkColl("c").
		Write("c", "o1", 0, wire.FromBytes([]byte("abc"))).
		Write("c", "o2", 9, wire.FromBytes([]byte("defgh")))
	e := wire.NewEncoder(256)
	txn.Encode(e)
	legacy, err := DecodeTransaction(wire.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	bl, err := DecodeTransactionBL(txn.EncodeBL(), &Names{})
	if err != nil {
		t.Fatal(err)
	}
	if len(legacy.Ops) != len(bl.Ops) {
		t.Fatalf("op counts differ: %d vs %d", len(legacy.Ops), len(bl.Ops))
	}
	for i := range legacy.Ops {
		a, b := legacy.Ops[i], bl.Ops[i]
		if a.Code != b.Code || a.Object != b.Object || a.Offset != b.Offset {
			t.Fatalf("op %d differs", i)
		}
		if (a.Data == nil) != (b.Data == nil) {
			t.Fatalf("op %d data presence differs", i)
		}
		if a.Data != nil && !a.Data.Equal(b.Data) {
			t.Fatalf("op %d data differs", i)
		}
	}
}

func TestQuickEncodeBLRoundTrip(t *testing.T) {
	f := func(coll, obj string, off uint64, data []byte, attr string) bool {
		txn := (&Transaction{}).Write(coll, obj, off, wire.FromBytes(data))
		txn.SetAttr(coll, obj, attr, data)
		got, err := DecodeTransactionBL(txn.EncodeBL(), &Names{})
		if err != nil || len(got.Ops) != 2 {
			return false
		}
		w := got.Ops[0]
		if w.Collection != coll || w.Object != obj || w.Offset != off {
			return false
		}
		if len(data) == 0 {
			if w.Data != nil {
				return false
			}
		} else if !bytes.Equal(w.Data.Bytes(), data) {
			return false
		}
		return got.Ops[1].AttrName == attr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOpCodeStrings(t *testing.T) {
	codes := map[OpCode]string{
		OpTouch: "touch", OpWrite: "write", OpZero: "zero",
		OpTruncate: "truncate", OpRemove: "remove", OpSetAttr: "setattr",
		OpMkColl: "mkcoll", OpRmColl: "rmcoll",
	}
	for c, want := range codes {
		if c.String() != want {
			t.Fatalf("%d -> %q want %q", c, c.String(), want)
		}
	}
	if OpCode(99).String() != "opcode(99)" {
		t.Fatalf("unknown=%q", OpCode(99).String())
	}
}
