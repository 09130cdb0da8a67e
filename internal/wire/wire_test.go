package wire

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBufferlistAppendAndBytes(t *testing.T) {
	bl := NewBufferlist([]byte("hello, "), []byte("world"))
	if bl.Length() != 12 || bl.Segments() != 2 {
		t.Fatalf("len=%d segs=%d", bl.Length(), bl.Segments())
	}
	if string(bl.Bytes()) != "hello, world" {
		t.Fatalf("bytes=%q", bl.Bytes())
	}
}

func TestBufferlistEmptyAppendIgnored(t *testing.T) {
	bl := &Bufferlist{}
	bl.Append(nil)
	bl.Append([]byte{})
	bl.AppendCopy(nil)
	if bl.Length() != 0 || bl.Segments() != 0 {
		t.Fatalf("len=%d segs=%d", bl.Length(), bl.Segments())
	}
}

func TestBufferlistAppendShares(t *testing.T) {
	src := []byte("abc")
	bl := &Bufferlist{}
	bl.Append(src)
	src[0] = 'x'
	if string(bl.Bytes()) != "xbc" {
		t.Fatal("Append must share storage")
	}
	bl2 := &Bufferlist{}
	src2 := []byte("abc")
	bl2.AppendCopy(src2)
	src2[0] = 'x'
	if string(bl2.Bytes()) != "abc" {
		t.Fatal("AppendCopy must copy")
	}
}

func TestSubListSpansSegments(t *testing.T) {
	bl := NewBufferlist([]byte("abcd"), []byte("efgh"), []byte("ijkl"))
	sub := bl.SubList(2, 8)
	if string(sub.Bytes()) != "cdefghij" {
		t.Fatalf("sub=%q", sub.Bytes())
	}
	if got := bl.SubList(0, 0); got.Length() != 0 {
		t.Fatalf("empty sublist len=%d", got.Length())
	}
	if got := bl.SubList(12, 0); got.Length() != 0 {
		t.Fatalf("tail sublist len=%d", got.Length())
	}
}

func TestSubListOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBufferlist([]byte("ab")).SubList(1, 5)
}

func TestCRC32CMatchesFlat(t *testing.T) {
	table := crc32.MakeTable(crc32.Castagnoli)
	bl := NewBufferlist([]byte("seg1-"), []byte("seg2-"), []byte("seg3"))
	want := crc32.Checksum(bl.Bytes(), table)
	if bl.CRC32C() != want {
		t.Fatalf("crc=%08x want %08x", bl.CRC32C(), want)
	}
}

func TestEqual(t *testing.T) {
	a := NewBufferlist([]byte("abc"), []byte("def"))
	b := NewBufferlist([]byte("a"), []byte("bcde"), []byte("f"))
	c := NewBufferlist([]byte("abcdeX"))
	if !a.Equal(b) {
		t.Fatal("a should equal b")
	}
	if a.Equal(c) {
		t.Fatal("a should not equal c")
	}
	if !(&Bufferlist{}).Equal(&Bufferlist{}) {
		t.Fatal("empty lists should be equal")
	}
}

func TestCopyToAndClone(t *testing.T) {
	bl := NewBufferlist([]byte("ab"), []byte("cd"))
	dst := make([]byte, 3)
	if n := bl.CopyTo(dst); n != 3 || string(dst) != "abc" {
		t.Fatalf("n=%d dst=%q", n, dst)
	}
	cl := bl.Clone()
	if !cl.Equal(bl) || cl.Segments() != 1 {
		t.Fatalf("clone segs=%d", cl.Segments())
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	e := NewEncoder(64)
	e.U8(0xAB)
	e.U16(0xBEEF)
	e.U32(0xDEADBEEF)
	e.U64(0x0123456789ABCDEF)
	e.I64(-42)
	e.Bool(true)
	e.Bool(false)
	e.String("object-7")
	e.Blob([]byte{1, 2, 3})
	inner := NewBufferlist([]byte("xx"), []byte("yy"))
	e.BufferlistField(inner)

	d := NewDecoder(e.Bytes())
	if d.U8() != 0xAB || d.U16() != 0xBEEF || d.U32() != 0xDEADBEEF {
		t.Fatal("int mismatch")
	}
	if d.U64() != 0x0123456789ABCDEF || d.I64() != -42 {
		t.Fatal("64-bit mismatch")
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("bool mismatch")
	}
	if d.String() != "object-7" {
		t.Fatal("string mismatch")
	}
	if !bytes.Equal(d.Blob(), []byte{1, 2, 3}) {
		t.Fatal("blob mismatch")
	}
	if got := d.BufferlistField(); string(got.Bytes()) != "xxyy" {
		t.Fatalf("bl field=%q", got.Bytes())
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", d.Err(), d.Remaining())
	}
}

func TestDecoderShortBufferSticky(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	_ = d.U32()
	if d.Err() != ErrShortBuffer {
		t.Fatalf("err=%v", d.Err())
	}
	// Sticky: further reads stay zero without panicking.
	if d.U64() != 0 || d.String() != "" || d.Blob() != nil {
		t.Fatal("sticky error should zero subsequent reads")
	}
}

func TestDecoderTruncatedString(t *testing.T) {
	e := NewEncoder(16)
	e.String("hello")
	b := e.Bytes()[:6] // cut mid-string
	d := NewDecoder(b)
	if d.String() != "" || d.Err() != ErrShortBuffer {
		t.Fatal("want short-buffer error")
	}
}

// TestStringLikeSharesAnEqualName: a field equal to the name it is compared
// with comes back as that name and allocates nothing; any other value, and a
// short buffer, decode as String does.
func TestStringLikeSharesAnEqualName(t *testing.T) {
	e := NewEncoder(32)
	e.String("pg.17")
	e.String("pg.18")
	e.String("")
	frame := e.Bytes()
	prev := "pg.17"
	var got [3]string
	allocs := testing.AllocsPerRun(100, func() {
		d := NewDecoder(frame)
		got = [3]string{d.StringLike(prev), d.StringLike(prev), d.StringLike(prev)}
	})
	if got != [3]string{"pg.17", "pg.18", ""} || allocs > 1 {
		t.Fatalf("decoded %q with %.0f allocations; want one, for the name that differs", got, allocs)
	}
	d := NewDecoder(frame[:6])
	if s := d.StringLike(prev); s != "" || d.Err() == nil {
		t.Fatalf("truncated field decoded as %q, err %v", s, d.Err())
	}
}

func TestDecoderBLMultiSegment(t *testing.T) {
	e := NewEncoder(16)
	e.U32(77)
	e.String("abc")
	flat := e.Bytes()
	bl := NewBufferlist(flat[:3], flat[3:])
	d := NewDecoderBL(bl)
	if d.U32() != 77 || d.String() != "abc" || d.Err() != nil {
		t.Fatal("multi-segment decode failed")
	}
}

func TestQuickSubListMatchesFlatSlice(t *testing.T) {
	f := func(data []byte, cut uint8, off, n uint16) bool {
		// Split data into segments at pseudo-random points.
		bl := &Bufferlist{}
		rest := data
		r := rand.New(rand.NewSource(int64(cut)))
		for len(rest) > 0 {
			k := 1 + r.Intn(len(rest))
			bl.Append(rest[:k])
			rest = rest[k:]
		}
		o := int(off) % (len(data) + 1)
		m := int(n) % (len(data) - o + 1)
		return bytes.Equal(bl.SubList(o, m).Bytes(), data[o:o+m])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEncodeDecodeBlob(t *testing.T) {
	f := func(b []byte, s string) bool {
		e := NewEncoder(len(b) + len(s) + 8)
		e.Blob(b)
		e.String(s)
		d := NewDecoder(e.Bytes())
		got := d.Blob()
		if len(b) == 0 {
			if len(got) != 0 {
				return false
			}
		} else if !bytes.Equal(got, b) {
			return false
		}
		return d.String() == s && d.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCRCSegmentationInvariant(t *testing.T) {
	f := func(data []byte, seed int64) bool {
		table := crc32.MakeTable(crc32.Castagnoli)
		want := crc32.Checksum(data, table)
		bl := &Bufferlist{}
		rest := data
		r := rand.New(rand.NewSource(seed))
		for len(rest) > 0 {
			k := 1 + r.Intn(len(rest))
			bl.Append(rest[:k])
			rest = rest[k:]
		}
		return bl.CRC32C() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentTableSizedOnce: building a view or joining lists allocates the
// list and its segment table and nothing else — no 1, 2, 4 regrowth of the
// table however many segments are involved — a result of up to four segments
// is one object, the table behind the list, and a view into a list the caller
// holds allocates nothing while it fits the caller's slots.
func TestSegmentTableSizedOnce(t *testing.T) {
	src := &Bufferlist{}
	for i := 0; i < 9; i++ {
		src.Append(make([]byte, 100))
	}
	var parts []*Bufferlist
	for off := 0; off < src.Length(); off += 300 {
		parts = append(parts, src.SubList(off, 300))
	}
	one := make([]byte, 100)
	two := []*Bufferlist{FromBytes(one), FromBytes(one)}
	three := []*Bufferlist{src.SubList(50, 100), FromBytes(one)}
	four := []*Bufferlist{src.SubList(50, 100), FromBytes(one), FromBytes(one)}
	var held Inline2
	cases := []struct {
		name string
		want float64
		fn   func()
	}{
		{"SubList over 7 segments", 2, func() { sink = src.SubList(150, 600) }},
		{"SubList over 4 segments", 1, func() { sink = src.SubList(150, 300) }},
		{"SubList over 3 segments", 1, func() { sink = src.SubList(150, 200) }},
		{"SubList over 2 segments", 1, func() { sink = src.SubList(150, 100) }},
		{"SubList within one", 1, func() { sink = src.SubList(110, 50) }},
		{"empty SubList", 1, func() { sink = src.SubList(110, 0) }},
		{"AppendBufferlist", 2, func() {
			bl := &Bufferlist{}
			bl.AppendBufferlist(src)
			sink = bl
		}},
		{"Concat of 9 segments", 2, func() { sink = Concat(parts) }},
		{"Concat of 4 segments", 1, func() { sink = Concat(four) }},
		{"Concat of 3 segments", 1, func() { sink = Concat(three) }},
		{"ViewInto an Inline2 over 2 segments", 0, func() { src.ViewInto(held.Init(), 150, 100) }},
		{"Concat of 2 segments", 1, func() { sink = Concat(two) }},
		{"Concat of one list", 0, func() { sink = Concat(parts[:1]) }},
		{"NewBufferlist of 9", 2, func() { sink = NewBufferlist(src.segs...) }},
		{"NewBufferlist of 2", 1, func() { sink = NewBufferlist(one, one) }},
		{"FromBytes", 1, func() { sink = FromBytes(one) }},
		{"flat Encoder.Bufferlist", 2, func() { e := NewEncoder(8); e.U64(1); sink = e.Bufferlist() }},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(100, c.fn); allocs > c.want {
			t.Errorf("%s: %.0f allocations, want at most %.0f", c.name, allocs, c.want)
		}
	}
	if got := Concat(parts); !got.Equal(src) || got.Segments() != 9 {
		t.Fatalf("Concat: %d bytes in %d segments, want the source's %d in 9",
			got.Length(), got.Segments(), src.Length())
	}
	if got := Concat(parts[:1]); got != parts[0] {
		t.Fatal("Concat of a single list did not return that list")
	}
}

// TestViewInto: a view appended to a list the caller holds is SubList's view,
// after whatever the list held, and Inline2.Init drops what the slots held —
// past them too, when an append had grown the table.
func TestViewInto(t *testing.T) {
	bl := NewBufferlist([]byte("abcd"), []byte("efgh"), []byte("ijkl"))
	var w Inline2
	dst := w.Init()
	dst.Append([]byte("xy"))
	bl.ViewInto(dst, 2, 0) // empty: nothing appended
	bl.ViewInto(dst, 2, 8)
	if got := string(dst.Bytes()); got != "xycdefghij" || dst.Length() != 10 || dst.Segments() != 4 {
		t.Fatalf("ViewInto after a segment: %q in %d segments", got, dst.Segments())
	}
	if !dst.SubList(2, 8).Equal(bl.SubList(2, 8)) {
		t.Fatal("ViewInto and SubList disagree")
	}
	if w.Init().Length() != 0 || cap(w.segs) != 2 || &w.segs[:1][0] != &w.slot[0] || w.slot[0] != nil || w.slot[1] != nil {
		t.Fatal("Init kept the segments of the grown list reachable")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ViewInto past the end did not panic")
		}
	}()
	bl.ViewInto(w.Init(), 10, 3)
}

// TestBufferlistFieldInto: a field appended to a list the caller holds is
// BufferlistField's view — within one segment, across segments and empty —
// and a list with room for it takes it without allocating; a short field
// sets the decoder's error and appends nothing.
func TestBufferlistFieldInto(t *testing.T) {
	e := NewEncoderBL(nil)
	e.BufferlistField(FromBytes([]byte("abc")))
	e.BufferlistField(NewBufferlist([]byte("defg"), []byte("hi")))
	e.BufferlistField(&Bufferlist{})
	frame := e.Bufferlist()
	var w Inline2
	for i := 0; i < 3; i++ {
		into, want := NewDecoderBL(frame), NewDecoderBL(frame)
		for range i {
			into.BufferlistFieldInto(w.Init())
			want.BufferlistField()
		}
		into.BufferlistFieldInto(w.Init())
		if got, exp := &w.Bufferlist, want.BufferlistField(); !got.Equal(exp) || got.Segments() != exp.Segments() {
			t.Fatalf("field %d: %q in %d segments, want %q in %d", i, got.Bytes(), got.Segments(), exp.Bytes(), exp.Segments())
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		d := NewDecoderBL(frame)
		d.BufferlistFieldInto(w.Init())
		d.BufferlistFieldInto(w.Init())
	}); allocs != 0 {
		t.Fatalf("%.0f allocations into an Inline2, want 0", allocs)
	}
	d := NewDecoder([]byte{9, 0, 0, 0, 'x'})
	if d.BufferlistFieldInto(w.Init()); d.Err() != ErrShortBuffer || w.Length() != 0 {
		t.Fatalf("short field: err %v, %d bytes appended", d.Err(), w.Length())
	}
}

var sink *Bufferlist

func TestPrefix(t *testing.T) {
	bl := NewBufferlist([]byte("abcd"), []byte("efgh"))
	if p := bl.Prefix(3); string(p) != "abc" || &p[0] != &bl.segs[0][0] {
		t.Fatalf("Prefix(3) = %q, want the first segment's bytes shared", p)
	}
	if p := bl.Prefix(6); string(p) != "abcdef" {
		t.Fatalf("Prefix(6) = %q across segments", p)
	}
	if p := (&Bufferlist{}).Prefix(0); len(p) != 0 {
		t.Fatalf("Prefix(0) of an empty list = %q", p)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Prefix past the end did not panic")
		}
	}()
	bl.Prefix(9)
}

// TestRunJoinsContiguousSegments: Run joins the segments that continue one
// another in memory — the pieces of one buffer — and stops at a segment of
// another buffer, at a gap, and at a piece its predecessor's capacity does not
// reach.
func TestRunJoinsContiguousSegments(t *testing.T) {
	a, b := []byte("0123456789"), []byte("abcdef")
	bl := NewBufferlist(a[:3], a[3:7], a[7:], b[:2], b[3:], a[:2:2], a[2:4])
	var runs []string
	for i := 0; i < bl.Segments(); {
		var run []byte
		run, i = bl.Run(i)
		runs = append(runs, string(run))
	}
	want := []string{"0123456789", "ab", "def", "01", "23"}
	if !reflect.DeepEqual(runs, want) {
		t.Fatalf("runs %q, want %q", runs, want)
	}
}
