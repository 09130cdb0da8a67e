package wire

import "encoding/binary"

// Encoder builds a little-endian binary payload in the style of Ceph's
// encode() helpers. The zero value is ready for use and produces one flat
// buffer. An encoder created with NewEncoderBL instead assembles a
// Bufferlist: fixed-size fields accumulate in a scratch segment and
// BufferlistField splices payload segments in shared, not copied — the
// zero-copy framing mode the messenger uses.
type Encoder struct {
	buf []byte
	// out is non-nil in Bufferlist-assembly mode.
	out *Bufferlist
}

// NewEncoder returns a flat encoder preallocating capacity hint bytes.
func NewEncoder(hint int) *Encoder { return EncoderOn(make([]byte, 0, hint)) }

// EncoderOn returns a flat encoder writing over buf's array from its start, so
// a record can encode into bytes it holds inline; a payload longer than
// cap(buf) grows by append.
func EncoderOn(buf []byte) *Encoder { return &Encoder{buf: buf[:0]} }

// NewEncoderBL returns an encoder assembling into a Bufferlist, using
// scratch (typically from GetBuffer) as the initial header segment storage.
// Fixed-size fields append to the current scratch region; BufferlistField
// flushes it and shares the payload's segments. The caller owns the
// lifetime of scratch's array: it may only be recycled once the returned
// list and everything decoded zero-copy from it are unreachable.
func NewEncoderBL(scratch []byte) *Encoder {
	return EncoderBLOn(scratch, &Bufferlist{})
}

// EncoderBLOn is NewEncoderBL assembling into out, a list the caller owns:
// a record that holds its header bytes and its list (over a table it holds
// too, see InitOn) frames into them without allocating.
func EncoderBLOn(scratch []byte, out *Bufferlist) *Encoder {
	return &Encoder{buf: scratch[:0], out: out}
}

// flush moves the pending scratch region into the output list and starts a
// new region in the remaining capacity of the same array (append never
// rewrites bytes below its starting length, so the flushed segment stays
// intact even if the array is shared until a growth reallocates).
func (e *Encoder) flush() {
	if len(e.buf) == 0 {
		return
	}
	e.out.Append(e.buf)
	e.buf = e.buf[len(e.buf):]
}

// Bytes returns the encoded payload. In Bufferlist mode this flattens;
// prefer Bufferlist there.
func (e *Encoder) Bytes() []byte {
	if e.out != nil {
		e.flush()
		return e.out.Bytes()
	}
	return e.buf
}

// Bufferlist returns the encoded payload as a Bufferlist. In flat mode it
// wraps the buffer in a single shared segment.
func (e *Encoder) Bufferlist() *Bufferlist {
	if e.out != nil {
		e.flush()
		return e.out
	}
	return FromBytes(e.buf)
}

// Len returns the encoded length so far.
func (e *Encoder) Len() int {
	if e.out != nil {
		return e.out.Length() + len(e.buf)
	}
	return len(e.buf)
}

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// U16 appends a little-endian uint16.
func (e *Encoder) U16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends a little-endian int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Bool appends a bool as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// String appends a u32 length prefix followed by the bytes of s.
func (e *Encoder) String(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Blob appends a u32 length prefix followed by b.
func (e *Encoder) Blob(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// BufferlistField appends a u32 length prefix followed by bl's content. In
// Bufferlist mode the content segments are shared, not copied.
func (e *Encoder) BufferlistField(bl *Bufferlist) {
	e.U32(uint32(bl.Length()))
	if e.out != nil {
		e.flush()
		e.out.AppendBufferlist(bl)
		return
	}
	for _, s := range bl.segs {
		e.buf = append(e.buf, s...)
	}
}

// Decoder reads little-endian values from a byte slice or, via
// NewDecoderBL, directly from a Bufferlist's segments without flattening.
// Fields that lie within one segment are read in place; only a field that
// straddles a segment boundary is gathered into a fresh slice. Errors are
// sticky: after the first short read every subsequent call returns zero
// values and Err() reports ErrShortBuffer.
type Decoder struct {
	// bl is non-nil for segmented decoders; base is the logical offset of
	// the current segment within it.
	bl   *Bufferlist
	seg  int
	base int
	buf  []byte
	off  int
	err  error
}

// NewDecoder returns a decoder over b (shared, not copied).
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// NewDecoderBL returns a decoder over bl's content. Single-segment lists
// decode exactly like NewDecoder; multi-segment lists are walked segment by
// segment with no up-front flatten.
func NewDecoderBL(bl *Bufferlist) *Decoder {
	switch len(bl.segs) {
	case 0:
		return &Decoder{}
	case 1:
		return NewDecoder(bl.segs[0])
	}
	return &Decoder{bl: bl, buf: bl.segs[0]}
}

// Err returns the sticky decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int {
	if d.bl != nil {
		return d.bl.length - d.base - d.off
	}
	return len(d.buf) - d.off
}

// nextSeg advances to the following segment; it reports false at the end.
func (d *Decoder) nextSeg() bool {
	if d.bl == nil || d.seg+1 >= len(d.bl.segs) {
		return false
	}
	d.base += len(d.buf)
	d.seg++
	d.buf = d.bl.segs[d.seg]
	d.off = 0
	return true
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	for d.off == len(d.buf) && d.nextSeg() {
	}
	if d.off+n <= len(d.buf) {
		b := d.buf[d.off : d.off+n]
		d.off += n
		return b
	}
	if d.Remaining() < n {
		d.err = ErrShortBuffer
		return nil
	}
	// The field straddles a segment boundary: gather.
	out := make([]byte, n)
	m := 0
	for m < n {
		if d.off == len(d.buf) {
			d.nextSeg()
			continue
		}
		c := copy(out[m:], d.buf[d.off:])
		d.off += c
		m += c
	}
	return out
}

// skip consumes n bytes without materializing them. The caller has already
// checked Remaining.
func (d *Decoder) skip(n int) {
	for n > 0 {
		avail := len(d.buf) - d.off
		if avail >= n {
			d.off += n
			return
		}
		n -= avail
		d.off = len(d.buf)
		if !d.nextSeg() {
			return
		}
	}
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
func (d *Decoder) U16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Bool reads one byte as a bool.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// String reads a u32-length-prefixed string.
func (d *Decoder) String() string {
	n := d.U32()
	b := d.take(int(n))
	if b == nil {
		return ""
	}
	return string(b)
}

// StringLike is String for a field that tends to repeat: when the bytes
// equal prev it returns prev and allocates nothing.
func (d *Decoder) StringLike(prev string) string {
	b := d.StringBytes()
	if string(b) == prev {
		return prev
	}
	return string(b)
}

// StringBytes reads a u32-length-prefixed string's bytes without making the
// string: a view of the decoder's storage (a gathered copy when it straddles
// segments), for a caller that looks the name up before it allocates one.
func (d *Decoder) StringBytes() []byte { return d.take(int(d.U32())) }

// Blob reads a u32-length-prefixed byte slice (copied).
func (d *Decoder) Blob() []byte {
	n := d.U32()
	b := d.take(int(n))
	if b == nil {
		return nil
	}
	c := make([]byte, len(b))
	copy(c, b)
	return c
}

// BufferlistField reads a u32-length-prefixed field as a zero-copy
// Bufferlist view of the decoder's backing storage — even when the field
// spans segments.
func (d *Decoder) BufferlistField() *Bufferlist {
	b, off, n := d.field()
	switch {
	case b != nil:
		return FromBytes(b)
	case n == 0:
		return &Bufferlist{}
	}
	return d.bl.SubList(off, n)
}

// BufferlistFieldInto is BufferlistField appending the view to dst, a list
// the caller owns (ViewInto's counterpart): a record whose list is over slots
// it holds takes the field without allocating.
func (d *Decoder) BufferlistFieldInto(dst *Bufferlist) {
	b, off, n := d.field()
	switch {
	case b != nil:
		dst.Append(b)
	case n != 0:
		d.bl.ViewInto(dst, off, n)
	}
}

// field reads a u32-length-prefixed field and moves past it: it returns the
// field's bytes when they lie in one segment, and otherwise their offset and
// length in d.bl (n is 0 for an empty field or after an error).
func (d *Decoder) field() (b []byte, off, n int) {
	n = int(d.U32())
	if d.err != nil || n == 0 {
		return nil, 0, 0
	}
	for d.off == len(d.buf) && d.nextSeg() {
	}
	if d.off+n <= len(d.buf) {
		b = d.buf[d.off : d.off+n]
		d.off += n
		return b, 0, n
	}
	if d.bl == nil || d.Remaining() < n {
		d.err = ErrShortBuffer
		return nil, 0, 0
	}
	off = d.base + d.off
	d.skip(n)
	return nil, off, n
}
