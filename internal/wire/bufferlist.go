// Package wire implements Ceph-style buffer management and binary
// encoding: a segmented, zero-copy Bufferlist (the moral equivalent of
// ceph::bufferlist) plus little-endian Encoder/Decoder helpers used by
// messages, the proxy RPC protocol and the BlueStore key-value layer.
package wire

import (
	"errors"
	"fmt"
	"hash/crc32"
)

// castagnoli is the CRC-32C table Ceph uses for data checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrShortBuffer is returned when a decode runs past the end of the data.
var ErrShortBuffer = errors.New("wire: short buffer")

// Bufferlist is an ordered list of byte segments treated as one logical
// byte string. The zero value is an empty list ready for use.
//
// # Sharing vs copying
//
// Append and AppendBufferlist share the underlying arrays — they are the
// zero-copy fast path the data plane is built on, and they come with the
// same aliasing contract as Ceph's bufferlist::append(ptr): neither the
// caller nor any holder of the resulting list may mutate the bytes while
// the other can still observe them. Concretely:
//
//   - A producer that will reuse or overwrite its slice after handing it
//     off (e.g. a recycled I/O buffer) must use AppendCopy instead.
//   - A consumer that stores a shared list for later reading (BlueStore
//     blobs) relies on every upstream producer following the
//     rule above; in this simulation the payload travels client → OSD →
//     BlueStore fully shared, which is what lets a write reach the disk
//     blob with at most the one copy the model charges for.
//
// TestBufferlistAliasingContract pins this contract down.
type Bufferlist struct {
	segs   [][]byte
	length int
}

// Inline1 is a Bufferlist with a one-slot segment table behind it, for a
// record that always carries a one-segment list to embed. A wrapper, because
// every retained list would pay for slots in Bufferlist itself.
type Inline1 struct {
	Bufferlist
	slot [1][]byte
}

// Init empties the list onto its own slot and returns it.
func (w *Inline1) Init() *Bufferlist {
	w.segs, w.length = w.slot[:0], 0
	return &w.Bufferlist
}

// Inline2 is Inline1 with two slots: a transaction frame (metadata and one
// payload segment) or a DMA segment's view of one.
type Inline2 struct {
	Bufferlist
	slot [2][]byte
}

// Init empties the list onto its own slots, dropping what they referenced
// (and a table an append grew past them), and returns it.
func (w *Inline2) Init() *Bufferlist {
	w.slot = [2][]byte{}
	w.segs, w.length = w.slot[:0], 0
	return &w.Bufferlist
}

// InitOn empties bl onto table's array and returns it: a record's list over a
// segment table the record holds, or over one sized once for what the list
// will carry. Appending past cap(table) grows it like any append.
func (bl *Bufferlist) InitOn(table [][]byte) *Bufferlist {
	bl.segs, bl.length = table[:0], 0
	return bl
}

// Sized returns an empty list with room for n segments, the table in the
// list's own allocation when n is at most four (a transaction's metadata and a
// payload that crossed PCIe in up to three pieces).
func Sized(n int) *Bufferlist {
	switch {
	case n <= 1:
		return new(Inline1).Init()
	case n == 2:
		return new(Inline2).Init()
	case n == 3:
		w := &struct {
			Bufferlist
			slot [3][]byte
		}{}
		w.segs = w.slot[:0]
		return &w.Bufferlist
	case n == 4:
		w := &struct {
			Bufferlist
			slot [4][]byte
		}{}
		w.segs = w.slot[:0]
		return &w.Bufferlist
	}
	return &Bufferlist{segs: make([][]byte, 0, n)}
}

// NewBufferlist returns a list over the given segments without copying.
func NewBufferlist(segs ...[]byte) *Bufferlist {
	bl := Sized(len(segs))
	for _, s := range segs {
		bl.Append(s)
	}
	return bl
}

// FromBytes returns a single-segment list sharing b.
func FromBytes(b []byte) *Bufferlist { return NewBufferlist(b) }

// Concat returns one list over the segments of all of lists, in order
// (shared storage), with its segment table sized once. A single list is
// returned as it is.
func Concat(lists []*Bufferlist) *Bufferlist {
	if len(lists) == 1 {
		return lists[0]
	}
	n := 0
	for _, l := range lists {
		n += len(l.segs)
	}
	bl := Sized(n)
	for _, l := range lists {
		bl.AppendBufferlist(l)
	}
	return bl
}

// Length returns the logical length in bytes.
func (bl *Bufferlist) Length() int { return bl.length }

// Segments returns the number of underlying segments.
func (bl *Bufferlist) Segments() int { return len(bl.segs) }

// Append adds b as a new segment, sharing its storage. Empty slices are
// ignored.
func (bl *Bufferlist) Append(b []byte) {
	if len(b) == 0 {
		return
	}
	bl.segs = append(bl.segs, b)
	bl.length += len(b)
}

// AppendCopy adds a private copy of b.
func (bl *Bufferlist) AppendCopy(b []byte) {
	if len(b) == 0 {
		return
	}
	c := make([]byte, len(b))
	copy(c, b)
	bl.Append(c)
}

// AppendBufferlist appends all of other's segments (shared storage).
func (bl *Bufferlist) AppendBufferlist(other *Bufferlist) {
	bl.segs = append(bl.segs, other.segs...)
	bl.length += other.length
}

// Bytes flattens the list into a single freshly allocated slice.
func (bl *Bufferlist) Bytes() []byte {
	out := make([]byte, 0, bl.length)
	for _, s := range bl.segs {
		out = append(out, s...)
	}
	return out
}

// ContiguousBytes returns the logical content as one contiguous slice:
// single-segment lists are returned shared (no copy, aliasing contract
// applies), multi-segment lists are flattened. Hot paths that need a plain
// []byte should prefer this over Bytes.
func (bl *Bufferlist) ContiguousBytes() []byte {
	if len(bl.segs) == 1 {
		return bl.segs[0]
	}
	return bl.Bytes()
}

// Prefix returns the first n bytes as one contiguous slice: shared when they
// lie within the first segment (aliasing contract applies), gathered into a
// fresh slice otherwise. It panics if n exceeds the length. Frame parsers use
// it to read a header without building a sub-list and flattening that.
func (bl *Bufferlist) Prefix(n int) []byte {
	if n < 0 || n > bl.length {
		panic(fmt.Sprintf("wire: Prefix(%d) out of range (len %d)", n, bl.length))
	}
	if n == 0 || len(bl.segs[0]) >= n {
		return bl.FirstSegment()[:n]
	}
	out := make([]byte, n)
	bl.CopyTo(out)
	return out
}

// FirstSegment returns the first underlying segment (shared), or nil for an
// empty list. Framing code uses it to recycle pooled header scratch once a
// frame has been decoded and dispatched.
func (bl *Bufferlist) FirstSegment() []byte {
	if len(bl.segs) == 0 {
		return nil
	}
	return bl.segs[0]
}

// SubList returns a zero-copy view of n bytes starting at off. It panics if
// the range is out of bounds (programmer error, mirroring slice semantics).
func (bl *Bufferlist) SubList(off, n int) *Bufferlist {
	first, last, _ := bl.span(off, n)
	if n == 0 {
		return &Bufferlist{}
	}
	out := Sized(last - first + 1)
	bl.ViewInto(out, off, n)
	return out
}

// ViewInto appends to dst a zero-copy view of n bytes of bl starting at off:
// SubList into a list the caller owns, so a record that embeds its list (an
// Inline2) takes a view without allocating. It panics like SubList.
func (bl *Bufferlist) ViewInto(dst *Bufferlist, off, n int) {
	first, last, skip := bl.span(off, n)
	dst.length += n
	for i := first; i <= last; i++ {
		s := bl.segs[i][skip:]
		if len(s) > n {
			s = s[:n]
		}
		dst.segs = append(dst.segs, s)
		n -= len(s)
		skip = 0
	}
}

// span locates n bytes at off: the first and last segments they touch and
// the offset into the first. An empty range touches none (last < first).
func (bl *Bufferlist) span(off, n int) (first, last, skip int) {
	if off < 0 || n < 0 || off+n > bl.length {
		panic(fmt.Sprintf("wire: view (%d,%d) out of range (len %d)", off, n, bl.length))
	}
	if n == 0 {
		return 0, -1, 0
	}
	// Segments are never empty, so off+n <= length bounds both walks.
	for off >= len(bl.segs[first]) {
		off -= len(bl.segs[first])
		first++
	}
	last = first
	for covered := len(bl.segs[first]) - off; covered < n; covered += len(bl.segs[last]) {
		last++
	}
	return first, last, off
}

// CRC32C computes the Castagnoli CRC over the logical content without
// flattening.
func (bl *Bufferlist) CRC32C() uint32 {
	var crc uint32
	for _, s := range bl.segs {
		crc = crc32.Update(crc, castagnoli, s)
	}
	return crc
}

// Equal reports whether two lists have identical logical content.
func (bl *Bufferlist) Equal(other *Bufferlist) bool {
	if bl.length != other.length {
		return false
	}
	ai, bi := bl.iter(), other.iter()
	for {
		a, aok := ai.next()
		if !aok {
			return true
		}
		for len(a) > 0 {
			b, _ := bi.nextN(len(a))
			if !bytesEqual(a[:len(b)], b) {
				return false
			}
			a = a[len(b):]
		}
	}
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

type blIter struct {
	segs [][]byte
	seg  int
	off  int
}

func (bl *Bufferlist) iter() blIter { return blIter{segs: bl.segs} }

func (it *blIter) next() ([]byte, bool) {
	for it.seg < len(it.segs) {
		s := it.segs[it.seg][it.off:]
		it.seg++
		it.off = 0
		if len(s) > 0 {
			return s, true
		}
	}
	return nil, false
}

// nextN returns up to n contiguous bytes.
func (it *blIter) nextN(n int) ([]byte, bool) {
	for it.seg < len(it.segs) {
		s := it.segs[it.seg][it.off:]
		if len(s) == 0 {
			it.seg++
			it.off = 0
			continue
		}
		if len(s) > n {
			it.off += n
			return s[:n], true
		}
		it.seg++
		it.off = 0
		return s, true
	}
	return nil, false
}

// CopyTo copies the logical content into dst and returns the number of
// bytes copied (min of lengths).
func (bl *Bufferlist) CopyTo(dst []byte) int {
	n := 0
	for _, s := range bl.segs {
		if n >= len(dst) {
			break
		}
		n += copy(dst[n:], s)
	}
	return n
}

// Clone returns a deep copy with a single private segment.
func (bl *Bufferlist) Clone() *Bufferlist {
	return FromBytes(bl.Bytes())
}
