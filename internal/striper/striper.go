// Package striper implements an RBD-style block-image layer over the RADOS
// client: a logical device of fixed size striped across equally sized
// objects (librbd's default layout), with a header object carrying the
// image metadata. The paper's §2.1 names RBD as one of Ceph's three core
// interfaces; this package is the corresponding client-side substrate under
// internal/rbd.
package striper

import (
	"errors"
	"fmt"

	"doceph/internal/rados"
	"doceph/internal/sim"
	"doceph/internal/wire"
)

// Errors returned by the striper.
var (
	ErrExists      = errors.New("striper: image already exists")
	ErrNotFound    = errors.New("striper: image not found")
	ErrOutOfBounds = errors.New("striper: I/O beyond image size")
	ErrBadHeader   = errors.New("striper: corrupt image header")
)

// headerMagic guards header decodes.
const headerMagic = 0x5242444D // "RBDM"

// Extent maps one contiguous slice of a logical byte range onto one
// backing stripe object.
type Extent struct {
	// Index is the stripe object index (object name dataName(name, Index)).
	Index int64
	// ObjOff is the byte offset inside that object.
	ObjOff int64
	// BufOff is the byte offset inside the caller's buffer.
	BufOff int64
	// Length is the extent length in bytes.
	Length int64
}

// MapExtents splits the logical range [off, off+length) of an image
// striped over objectBytes-sized objects into per-object extents, ordered
// by ascending BufOff. It is a pure function of its arguments (the fuzz
// target of the stripe math): zero length yields no extents, negative
// offsets/lengths and non-positive object sizes are rejected.
func MapExtents(off, length, objectBytes int64) ([]Extent, error) {
	if objectBytes <= 0 {
		return nil, fmt.Errorf("striper: non-positive object size %d", objectBytes)
	}
	if off < 0 || length < 0 {
		return nil, fmt.Errorf("striper: negative range %d+%d", off, length)
	}
	if length == 0 {
		return nil, nil
	}
	if off > (1<<62)-length {
		return nil, fmt.Errorf("striper: range %d+%d overflows", off, length)
	}
	exts := make([]Extent, 0, length/objectBytes+2)
	pos := int64(0)
	for pos < length {
		idx := (off + pos) / objectBytes
		objOff := (off + pos) % objectBytes
		chunk := objectBytes - objOff
		if chunk > length-pos {
			chunk = length - pos
		}
		exts = append(exts, Extent{Index: idx, ObjOff: objOff, BufOff: pos, Length: chunk})
		pos += chunk
	}
	return exts, nil
}

// DefaultObjectBytes is librbd's default 4 MiB object size.
const DefaultObjectBytes = 4 << 20

// Image is an open striped block image.
type Image struct {
	client      *rados.Client
	name        string
	sizeBytes   int64
	objectBytes int64
}

func headerName(name string) string { return "rbd." + name + ".header" }

func dataName(name string, idx int64) string {
	return fmt.Sprintf("rbd.%s.%012d", name, idx)
}

func encodeHeader(size, objectBytes int64) *wire.Bufferlist {
	e := wire.NewEncoder(24)
	e.U32(headerMagic)
	e.I64(size)
	e.I64(objectBytes)
	return e.Bufferlist()
}

func decodeHeader(bl *wire.Bufferlist) (size, objectBytes int64, err error) {
	d := wire.NewDecoderBL(bl)
	if d.U32() != headerMagic {
		return 0, 0, ErrBadHeader
	}
	size = d.I64()
	objectBytes = d.I64()
	if d.Err() != nil || size <= 0 || objectBytes <= 0 {
		return 0, 0, ErrBadHeader
	}
	return size, objectBytes, nil
}

// Create makes a new image of sizeBytes striped over objectBytes objects
// (DefaultObjectBytes if zero) and returns it open.
func Create(p *sim.Proc, client *rados.Client, name string, sizeBytes, objectBytes int64) (*Image, error) {
	if objectBytes == 0 {
		objectBytes = DefaultObjectBytes
	}
	if sizeBytes <= 0 || objectBytes <= 0 {
		return nil, fmt.Errorf("striper: invalid geometry %d/%d", sizeBytes, objectBytes)
	}
	if _, _, err := client.Stat(p, headerName(name)); err == nil {
		return nil, ErrExists
	}
	if err := client.Write(p, headerName(name), encodeHeader(sizeBytes, objectBytes)); err != nil {
		return nil, fmt.Errorf("striper: writing header: %w", err)
	}
	return &Image{client: client, name: name, sizeBytes: sizeBytes, objectBytes: objectBytes}, nil
}

// Open opens an existing image by reading its header object.
func Open(p *sim.Proc, client *rados.Client, name string) (*Image, error) {
	bl, err := client.Read(p, headerName(name), 0, 0)
	if err != nil {
		if errors.Is(err, rados.ErrNotFound) {
			return nil, ErrNotFound
		}
		return nil, err
	}
	size, objectBytes, err := decodeHeader(bl)
	if err != nil {
		return nil, err
	}
	return &Image{client: client, name: name, sizeBytes: size, objectBytes: objectBytes}, nil
}

// Remove deletes an image: every data object that exists plus the header.
func Remove(p *sim.Proc, client *rados.Client, name string) error {
	img, err := Open(p, client, name)
	if err != nil {
		return err
	}
	objects := (img.sizeBytes + img.objectBytes - 1) / img.objectBytes
	for i := int64(0); i < objects; i++ {
		if err := client.Delete(p, dataName(name, i)); err != nil &&
			!errors.Is(err, rados.ErrNotFound) {
			return err
		}
	}
	return client.Delete(p, headerName(name))
}

// Name returns the image name.
func (im *Image) Name() string { return im.name }

// Size returns the logical image size in bytes.
func (im *Image) Size() int64 { return im.sizeBytes }

// ObjectBytes returns the stripe object size.
func (im *Image) ObjectBytes() int64 { return im.objectBytes }

// Objects returns the number of data objects backing the image.
func (im *Image) Objects() int64 {
	return (im.sizeBytes + im.objectBytes - 1) / im.objectBytes
}

// ObjectName returns the RADOS object backing stripe index idx (for
// placement inspection).
func (im *Image) ObjectName(idx int64) string { return dataName(im.name, idx) }

// WriteAt stores data at logical offset off, splitting across stripe
// objects as needed.
func (im *Image) WriteAt(p *sim.Proc, data *wire.Bufferlist, off int64) error {
	n := int64(data.Length())
	if off < 0 || off+n > im.sizeBytes {
		return ErrOutOfBounds
	}
	exts, err := MapExtents(off, n, im.objectBytes)
	if err != nil {
		return err
	}
	for _, e := range exts {
		sub := data.SubList(int(e.BufOff), int(e.Length))
		if err := im.client.WriteAt(p, dataName(im.name, e.Index), uint64(e.ObjOff), sub); err != nil {
			return fmt.Errorf("striper: object %d: %w", e.Index, err)
		}
	}
	return nil
}

// ReadAt returns length bytes at logical offset off; unwritten regions read
// as zeros (sparse images).
func (im *Image) ReadAt(p *sim.Proc, off, length int64) (*wire.Bufferlist, error) {
	if off < 0 || length < 0 || off+length > im.sizeBytes {
		return nil, ErrOutOfBounds
	}
	exts, err := MapExtents(off, length, im.objectBytes)
	if err != nil {
		return nil, err
	}
	out := &wire.Bufferlist{}
	for _, e := range exts {
		bl, err := im.client.Read(p, dataName(im.name, e.Index), uint64(e.ObjOff), uint64(e.Length))
		switch {
		case errors.Is(err, rados.ErrNotFound):
			out.Append(make([]byte, e.Length))
		case err != nil:
			return nil, fmt.Errorf("striper: object %d: %w", e.Index, err)
		default:
			out.AppendBufferlist(bl)
			if short := e.Length - int64(bl.Length()); short > 0 {
				// Object exists but is shorter than the stripe: zero-fill.
				out.Append(make([]byte, short))
			}
		}
	}
	return out, nil
}
