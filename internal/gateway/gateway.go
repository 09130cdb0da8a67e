// Package gateway implements an RGW-style object gateway over the RADOS
// client: named buckets whose listings live as omap entries on a per-bucket
// index object (exactly how RGW's bucket indexes work), with object data
// stored as ordinary RADOS objects. Together with the striper (RBD) this
// rounds out the paper's §2.1 trio of Ceph interfaces — and gives an
// S3-flavoured workload whose metadata path exercises the replicated omap
// machinery end to end.
package gateway

import (
	"errors"
	"fmt"

	"doceph/internal/rados"
	"doceph/internal/sim"
	"doceph/internal/wire"
)

// Errors returned by the gateway.
var (
	ErrBucketExists   = errors.New("gateway: bucket already exists")
	ErrNoBucket       = errors.New("gateway: bucket not found")
	ErrNoObject       = errors.New("gateway: object not found")
	ErrBucketNotEmpty = errors.New("gateway: bucket not empty")
)

// Gateway is a stateless front end over one RADOS client; all state lives
// in the cluster (index objects + data objects), so any number of gateway
// instances can serve the same buckets.
type Gateway struct {
	client *rados.Client
}

// New returns a gateway over client.
func New(client *rados.Client) *Gateway { return &Gateway{client: client} }

func indexObject(bucket string) string { return "gw.index." + bucket }

func dataObject(bucket, key string) string { return "gw." + bucket + "." + key }

// entry is the bucket-index record for one object.
type entry struct {
	Size uint64
	ETag uint32 // CRC32C of the content, S3-ETag style
}

func (e entry) encode() []byte {
	enc := wire.NewEncoder(12)
	enc.U64(e.Size)
	enc.U32(e.ETag)
	return enc.Bytes()
}

func decodeEntry(b []byte) (entry, error) {
	d := wire.NewDecoder(b)
	e := entry{Size: d.U64(), ETag: d.U32()}
	return e, d.Err()
}

// CreateBucket creates an empty bucket.
func (g *Gateway) CreateBucket(p *sim.Proc, bucket string) error {
	if _, _, err := g.client.Stat(p, indexObject(bucket)); err == nil {
		return ErrBucketExists
	}
	// The index object is created by its first omap access; a marker key
	// distinguishes "bucket exists, empty" from "no bucket".
	if err := g.client.OmapSet(p, indexObject(bucket), ".bucket", nil); err != nil {
		return fmt.Errorf("gateway: creating bucket %q: %w", bucket, err)
	}
	return nil
}

// bucketExists verifies the marker.
func (g *Gateway) bucketExists(p *sim.Proc, bucket string) bool {
	_, err := g.client.OmapGet(p, indexObject(bucket), ".bucket")
	return err == nil
}

// Put stores data under bucket/key and updates the bucket index.
func (g *Gateway) Put(p *sim.Proc, bucket, key string, data *wire.Bufferlist) error {
	if !g.bucketExists(p, bucket) {
		return ErrNoBucket
	}
	if err := g.client.Write(p, dataObject(bucket, key), data); err != nil {
		return fmt.Errorf("gateway: put %s/%s: %w", bucket, key, err)
	}
	e := entry{Size: uint64(data.Length()), ETag: data.CRC32C()}
	if err := g.client.OmapSet(p, indexObject(bucket), key, e.encode()); err != nil {
		return fmt.Errorf("gateway: indexing %s/%s: %w", bucket, key, err)
	}
	return nil
}

// Get returns the content of bucket/key.
func (g *Gateway) Get(p *sim.Proc, bucket, key string) (*wire.Bufferlist, error) {
	if !g.bucketExists(p, bucket) {
		return nil, ErrNoBucket
	}
	bl, err := g.client.Read(p, dataObject(bucket, key), 0, 0)
	if errors.Is(err, rados.ErrNotFound) {
		return nil, ErrNoObject
	}
	return bl, err
}

// Head returns an object's index entry without reading its data.
func (g *Gateway) Head(p *sim.Proc, bucket, key string) (size uint64, etag uint32, err error) {
	v, gerr := g.client.OmapGet(p, indexObject(bucket), key)
	if gerr != nil {
		if !g.bucketExists(p, bucket) {
			return 0, 0, ErrNoBucket
		}
		return 0, 0, ErrNoObject
	}
	e, derr := decodeEntry(v)
	if derr != nil {
		return 0, 0, derr
	}
	return e.Size, e.ETag, nil
}

// List returns the bucket's object keys in sorted order.
func (g *Gateway) List(p *sim.Proc, bucket string) ([]string, error) {
	keys, err := g.client.OmapKeys(p, indexObject(bucket))
	if err != nil {
		return nil, ErrNoBucket
	}
	out := keys[:0]
	for _, k := range keys {
		if k != ".bucket" {
			out = append(out, k)
		}
	}
	return out, nil
}

// Delete removes bucket/key and its index entry.
func (g *Gateway) Delete(p *sim.Proc, bucket, key string) error {
	if _, _, err := g.Head(p, bucket, key); err != nil {
		return err
	}
	if err := g.client.OmapRm(p, indexObject(bucket), key); err != nil {
		return err
	}
	if err := g.client.Delete(p, dataObject(bucket, key)); err != nil &&
		!errors.Is(err, rados.ErrNotFound) {
		return err
	}
	return nil
}

// DeleteBucket removes an empty bucket.
func (g *Gateway) DeleteBucket(p *sim.Proc, bucket string) error {
	keys, err := g.List(p, bucket)
	if err != nil {
		return err
	}
	if len(keys) > 0 {
		return ErrBucketNotEmpty
	}
	return g.client.Delete(p, indexObject(bucket))
}
