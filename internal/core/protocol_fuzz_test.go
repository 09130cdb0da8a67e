package core

import (
	"bytes"
	"strings"
	"testing"

	"doceph/internal/objstore"
	"doceph/internal/wire"
)

// controlCodecs pairs every host <-> DPU control-frame decoder with its
// encoder: each decodes a frame and, if it is accepted, re-encodes what it
// read.
var controlCodecs = map[string]func(*wire.Bufferlist) (*wire.Bufferlist, error){
	"segFallback": func(bl *wire.Bufferlist) (*wire.Bufferlist, error) {
		reqID, txnSeq, seg, total, payload, err := decodeSegFallback(bl)
		if err != nil {
			return nil, err
		}
		return encodeSegFallback(reqID, txnSeq, seg, total, payload), nil
	},
	"readReq": func(bl *wire.Bufferlist) (*wire.Bufferlist, error) {
		var r readReq
		if err := r.decode(bl, &objstore.Names{Collection: fuzzPrevColl}); err != nil {
			return nil, err
		}
		var f readReqFrame
		return f.encode(&r), nil
	},
	"txnDone": func(bl *wire.Bufferlist) (*wire.Bufferlist, error) {
		reqID, code, nanos, err := decodeTxnDone(bl)
		if err != nil {
			return nil, err
		}
		var f txnDoneFrame
		f.encode(reqID, code, nanos)
		return &f.bl.Bufferlist, nil
	},
	"readDone": func(bl *wire.Bufferlist) (*wire.Bufferlist, error) {
		reqID, code, segs, err := decodeReadDone(bl)
		if err != nil {
			return nil, err
		}
		return encodeReadDone(reqID, code, segs), nil
	},
	"txnDoneBatch": func(bl *wire.Bufferlist) (*wire.Bufferlist, error) {
		entries, err := decodeTxnDoneBatch(bl, nil)
		if err != nil {
			return nil, err
		}
		return wire.FromBytes(encodeTxnDoneBatch(entries, nil)), nil
	},
	"objRef": func(bl *wire.Bufferlist) (*wire.Bufferlist, error) {
		coll, obj, err := decodeObjRef(bl)
		if err != nil {
			return nil, err
		}
		return encodeObjRef(coll, obj), nil
	},
	"statResp": func(bl *wire.Bufferlist) (*wire.Bufferlist, error) {
		st, err := decodeStatResp(bl)
		if err != nil {
			return nil, err
		}
		return encodeStatResp(st), nil
	},
	"list": func(bl *wire.Bufferlist) (*wire.Bufferlist, error) {
		names, err := decodeList(bl)
		if err != nil {
			return nil, err
		}
		return encodeList(names), nil
	},
}

// fuzzPrevColl is the collection a read descriptor is decoded against: the
// seed's own, so the corpus takes Names.Coll's hit and its mutants the miss.
const fuzzPrevColl = "pg.3"

// FuzzControlFrames holds the control-plane decoders to the batch-frame
// decoder's contract: arbitrary, truncated or scattered input never panics,
// and a frame a decoder accepts re-encodes to the bytes it read (decoders
// read a prefix; only txnDoneBatch insists on consuming everything). A read
// descriptor also re-encodes the same into storage it fits and storage it
// outgrows.
// Run with: go test -fuzz=FuzzControlFrames ./internal/core
func FuzzControlFrames(f *testing.F) {
	var done txnDoneFrame
	done.encode(7, rcNotFound, 12345)
	var desc readReqFrame
	long := strings.Repeat("benchmark_data_prepop_", 4)
	for _, bl := range []*wire.Bufferlist{
		encodeSegFallback(1, 2, 0, 3, seeded(64, 1)),
		desc.encode(&readReq{ReqID: 9, Coll: fuzzPrevColl, Object: "obj", Off: 4096, Length: 1 << 20}),
		wire.FromBytes((&readReq{ReqID: 10, Coll: "pg.1023", Object: long}).encodeInto(nil)),
		&done.bl.Bufferlist,
		encodeReadDone(5, rcOK, 2),
		wire.FromBytes(encodeTxnDoneBatch([]txnDoneEntry{{1, rcOK, 10}, {2, rcIO, -1}}, nil)),
		encodeObjRef("pg.1", "benchmark_data_w0_0"),
		encodeObjRef("pg.7", ""), // a List request
		encodeStatResp(objstore.StatInfo{Size: 4 << 20, Version: 3, Mtime: 99}),
		encodeList([]string{"a", "bc", ""}),
	} {
		raw := bl.Bytes()
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // a list or batch claiming 4G entries
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		segLens := []int{len(raw) + 1, 7}
		if len(raw) < 4<<10 {
			segLens = append(segLens, 1)
		}
		for name, codec := range controlCodecs {
			for _, segLen := range segLens {
				again, err := codec(segmentedBL(raw, segLen))
				if err != nil {
					continue
				}
				if b := again.Bytes(); !bytes.HasPrefix(raw, b) || name == "txnDoneBatch" && len(b) != len(raw) {
					t.Fatalf("%s (segments of %d): accepted %x, re-encodes to %x", name, segLen, raw, b)
				}
			}
		}
		var r readReq
		if r.decode(segmentedBL(raw, 7), &objstore.Names{Collection: fuzzPrevColl}) == nil {
			room := make([]byte, len(raw))
			fit, grown := r.encodeInto(room), r.encodeInto(make([]byte, 1))
			if &fit[0] != &room[0] || !bytes.Equal(fit, grown) {
				t.Fatalf("readReq %+v: %x into room for %d, %x grown from 1", r, fit, len(raw), grown)
			}
		}
	})
}
