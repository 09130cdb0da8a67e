package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// shareLayers are the packages whose flat CPU samples get a row of their
// own; everything else in the process lands in "runtime" or "other".
var shareLayers = []string{"sim", "messenger", "cephmsg", "wire", "rados", "osd", "core", "doca", "bluestore"}

// layerOf maps a profiled function's full name onto a ledger layer.
func layerOf(function string) string {
	// Strip the symbol: the package path ends at the first dot after the
	// last slash ("doceph/internal/sim.(*Env).schedule").
	pkg := function
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	if rest, ok := strings.CutPrefix(pkg, "doceph/internal/"); ok {
		for _, l := range shareLayers {
			if rest == l {
				return l
			}
		}
		return "other"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// profileShares runs fn under the CPU profiler and folds the flat samples
// (the function executing when the sample fired) by layer into percent
// shares that sum to 100. It also returns the number of samples taken.
func profileShares(fn func() error) (values, int64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, 0, fmt.Errorf("start CPU profile: %w", err)
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, 0, err
	}
	byFunc, samples, err := flatSamples(buf.Bytes())
	if err != nil {
		return nil, 0, fmt.Errorf("read CPU profile: %w", err)
	}
	byLayer := map[string]int64{}
	var total int64
	for fn, ns := range byFunc {
		byLayer[layerOf(fn)] += ns
		total += ns
	}
	v := values{}
	for _, l := range append([]string{"runtime", "other"}, shareLayers...) {
		v[l+".host_share_pct"] = 100 * ratio(float64(byLayer[l]), float64(total))
	}
	return v, samples, nil
}

// flatSamples decodes a gzipped pprof protobuf far enough to return the
// last sample value (CPU nanoseconds) summed per leaf function name, and
// the sample count. Only the fields that needs are read:
//
//	Profile:  2 sample, 4 location, 5 function, 6 string_table
//	Sample:   1 location_id (leaf first), 2 value
//	Location: 1 id, 4 line (innermost inlined frame first)
//	Line:     1 function_id
//	Function: 1 id, 2 name (string_table index)
func flatSamples(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}

	type sample struct {
		leaf  uint64
		value int64
	}
	var samples []sample
	locFunc := map[uint64]uint64{}  // location id -> leaf function id
	funcName := map[uint64]uint64{} // function id -> string index
	var strs []string

	err = eachField(raw, func(field int, varint uint64, body []byte) error {
		switch field {
		case 2:
			var s sample
			haveLeaf := false
			err := eachField(body, func(f int, x uint64, b []byte) error {
				ids := []uint64{x}
				if b != nil { // packed
					var err error
					if ids, err = varints(b); err != nil {
						return err
					}
				}
				if len(ids) == 0 {
					return nil
				}
				switch f {
				case 1:
					if !haveLeaf {
						s.leaf, haveLeaf = ids[0], true
					}
				case 2:
					s.value = int64(ids[len(ids)-1])
				}
				return nil
			})
			if err != nil {
				return err
			}
			if haveLeaf {
				samples = append(samples, s)
			}
		case 4:
			var id, fn uint64
			haveLine := false
			err := eachField(body, func(f int, x uint64, b []byte) error {
				switch {
				case f == 1:
					id = x
				case f == 4 && !haveLine:
					haveLine = true
					return eachField(b, func(lf int, lx uint64, _ []byte) error {
						if lf == 1 {
							fn = lx
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5:
			var id, name uint64
			err := eachField(body, func(f int, x uint64, _ []byte) error {
				switch f {
				case 1:
					id = x
				case 2:
					name = x
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(body))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}

	out := map[string]int64{}
	for _, s := range samples {
		name := "unknown"
		if idx := funcName[locFunc[s.leaf]]; idx < uint64(len(strs)) && idx > 0 {
			name = strs[idx]
		}
		out[name] += s.value
	}
	return out, int64(len(samples)), nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited body.
func eachField(b []byte, fn func(field int, varint uint64, body []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wireType := int(key>>3), key&7
		switch wireType {
		case 0:
			x, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(field, x, nil); err != nil {
				return err
			}
		case 1, 5:
			size := 8
			if wireType == 5 {
				size = 4
			}
			if len(b) < size {
				return errTruncated
			}
			b = b[size:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			// A zero-length body is still a body, not a varint.
			if err := fn(field, 0, b[n:n+int(l):n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wireType)
		}
	}
	return nil
}

func varints(b []byte) ([]uint64, error) {
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
