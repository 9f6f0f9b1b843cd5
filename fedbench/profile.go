package main

// CPU-profile attribution for layers without a public seam (allocation
// called inside core, the coalition engines, JSON coding): the traced run
// profiles the benchmark process and groups self samples by package. The
// profile is decoded here with a minimal protobuf reader so the benchmark
// needs nothing beyond the standard library.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuBuckets maps a reported per-layer metric to the packages whose self
// samples it counts.
var cpuBuckets = []struct {
	metric   string
	packages []string
}{
	{"cpu.allocation", []string{"fedshare/internal/allocation"}},
	{"cpu.coalition", []string{"fedshare/internal/coalition"}},
	{"cpu.core", []string{"fedshare/internal/core"}},
	{"cpu.scenario", []string{"fedshare/internal/scenario", "fedshare/internal/scenario/engine", "fedshare/internal/sweep"}},
	{"cpu.sfa", []string{"fedshare/internal/sfa"}},
	{"cpu.wal", []string{"fedshare/internal/wal"}},
	{"cpu.encoding_json", []string{"encoding/json"}},
	{"cpu.syscall", []string{"syscall", "internal/runtime/syscall", "runtime/internal/syscall"}},
	{"cpu.runtime", []string{"runtime"}},
}

// cpuShares returns each bucket's share of the profile's self samples.
func cpuShares(profile []byte) (map[string]float64, error) {
	self, total, err := selfByPackage(profile)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, b := range cpuBuckets {
		v := 0.0
		for _, p := range b.packages {
			v += self[p]
		}
		if total > 0 {
			v /= total
		}
		out[b.metric] = v
	}
	return out, nil
}

// packageOf returns the import path of a symbol such as
// "fedshare/internal/allocation.(*Memo).Solve".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// selfByPackage sums sample values by the package of each sample's leaf
// function (the innermost inlined frame of the leaf location).
func selfByPackage(profile []byte) (map[string]float64, float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs      []string
		samples   [][2][]uint64 // location ids, values
		locFunc   = map[uint64]uint64{}
		funcName  = map[uint64]uint64{} // function id -> string index
		fieldErr  error
		parseMsgs = func(b []byte, fn func(field int, wire int, v uint64, data []byte)) {
			if err := walkProto(b, fn); err != nil && fieldErr == nil {
				fieldErr = err
			}
		}
	)
	parseMsgs(raw, func(field, wire int, v uint64, data []byte) {
		switch field {
		case 2: // sample
			var locs, vals []uint64
			parseMsgs(data, func(f, w int, v uint64, d []byte) {
				switch f {
				case 1:
					locs = appendVarints(locs, w, v, d)
				case 2:
					vals = appendVarints(vals, w, v, d)
				}
			})
			samples = append(samples, [2][]uint64{locs, vals})
		case 4: // location
			var id, fn uint64
			first := true
			parseMsgs(data, func(f, w int, v uint64, d []byte) {
				switch f {
				case 1:
					id = v
				case 4: // line; the first is the innermost inlined frame
					if first {
						parseMsgs(d, func(f, w int, v uint64, _ []byte) {
							if f == 1 {
								fn = v
							}
						})
						first = false
					}
				}
			})
			locFunc[id] = fn
		case 5: // function
			var id, name uint64
			parseMsgs(data, func(f, w int, v uint64, _ []byte) {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			})
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(data))
		}
	})
	if fieldErr != nil {
		return nil, 0, fieldErr
	}
	self := map[string]float64{}
	total := 0.0
	for _, s := range samples {
		if len(s[0]) == 0 || len(s[1]) == 0 {
			continue
		}
		v := float64(s[1][len(s[1])-1])
		total += v
		name := ""
		if idx := funcName[locFunc[s[0][0]]]; int(idx) < len(strs) {
			name = strs[idx]
		}
		self[packageOf(name)] += v
	}
	return self, total, nil
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst
}

// walkProto calls fn for every field of a protobuf message: varints carry
// v, length-delimited fields carry data.
func walkProto(b []byte, fn func(field int, wire int, v uint64, data []byte)) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("cpu profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("cpu profile: bad varint")
			}
			b = b[n:]
			fn(field, wire, v, nil)
		case 1:
			if len(b) < 8 {
				return errors.New("cpu profile: short fixed64")
			}
			fn(field, wire, binary.LittleEndian.Uint64(b), nil)
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("cpu profile: bad length")
			}
			fn(field, wire, 0, b[n:n+int(l)])
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("cpu profile: short fixed32")
			}
			fn(field, wire, uint64(binary.LittleEndian.Uint32(b)), nil)
			b = b[4:]
		default:
			return fmt.Errorf("cpu profile: unsupported wire type %d", wire)
		}
	}
	return nil
}
