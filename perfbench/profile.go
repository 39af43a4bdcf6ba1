package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU profile attribution. runtime/pprof writes a gzipped protobuf
// (github.com/google/pprof/proto/profile.proto); the module takes no
// dependencies, so this decodes the handful of fields needed to charge
// each sample to the function it was executing (its self frame) and that
// function to a package.

// cpuPackages are the packages reported as cpu.<name>; everything else is
// cpu.other. "runtime" also covers the runtime's internal packages.
var cpuPackages = []string{
	"sim", "link", "ibswitch", "rnic", "traffic", "workload", "topology",
	"stats", "rng", "experiments", "serve", "core", "ib", "runtime",
}

// cpuShares returns each package's percentage of the profile's self
// samples, keyed by the cpuPackages names plus "other".
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	self, err := selfSamples(raw)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{"other": 0}
	for _, p := range cpuPackages {
		out[p] = 0
	}
	var all int64
	for fn, n := range self {
		all += n
		out[packageGroup(fn)] += float64(n)
	}
	if all > 0 {
		for k, v := range out {
			out[k] = 100 * v / float64(all)
		}
	}
	return out, nil
}

// packageGroup maps a symbol such as "repro/internal/sim.(*Engine).Step"
// to its cpuPackages entry, or "other".
func packageGroup(fn string) string {
	pkg := packageOf(fn)
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	if name, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		for _, p := range cpuPackages {
			if p == name {
				return p
			}
		}
	}
	return "other"
}

// packageOf extracts the import path from a symbol name: everything up to
// the first '.' after the last '/', ignoring type arguments in brackets.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

// selfSamples sums the first sample value (the sample count) of every
// sample by its leaf function: the innermost line of its first location.
func selfSamples(raw []byte) (map[string]int64, error) {
	var strs []string
	funcName := map[uint64]int64{}  // function id -> string index
	leafFunc := map[uint64]uint64{} // location id -> innermost function id
	type sample struct {
		loc   uint64
		value int64
	}
	var samples []sample
	err := protoFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var locs []uint64
			var vals []int64
			err := protoFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					locs = appendVarints(locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{locs[0], vals[0]})
			}
		case 4: // Location
			var id, fn uint64
			haveLine := false
			err := protoFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; the first entry is the innermost inlined frame
					if !haveLine {
						haveLine = true
						return protoFields(b, func(num int, v uint64, _ []byte) error {
							if num == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			leafFunc[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			err := protoFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]int64{}
	for _, s := range samples {
		name := "?"
		if si, ok := funcName[leafFunc[s.loc]]; ok && si >= 0 && int(si) < len(strs) {
			name = strs[si]
		}
		out[name] += s.value
	}
	return out, nil
}

var errProto = errors.New("malformed protobuf")

// protoFields calls fn for each field of a protobuf message: v carries
// varint values, b the bytes of length-delimited fields. Fixed-width
// fields are skipped.
func protoFields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := varint(msg)
		if n == 0 {
			return errProto
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = varint(msg)
			if n == 0 {
				return errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := varint(msg)
			if n == 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
			continue
		default:
			return errProto
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varint decodes one base-128 varint, returning its length (0 on error).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// appendVarints appends a repeated varint field, packed (b non-nil) or not.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
