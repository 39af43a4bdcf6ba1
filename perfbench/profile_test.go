package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
)

// pb is a minimal protobuf encoder for building test profiles.
type pb []byte

func (b pb) varint(x uint64) pb {
	for x >= 0x80 {
		b = append(b, byte(x)|0x80)
		x >>= 7
	}
	return append(b, byte(x))
}

func (b pb) uint(num int, x uint64) pb { return b.varint(uint64(num) << 3).varint(x) }

func (b pb) bytes(num int, v []byte) pb {
	return append(b.varint(uint64(num)<<3|2).varint(uint64(len(v))), v...)
}

func (b pb) packed(num int, xs ...uint64) pb {
	var inner pb
	for _, x := range xs {
		inner = inner.varint(x)
	}
	return b.bytes(num, inner)
}

// testProfile encodes a CPU profile: strings, functions, locations (each
// listing its inlined frames innermost first) and samples (leaf location
// first, then callers; values count, nanoseconds).
func testProfile(t *testing.T) []byte {
	strs := []string{"",
		"repro/internal/sim.(*Engine).Step",                   // 1
		"repro/internal/ibswitch.(*Switch).pick",              // 2
		"runtime.mallocgc",                                    // 3
		"repro/internal/experiments.mapOrdered[go.shape.int]", // 4
		"slices.SortFunc[go.shape.[]repro/internal/sim.Msg]",  // 5
		"internal/runtime/maps.(*Map).getWithKey",             // 6
		"repro/internal/link.(*Wire).HandleEvent",             // 7
	}
	var p pb
	p = p.bytes(1, pb(nil).uint(1, 1).uint(2, 1)) // sample_type: samples/count
	for id := uint64(1); id < uint64(len(strs)); id++ {
		p = p.bytes(5, pb(nil).uint(1, id).uint(2, id)) // function id == name index
	}
	line := func(fn uint64) []byte { return pb(nil).uint(1, fn).uint(2, 10) }
	loc := func(id uint64, fns ...uint64) {
		l := pb(nil).uint(1, id)
		for _, fn := range fns {
			l = l.bytes(4, line(fn))
		}
		p = p.bytes(4, l)
	}
	loc(1, 1)    // sim
	loc(2, 2, 1) // ibswitch inlined into sim: self is ibswitch
	loc(3, 3)    // runtime
	loc(4, 4)    // experiments, generic
	loc(5, 5)    // slices with a type argument naming sim: other
	loc(6, 6)    // internal runtime package
	loc(7, 7)    // link
	sample := func(n uint64, locs ...uint64) {
		p = p.bytes(2, pb(nil).packed(1, locs...).packed(2, n, n*10_000_000))
	}
	sample(40, 1, 4)
	sample(20, 2, 1)
	sample(10, 3, 7, 1) // self in runtime; callers do not count
	sample(5, 4)
	sample(5, 5, 1)
	sample(10, 6)
	sample(10, 7, 1)
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCPUSharesBySelfPackage(t *testing.T) {
	got, err := cpuShares(testProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 40, "ibswitch": 20, "runtime": 20, "experiments": 5, "other": 5, "link": 10}
	sum := 0.0
	for k, v := range got {
		sum += v
		if math.Abs(v-want[k]) > 1e-9 {
			t.Errorf("cpu.%s = %v%%, want %v%%", k, v, want[k])
		}
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v%%, want 100%%", sum)
	}
	for _, p := range cpuPackages {
		if _, ok := got[p]; !ok {
			t.Errorf("cpu.%s missing from the shares", p)
		}
	}
}

func TestCPUSharesRejectsGarbage(t *testing.T) {
	if _, err := cpuShares([]byte("not a profile")); err == nil {
		t.Error("cpuShares accepted bytes that are not gzip")
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte{0x12, 0x05, 0x01}) // field 2, length 5, one byte present
	zw.Close()
	if _, err := cpuShares(buf.Bytes()); err == nil {
		t.Error("cpuShares accepted a truncated message")
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Engine).Step":                  "repro/internal/sim",
		"repro/internal/sim.(*Coordinator).RunUntil.func1":   "repro/internal/sim",
		"runtime.mallocgc":                                   "runtime",
		"encoding/json.(*decodeState).object":                "encoding/json",
		"slices.SortFunc[go.shape.[]repro/internal/sim.Msg]": "slices",
		"main.main": "main",
		"nodot":     "nodot",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
