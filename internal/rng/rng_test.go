package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split("jitter")
	parent2 := New(7)
	c2 := parent2.Split("jitter")
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
	p3 := New(7)
	other := p3.Split("host")
	if other.Uint64() == New(7).Split("jitter").Uint64() {
		t.Fatal("differently labeled children should differ")
	}
}

// TestSplitAdvancesParent pins Split's order dependence: the child of "b"
// differs when "a" was split from the same parent first, because Split
// draws from its parent.
func TestSplitAdvancesParent(t *testing.T) {
	alone := New(7).Split("b").Uint64()
	p := New(7)
	p.Split("a")
	if after := p.Split("b").Uint64(); after == alone {
		t.Fatal(`the child of "b" did not change when "a" was split first`)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestExpMean(t *testing.T) {
	s := New(13)
	const target = 3.5
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := s.Exp(target)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-target)/target > 0.02 {
		t.Fatalf("Exp mean = %v, want ~%v", mean, target)
	}
}

func TestExpTailQuantile(t *testing.T) {
	// The 99.9th percentile of Exp(mean) is mean*ln(1000) ~= 6.9*mean.
	s := New(17)
	const mean = 1.0
	const n = 400000
	over := 0
	for i := 0; i < n; i++ {
		if s.Exp(mean) > mean*math.Log(1000) {
			over++
		}
	}
	frac := float64(over) / n
	if math.Abs(frac-0.001) > 0.0005 {
		t.Fatalf("P(X > p99.9) = %v, want ~0.001", frac)
	}
}

func TestExpZeroMean(t *testing.T) {
	s := New(1)
	if s.Exp(0) != 0 || s.Exp(-5) != 0 {
		t.Fatal("Exp with non-positive mean should be 0")
	}
}

func TestUniform(t *testing.T) {
	s := New(19)
	for i := 0; i < 10000; i++ {
		v := s.Uniform(10, 20)
		if v < 10 || v >= 20 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestIntn(t *testing.T) {
	s := New(23)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		counts[s.Intn(7)]++
	}
	for v, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("Intn(7) value %d drawn %d times out of 70000", v, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestPerm(t *testing.T) {
	s := New(29)
	p := s.Perm(10)
	seen := make(map[int]bool)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("permutation missing elements: %v", p)
	}
}
