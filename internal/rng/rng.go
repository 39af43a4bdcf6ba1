// Package rng provides the deterministic pseudo-random number generator used
// by every stochastic element of the simulation (hardware jitter, host
// scheduling noise, generator start offsets).
//
// The simulator never touches math/rand's global state: every component that
// needs randomness receives its own *Source derived from the experiment
// seed, so a run is a pure function of (configuration, seed) and experiments
// can average several seeds exactly as the paper averages three runs.
package rng

import "math"

// Source is a SplitMix64 generator. SplitMix64 passes BigCrush, needs only
// 64 bits of state, and makes stream derivation (Split) trivial, which the
// simulator uses to hand independent streams to each component.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed. Any seed, including zero, is valid.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Split derives an independent child stream. The label keeps children of the
// same parent distinct. Derivation is NOT order-independent: Split draws
// from the parent, so the child of a label depends on how many splits (and
// draws) the parent served before it, and adding or moving one split
// reseeds every later child. Callers that must not shift when unrelated
// components are added derive from a fresh New(seed) instead (the open-loop
// arrival streams do), and fabric construction keeps its order fixed.
func (s *Source) Split(label string) *Source {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	child := New(s.Uint64() ^ h)
	// Warm the child so closely related seeds decorrelate.
	child.Uint64()
	return child
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). n must be positive.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Uniform returns a uniform float64 in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Exp returns an exponentially distributed float64 with the given mean.
func (s *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	u := s.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
