package main

import (
	"errors"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minBeyond is how many samples must lie above a reported percentile: a
// p99 needs at least 1000 samples, a p50 at least 20.
const minBeyond = 10

var errFewSamples = errors.New("too few samples for this percentile")

// percentile returns the nearest-rank pct-th percentile of xs. It refuses
// (errFewSamples) unless at least minBeyond samples lie beyond the rank,
// so a reported tail always rests on ten or more observations.
func percentile(xs []float64, pct int) (float64, error) {
	n := len(xs)
	rank := (n*pct + 99) / 100 // ceil(n*pct/100), 1-based
	if rank < 1 || n-rank < minBeyond {
		return 0, errFewSamples
	}
	return sorted(xs)[rank-1], nil
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tally accounts operations for fail_rate: every pass, POST, replay and
// probe is one attempted operation, and it fails when it returns an error
// or its output fails a check.
type tally struct {
	attempted, failed int
	errs              []error
}

// record counts one operation; a non-nil err marks it failed.
func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		t.errs = append(t.errs, err)
	}
}

// failRate is failed over attempted operations (0 when nothing ran).
func (t *tally) failRate() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
