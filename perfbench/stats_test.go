package main

import (
	"errors"
	"fmt"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n, pct int
		want   float64
		ok     bool
	}{
		{1000, 99, 990, true}, // rank 990, ten samples above it
		{999, 99, 0, false},   // rank 990, only nine above
		{20, 50, 10, true},    // rank 10, ten above
		{19, 50, 0, false},    // rank 10, nine above
		{3000, 99, 2970, true},
		{0, 50, 0, false},
	} {
		got, err := percentile(seq(tc.n), tc.pct)
		if tc.ok != (err == nil) {
			t.Errorf("percentile(n=%d, p%d): err %v, want ok=%v", tc.n, tc.pct, err, tc.ok)
			continue
		}
		if !tc.ok && !errors.Is(err, errFewSamples) {
			t.Errorf("percentile(n=%d, p%d): err %v, want errFewSamples", tc.n, tc.pct, err)
		}
		if got != tc.want {
			t.Errorf("percentile(n=%d, p%d) = %v, want %v", tc.n, tc.pct, got, tc.want)
		}
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{5, 1, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median odd = %v, want 3", m)
	}
	if xs[0] != 5 {
		t.Error("median reordered its input")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v, want 2.5", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %v, want 0", m)
	}
}

func TestTallyFailRate(t *testing.T) {
	var tl tally
	if tl.failRate() != 0 {
		t.Error("empty tally must report 0")
	}
	tl.record(nil)
	tl.record(fmt.Errorf("non-200 response"))
	tl.record(nil)
	tl.record(fmt.Errorf("output differs from its expectation"))
	if tl.attempted != 4 || tl.failed != 2 || len(tl.errs) != 2 {
		t.Fatalf("tally = %d attempted, %d failed, %d errors; want 4, 2, 2", tl.attempted, tl.failed, len(tl.errs))
	}
	if r := tl.failRate(); r != 0.5 {
		t.Errorf("fail rate = %v, want 0.5", r)
	}
}

func TestFaultCountersSumColumnsExactly(t *testing.T) {
	loss := `{"type":"table","id":"faultloss","title":"t","columns":["variant","drops_total","retx_total","qp_errors"]}
{"type":"row","id":"faultloss","cells":{"drops_total":"0.1","qp_errors":"0.0","retx_total":"0.2","variant":"a"}}
{"type":"row","id":"faultloss","cells":{"drops_total":"440.2","qp_errors":"1.0","retx_total":"89791.7","variant":"b"}}
`
	flap := `{"type":"table","id":"faultflap","title":"t","columns":["bsgs","failover_total","retx_total"]}
{"type":"row","id":"faultflap","cells":{"bsgs":"2","failover_total":"30.3","retx_total":"5.0"}}
{"type":"error","id":"faultflap","point":1,"error":"x"}
`
	m := map[string]float64{}
	faultCounters(m, pass{out: [][]byte{[]byte(loss), []byte(flap)}})
	for k, want := range map[string]float64{
		"link.fault_drops":   440.3,
		"rnic.retx":          89796.9, // loss and flap rows
		"ibswitch.failover":  30.3,
		"rnic.qp_errors":     1,
		"rnic.retx_per_drop": 897919.0 / 4403, // loss rows only: 89791.9 / 440.3
	} {
		if m[k] != want {
			t.Errorf("%s = %v, want %v", k, m[k], want)
		}
	}
}
