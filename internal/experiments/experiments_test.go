package experiments

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/topology"
	"repro/internal/units"
)

// runQuick runs a registered experiment at smoke-test scale.
func runQuick(t *testing.T, id string) *Table {
	t.Helper()
	tbl, err := RunID(id, Quick())
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// cell parses a numeric table cell.
func cell(t *testing.T, tbl *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tbl.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("table %s cell (%d,%d) = %q: %v", tbl.ID, row, col, tbl.Rows[row][col], err)
	}
	return v
}

func TestFig4Shape(t *testing.T) {
	tbl := runQuick(t, "fig4")
	if len(tbl.Rows) != len(PayloadSweep) {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// 64 B no-switch median ~20 ns; with switch ~432 ns; switch tail gap
	// ~200 ns; no-switch RTT grows only slightly with payload.
	m64 := cell(t, tbl, 0, 1)
	if m64 < 12 || m64 > 35 {
		t.Errorf("64B no-switch median = %.1f ns, want ~20", m64)
	}
	sw64 := cell(t, tbl, 0, 3)
	if sw64 < 390 || sw64 > 480 {
		t.Errorf("64B switch median = %.1f ns, want ~432", sw64)
	}
	tail64 := cell(t, tbl, 0, 4)
	if gap := tail64 - sw64; gap < 120 || gap > 280 {
		t.Errorf("switch tail-median gap = %.1f ns, want ~193", gap)
	}
	m4k := cell(t, tbl, len(tbl.Rows)-1, 1)
	if m4k < 55 || m4k > 100 {
		t.Errorf("4096B no-switch median = %.1f ns, want ~76", m4k)
	}
}

func TestFig5Shape(t *testing.T) {
	tbl := runQuick(t, "fig5")
	// 64 B ~4.1 Gb/s; 4096 B ~52 Gb/s; monotone growth.
	if g := cell(t, tbl, 0, 1); g < 3.7 || g > 4.5 {
		t.Errorf("64B goodput = %.1f", g)
	}
	last := len(tbl.Rows) - 1
	if g := cell(t, tbl, last, 1); g < 50.5 || g > 54 {
		t.Errorf("4096B goodput = %.1f", g)
	}
	for r := 1; r < len(tbl.Rows); r++ {
		if cell(t, tbl, r, 1) <= cell(t, tbl, r-1, 1) {
			t.Errorf("bandwidth not monotone at row %d", r)
		}
	}
}

func TestFig6Shape(t *testing.T) {
	tbl := runQuick(t, "fig6")
	// Perftest ~2.2 us at 64 B, growing with payload; qperf above
	// perftest at both ends; all an order of magnitude above RPerf.
	p64 := cell(t, tbl, 0, 1)
	if p64 < 1.8 || p64 > 2.8 {
		t.Errorf("perftest 64B = %.2f us", p64)
	}
	q64 := cell(t, tbl, 0, 3)
	if q64 <= p64 {
		t.Errorf("qperf (%.2f) should exceed perftest (%.2f) at 64B", q64, p64)
	}
	last := len(tbl.Rows) - 1
	if p4k := cell(t, tbl, last, 1); p4k < 4.5 || p4k > 6.5 {
		t.Errorf("perftest 4096B = %.2f us", p4k)
	}
}

func TestFig7aShape(t *testing.T) {
	tbl := runQuick(t, "fig7a")
	// Monotone growth; ~5 us per BSG after the first.
	prev := -1.0
	for r := range tbl.Rows {
		m := cell(t, tbl, r, 1)
		if m < prev {
			t.Errorf("LSG median not monotone at %d BSGs", r)
		}
		prev = m
	}
	if m5 := cell(t, tbl, 5, 1); m5 < 15 || m5 > 27 {
		t.Errorf("5-BSG median = %.1f us, want ~20-21", m5)
	}
	if m0 := cell(t, tbl, 0, 1); m0 > 0.6 {
		t.Errorf("0-BSG median = %.2f us, want ~0.43", m0)
	}
}

func TestFig7bShape(t *testing.T) {
	tbl := runQuick(t, "fig7b")
	g1 := cell(t, tbl, 0, 1)
	g5 := cell(t, tbl, 4, 1)
	if g1 < 49.5 || g1 > 54 {
		t.Errorf("1-BSG total = %.1f", g1)
	}
	// Paper: total degrades ~7% from 1 to 5 BSGs.
	drop := (g1 - g5) / g1 * 100
	if drop < 3 || drop > 12 {
		t.Errorf("bandwidth degradation = %.1f%%, want ~7%%", drop)
	}
}

func TestEq2Table(t *testing.T) {
	tbl := runQuick(t, "eq2")
	// The frozen-occupancy model should track simulation much better than
	// the Eq. 2 bound at low BSG counts.
	model2 := cell(t, tbl, 1, 2)
	sim2 := cell(t, tbl, 1, 3)
	eq22 := cell(t, tbl, 1, 1)
	if d1, d2 := abs(model2-sim2), abs(eq22-sim2); d1 > d2 {
		t.Errorf("frozen model (%.1f) should beat Eq2 (%.1f) vs sim %.1f", model2, eq22, sim2)
	}
}

func TestFig10Shape(t *testing.T) {
	tbl := runQuick(t, "fig10")
	// FCFS at 5 BSGs ~18 us; RR much lower (~2.5 us); simulator profile
	// has median ~= tail.
	f5 := cell(t, tbl, 5, 1)
	r5 := cell(t, tbl, 5, 3)
	if f5 < 14 || f5 > 23 {
		t.Errorf("FCFS 5-BSG median = %.1f us, want ~18", f5)
	}
	if r5 > f5/3 {
		t.Errorf("RR median %.1f should be well below FCFS %.1f", r5, f5)
	}
	ftail := cell(t, tbl, 5, 2)
	if gap := ftail - f5; gap > 2.5 {
		t.Errorf("simulator median-tail gap = %.1f us, want small", gap)
	}
}

func TestFig11Shape(t *testing.T) {
	tbl := runQuick(t, "fig11")
	fcfs := cell(t, tbl, 0, 1)
	rr := cell(t, tbl, 1, 1)
	// The headline: RR no longer protects the LSG once it shares a link
	// (both policies are several microseconds, same order).
	if rr < 4 {
		t.Errorf("multi-hop RR median = %.1f us; should be far above the 2.5 us single-hop value", rr)
	}
	if fcfs < rr/2 {
		t.Errorf("FCFS (%.1f) should not be far below RR (%.1f)", fcfs, rr)
	}
}

func TestFig12Shape(t *testing.T) {
	tbl := runQuick(t, "fig12")
	noBSG := cell(t, tbl, 0, 1)
	shared := cell(t, tbl, 1, 1)
	dedicated := cell(t, tbl, 2, 1)
	pretend := cell(t, tbl, 3, 1)
	if noBSG > 0.6 {
		t.Errorf("no-BSG median = %.2f us", noBSG)
	}
	if shared < 15 {
		t.Errorf("shared-SL median = %.1f us, want ~20", shared)
	}
	if dedicated > 1.6 {
		t.Errorf("dedicated-SL median = %.2f us, want ~0.7", dedicated)
	}
	// Paper: dedicated SL improves the median ~29x.
	if ratio := shared / dedicated; ratio < 10 {
		t.Errorf("dedicated-SL improvement = %.1fx, want >> 10x", ratio)
	}
	// The pretend LSG re-inflicts queueing on the real LSG (~8.5 us).
	if pretend < 4 || pretend > 14 {
		t.Errorf("pretend median = %.1f us, want ~8.5", pretend)
	}
	if pretend < 3*dedicated {
		t.Errorf("pretend (%.1f) must clearly exceed dedicated (%.1f)", pretend, dedicated)
	}
}

func TestFig13Shape(t *testing.T) {
	tbl := runQuick(t, "fig13")
	// Row 0: dedicated+pretend — the pretend flow takes ~3x a fair BSG's
	// share. Row 1: shared SL, ~9.7 Gb/s each.
	pretendG := cell(t, tbl, 0, 5)
	bsg1 := cell(t, tbl, 0, 1)
	if pretendG < 2.2*bsg1 {
		t.Errorf("pretend goodput %.1f should be ~3x a BSG's %.1f", pretendG, bsg1)
	}
	if pretendG < 15 || pretendG > 27 {
		t.Errorf("pretend goodput = %.1f Gb/s, want ~21.5", pretendG)
	}
	sharedTotal := cell(t, tbl, 1, 6)
	if sharedTotal < 45 || sharedTotal > 51 {
		t.Errorf("shared total = %.1f Gb/s, want ~48.4", sharedTotal)
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := &Table{
		ID:      "t",
		Title:   "demo",
		Columns: []string{"a", "b"},
		Notes:   []string{"n1"},
	}
	tbl.AddRow("1", "2")
	s := tbl.String()
	for _, want := range []string{"demo", "a", "b", "1", "2", "note: n1"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "a,b\n1,2\n" {
		t.Errorf("csv = %q", got)
	}
}

func TestLookup(t *testing.T) {
	for _, id := range []string{"fig4", "fig5", "fig6", "fig7a", "fig7b", "fig8", "fig9", "eq2", "fig10", "fig11", "fig12", "fig13", "incast", "alltoall", "crossspine"} {
		if _, ok := Lookup(id); !ok {
			t.Errorf("missing definition %s", id)
		}
	}
	if _, ok := Lookup("fig99"); ok {
		t.Error("unknown id should not resolve")
	}
}

func TestOptionsWindows(t *testing.T) {
	o := Options{Measure: 2 * units.Millisecond, Warmup: units.Millisecond}
	if o.end().Sub(o.start()) != o.Measure {
		t.Error("window arithmetic wrong")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestIncastSweepShape(t *testing.T) {
	tbl := runQuick(t, "incast")
	if want := len(IncastFabrics) * len(IncastDepths); len(tbl.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(tbl.Rows), want)
	}
	// Within each fabric, the probe's median must grow with incast depth
	// (the Fig. 7a law, generalized), and the drain port must stay near
	// saturation.
	for f := range IncastFabrics {
		base := f * len(IncastDepths)
		shallow := cell(t, tbl, base, 2)
		deep := cell(t, tbl, base+len(IncastDepths)-1, 2)
		if deep < 2*shallow {
			t.Errorf("fabric %s: p50 at depth %d = %.1f us, want >= 2x depth-%d value %.1f us",
				IncastFabrics[f], IncastDepths[len(IncastDepths)-1], deep, IncastDepths[0], shallow)
		}
		for d := range IncastDepths {
			if g := cell(t, tbl, base+d, 4); g < 40 || g > 56 {
				t.Errorf("fabric %s depth %d: drain goodput = %.1f Gb/s", IncastFabrics[f], IncastDepths[d], g)
			}
		}
	}
}

func TestAllToAllShape(t *testing.T) {
	tbl := runQuick(t, "alltoall")
	// Aggregate goodput must grow with fabric size/spine count, and
	// fairness must stay a valid ratio.
	prev := 0.0
	for r := range tbl.Rows {
		total := cell(t, tbl, r, 2)
		if total <= prev {
			t.Errorf("row %d: aggregate goodput %.1f not above previous %.1f", r, total, prev)
		}
		prev = total
		if f := cell(t, tbl, r, 4); f <= 0 || f > 1 {
			t.Errorf("row %d: fairness = %.2f", r, f)
		}
	}
	// Three spines must beat one spine by well over 2x aggregate.
	if one, three := cell(t, tbl, 0, 2), cell(t, tbl, 2, 2); three < 2*one {
		t.Errorf("3-spine aggregate %.1f should dwarf 1-spine %.1f", three, one)
	}
}

func TestCrossSpineMixShape(t *testing.T) {
	tbl := runQuick(t, "crossspine")
	// Rows: shared-port at 3 depths, then disjoint-spine at 3 depths.
	sharedDeep := cell(t, tbl, 2, 2)
	disjointShallow := cell(t, tbl, 3, 2)
	disjointDeep := cell(t, tbl, 5, 2)
	if sharedDeep < 10 {
		t.Errorf("shared-port deep-incast p50 = %.1f us, want >> 10 (queueing)", sharedDeep)
	}
	if disjointDeep > 3 {
		t.Errorf("disjoint-spine p50 = %.1f us, want near zero-load (< 3)", disjointDeep)
	}
	// The disjoint probe must be flat across depths: congestion is
	// port-local.
	if disjointDeep > 1.5*disjointShallow {
		t.Errorf("disjoint probe not flat: %.2f -> %.2f us", disjointShallow, disjointDeep)
	}
}

// A latency probe placed with an explicit src keeps its NIC to itself on a
// fat-tree, whatever its kind: placement reserves the src from the
// bulk-source slots, so no BSG shares the probe's send engines.
func TestPlacementReservesProbeSrc(t *testing.T) {
	top := topology.SpecFatTree(topology.FatTreeSpec{Leaves: 2, HostsPerLeaf: 4, Spines: 1})
	poisson := &Arrival{Kind: ArrivalPoisson, RateMps: 1e5}
	for _, probe := range []Group{
		{Kind: GroupLSG, Src: ptr(1)},
		{Kind: GroupOpenLSG, Src: ptr(1), Arrival: poisson},
		{Kind: GroupRPerf, Src: ptr(1)},
		{Kind: GroupPerftest, Payload: 64, Src: ptr(1)},
		{Kind: GroupQperf, Payload: 64, Src: ptr(1)},
	} {
		p := Point{Topology: top, Workload: Workload{{Kind: GroupBSG, Count: 6, Payload: 1024}, probe}}
		if err := p.validate("point"); err != nil {
			t.Fatal(err)
		}
		_, _, bulk := placement(p)
		if want := []int{4, 5, 2, 6, 3}; !slices.Equal(bulk, want) {
			t.Errorf("%s at src 1: bulk-source slots %v, want %v", probe.Kind, bulk, want)
		}
	}
}
