package experiments

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/units"
)

// registryOpts runs three seeds over a window that contains faultflap's
// [400us, 500us) flap. One seed cannot tell a min of per-slot means from a
// mean of per-seed minima, and it cannot show the order seed values are
// summed in; three seeds can.
func registryOpts() Options {
	return Options{
		Measure: 450 * units.Microsecond,
		Warmup:  150 * units.Microsecond,
		Seeds:   []uint64{1, 2, 3},
	}
}

// TestRegistryGoldenFile renders every registered definition, in
// registration order, into one golden file: each table's cells as its
// registered layout prints them, so a change to how any metric is reduced
// or formatted shows up as a diff.
func TestRegistryGoldenFile(t *testing.T) {
	var b strings.Builder
	for _, d := range Definitions() {
		tbl, err := RunSpec(d, registryOpts())
		if err != nil {
			t.Fatalf("%s: %v", d.ID, err)
		}
		b.WriteString(tbl.String())
		b.WriteByte('\n')
	}
	got := b.String()
	golden := filepath.Join("testdata", "registry.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("registered tables diverged from committed golden (regenerate with -update if the model change is intentional):\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestMetricReduceRules pins each reduce rule on hand-built three-seed
// results whose values make the rule visible.
func TestMetricReduceRules(t *testing.T) {
	format := func(name string, rs []Result) string {
		t.Helper()
		cell, err := FormatMetric(name, ReduceSeeds(rs))
		if err != nil {
			t.Fatal(err)
		}
		return cell
	}
	// Slot vectors whose per-slot means are flat while every seed is
	// skewed: a rule that reduced each seed first would print the skew.
	bsg := []Result{
		{BSGGbps: []float64{1, 5}},
		{BSGGbps: []float64{5, 1}},
		{BSGGbps: []float64{3, 3}},
	}
	tenants := []Result{
		{TenantGbps: []float64{1, 2}, TenantConf: []float64{0.5, 1.5}, TenantP99Us: []float64{10, 30}, TenantP999Us: []float64{20, 60}, TenantIsoP99Us: []float64{10, 10}, TenantIsoP999Us: []float64{20, 20}},
		{TenantGbps: []float64{2, 1}, TenantConf: []float64{1.5, 0.5}, TenantP99Us: []float64{30, 10}, TenantP999Us: []float64{60, 20}, TenantIsoP99Us: []float64{10, 10}, TenantIsoP999Us: []float64{20, 20}},
		{TenantGbps: []float64{3, 3}, TenantConf: []float64{1, 1}, TenantP99Us: []float64{20, 20}, TenantP999Us: []float64{40, 40}, TenantIsoP99Us: []float64{10, 10}, TenantIsoP999Us: []float64{20, 20}},
	}
	for _, c := range []struct {
		name string
		rs   []Result
		want string
	}{
		// The sample count is a total, not a mean.
		{"lsg_samples", []Result{{LSG: stats.Summary{Count: 10}}, {LSG: stats.Summary{Count: 20}}, {LSG: stats.Summary{Count: 30}}}, "60"},
		// Min and max of the per-slot means [3, 3], not the means of the
		// per-seed minima (1.67) and maxima (4.33).
		{"bulk_min_gbps", bsg, "3.00"},
		{"bulk_max_gbps", bsg, "3.00"},
		{"slice_gbps", tenants, "4.00"},
		{"slice_conf_min", tenants, "1.00"},
		{"slice_conf_max", tenants, "1.00"},
		// Worst inflation of the per-slot means (20 vs 10 us), not the mean
		// of each seed's worst (166.7).
		{"slice_if_p99_pct", tenants, "100.0"},
		{"slice_if_p999_pct", tenants, "100.0"},
		// A mean sums in seed order: 1e16 + 1 rounds back to 1e16, so the
		// total is 0. Cancelling the two large values first would give 1/3.
		{"bulk_total_gbps", []Result{{Total: 1e16}, {Total: 1}, {Total: -1e16}}, "0.00"},
		{"lsg_p50_us", []Result{{LSG: stats.Summary{Median: 1 * units.Microsecond}}, {LSG: stats.Summary{Median: 2 * units.Microsecond}}, {LSG: stats.Summary{Median: 4 * units.Microsecond}}}, "2.33"},
	} {
		if got := format(c.name, c.rs); got != c.want {
			t.Errorf("%s = %s, want %s", c.name, got, c.want)
		}
	}
	// -seeds 0 reduces no results: every metric must still print a zero.
	for _, name := range MetricNames() {
		cell := format(name, nil)
		if v, err := strconv.ParseFloat(cell, 64); err != nil || v != 0 {
			t.Errorf("%s on no seeds = %q, want a zero", name, cell)
		}
	}
}
