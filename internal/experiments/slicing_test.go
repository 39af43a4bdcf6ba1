package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/topology"
	"repro/internal/units"
)

// The slicing suite's own determinism artifacts plus the two properties
// the tentpole promises: a tenant promised the whole link is a no-op
// (byte-identical to the unsliced golden), and a capped tenant's delivered
// rate conforms to its promise while the latency tenant's p99 stays near
// its same-seed isolation baseline.

func sliceSweep(id string, opts Options) (string, error) {
	tbl, err := RunID(id, opts)
	if err != nil {
		return "", err
	}
	return tbl.String(), nil
}

func TestSliceSweepsGoldenFile(t *testing.T) {
	for _, id := range []string{"sliceincast", "slicemix"} {
		got, err := sliceSweep(id, goldenOpts(0)) // default pool: the path users run
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, id+"_sweep.golden", got)
	}
}

func TestSliceSweepsParallelMatchesSequential(t *testing.T) {
	for _, id := range []string{"sliceincast", "slicemix"} {
		seq, err := sliceSweep(id, goldenOpts(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4} {
			par, err := sliceSweep(id, goldenOpts(workers))
			if err != nil {
				t.Fatal(err)
			}
			if par != seq {
				t.Fatalf("%d-worker %s sweep diverged from sequential:\n--- sequential ---\n%s--- parallel ---\n%s", workers, id, seq, par)
			}
		}
	}
}

// A single tenant owning every group and promised the whole link must be a
// pure relabeling: the degenerate-slice rule resolves it to no limiter and
// no QoS override, so the fig7a golden reproduces byte for byte.
func TestSliceSingleTenantEquivalence(t *testing.T) {
	d := goldenDefinition()
	base := *d.Spec.Base
	base.Tenants = []Tenant{{Name: "all", PromisedGbps: 100, Groups: []int{0, 1}}}
	d.Spec.Base = &base
	got, err := RunSpec(d, goldenOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "fig7a_sweep.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("100%%-slice run diverged from the unsliced golden:\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}

// The SLA the slicing layer sells, asserted end to end on the paper's
// 7-node rack: the bulk tenant's 4-to-1 incast delivers close to — and not
// materially above — its promised rate, and the latency tenant's p99 stays
// within 10% of the same-seed isolation baseline. The star keeps the probe
// on its own NIC, so the bound reflects fabric-level slicing, not
// engine-sharing artifacts; 512 B bulk messages keep the one-packet
// serialization quantum (the residual a probe can wait behind at the
// drain egress, ~80 ns) small next to the probe RTT.
func TestSliceConformanceGuarantee(t *testing.T) {
	p := Point{
		Topology: topology.SpecStar,
		Workload: Workload{
			{Kind: GroupBSG, Count: 4, Payload: 512},
			{Kind: GroupLSG},
		},
		Tenants: []Tenant{
			{Name: "bulk", PromisedGbps: 40, Groups: []int{0}},
			{Name: "lat", PromisedGbps: 8, HighPriority: true, Groups: []int{1}},
		},
	}
	if err := p.validate("point"); err != nil {
		t.Fatal(err)
	}
	opts := Options{Measure: 2 * units.Millisecond, Warmup: 500 * units.Microsecond}
	res, err := Run(p, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Goodput counts payload bytes while the bucket meters wire bytes, so
	// full conformance sits at the payload/wire ratio (~0.91 for 512 B),
	// never above 1 + measurement jitter.
	conf := res.TenantConf[0]
	if conf < 0.80 || conf > 1.05 {
		t.Errorf("bulk conformance = %.3f (delivered %.2f of promised 40 Gb/s), want within [0.80, 1.05]", conf, res.TenantGbps[0])
	}
	iso := res.TenantIsoP99Us[1]
	full := res.TenantP99Us[1]
	if iso <= 0 || full <= 0 {
		t.Fatalf("latency-tenant p99 missing: full=%.3f iso=%.3f µs", full, iso)
	}
	if full > 1.10*iso {
		t.Errorf("latency tenant p99 = %.3f µs vs isolation %.3f µs (%.1f%% inflation), want <= 10%%", full, iso, (full/iso-1)*100)
	}
}

// A tenant whose latency group is open loop gets its isolation baseline
// too: runScenario records an openlsg group's sojourn p99 as the tenant's
// tail, so interference must be measured against the same seed run alone.
func TestSliceOpenLoopTenantBaseline(t *testing.T) {
	p := Point{
		Topology: topology.SpecStar,
		Workload: Workload{
			{Kind: GroupBSG, Count: 4, Payload: 1024},
			{Kind: GroupOpenLSG, Arrival: &Arrival{Kind: ArrivalPoisson, RateMps: 2e5}},
		},
		Tenants: []Tenant{
			{Name: "bulk", PromisedGbps: 36, Groups: []int{0}},
			{Name: "lat", PromisedGbps: 12, HighPriority: true, Groups: []int{1}},
		},
	}
	if err := p.validate("point"); err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, Options{Measure: 2 * units.Millisecond, Warmup: 500 * units.Microsecond}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if full, iso := res.TenantP99Us[1], res.TenantIsoP99Us[1]; full <= 0 || iso <= 0 {
		t.Fatalf("open-loop latency tenant p99: full=%.3f iso=%.3f µs, want both positive", full, iso)
	}
	if pct := (Metrics{res}).value("slice_if_p99_pct"); pct <= 0 {
		t.Errorf("slice_if_p99_pct = %.1f, want the probe's inflation over its isolation baseline", pct)
	}
}
