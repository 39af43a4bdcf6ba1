package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/topology"
	"repro/internal/units"
)

// specOpts is a very short protocol for spec-equivalence tests: they run
// every registered experiment twice (compiled-in vs JSON round-trip), so
// the windows stay minimal.
func specOpts() Options {
	return Options{
		Measure: 400 * units.Microsecond,
		Warmup:  150 * units.Microsecond,
		Seeds:   []uint64{1},
	}
}

// TestSpecMarshalFixedPoint: Marshal -> Unmarshal -> Marshal is a fixed
// point for every registered experiment's spec. This is what makes the
// JSON form a faithful serialization rather than a lossy export.
func TestSpecMarshalFixedPoint(t *testing.T) {
	for _, d := range Definitions() {
		first, err := json.Marshal(d.Spec)
		if err != nil {
			t.Fatalf("%s: marshal: %v", d.ID, err)
		}
		parsed, err := ParseSpec(first)
		if err != nil {
			t.Fatalf("%s: reparse: %v", d.ID, err)
		}
		second, err := json.Marshal(parsed)
		if err != nil {
			t.Fatalf("%s: remarshal: %v", d.ID, err)
		}
		if string(first) != string(second) {
			t.Errorf("%s: marshal not a fixed point:\n--- first ---\n%s\n--- second ---\n%s", d.ID, first, second)
		}
	}
}

// TestSpecRoundTripRunsIdentically: serializing a registered spec to JSON,
// parsing it back and running it through the engine reproduces the
// compiled-in table byte for byte — the acceptance criterion that lets
// `ibsim run -spec` stand in for any figure.
func TestSpecRoundTripRunsIdentically(t *testing.T) {
	opts := specOpts()
	for _, d := range Definitions() {
		want, err := RunSpec(d, opts)
		if err != nil {
			t.Fatalf("%s: direct run: %v", d.ID, err)
		}
		data, err := json.Marshal(d.Spec)
		if err != nil {
			t.Fatalf("%s: marshal: %v", d.ID, err)
		}
		parsed, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("%s: parse: %v", d.ID, err)
		}
		got, err := RunSpecGeneric(parsed, opts) // resolves presentation via the registry id
		if err != nil {
			t.Fatalf("%s: round-trip run: %v", d.ID, err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: JSON round-trip diverged:\n--- direct ---\n%s--- round-trip ---\n%s", d.ID, want, got)
		}
	}
}

// TestSpecPointsPure: resolving a spec's grid twice yields identical
// points, and resolution does not mutate the shared base (axis application
// must copy workloads before writing).
func TestSpecPointsPure(t *testing.T) {
	d, ok := Lookup("fig8") // payload axis mutates the bsg group
	if !ok {
		t.Fatal("fig8 not registered")
	}
	before, _ := json.Marshal(d.Spec.Base)
	p1, err := d.Spec.Points()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := d.Spec.Points()
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(p1)
	j2, _ := json.Marshal(p2)
	if string(j1) != string(j2) {
		t.Error("two resolutions of the same spec differ")
	}
	after, _ := json.Marshal(d.Spec.Base)
	if string(before) != string(after) {
		t.Errorf("resolution mutated the base point:\nbefore %s\nafter  %s", before, after)
	}
	if p1[0].Workload[0].Payload == p1[1].Workload[0].Payload {
		t.Error("payload axis did not vary the points")
	}
}

// malformed specs must fail naming the offending field, not zero-value it.
func TestSpecValidationErrors(t *testing.T) {
	base := `{"topology":{"kind":"star"},"workload":[{"kind":"bsg","count":2,"payload":4096}]}`
	cases := []struct {
		name, spec, wantErr string
	}{
		{"unknown top-level key", `{"base":` + base + `,"collect":["lsg_p50_us"],"bogus":1}`, `unknown field "bogus"`},
		{"unknown policy", `{"base":{"topology":{"kind":"star"},"policy":"wfq","workload":[{"kind":"lsg"}]},"collect":["lsg_p50_us"]}`,
			`policy "wfq" unknown (valid: fcfs, rr, vlarb, spf)`},
		{"unknown topology kind", `{"base":{"topology":{"kind":"ring"},"workload":[{"kind":"lsg"}]},"collect":["lsg_p50_us"]}`,
			`kind "ring" unknown (valid: backtoback, fattree, star, twotier)`},
		{"port budget violation", `{"base":{"topology":{"kind":"fattree","fattree":{"leaves":2,"hosts_per_leaf":11,"spines":2,"max_ports":12}},"workload":[{"kind":"lsg"}]},"collect":["lsg_p50_us"]}`,
			`exceeds port budget`},
		{"unknown fattree field", `{"base":{"topology":{"kind":"fattree","fattree":{"leaves":2,"hosts_per_leaf":2,"spines":1,"bogus":1}},"workload":[{"kind":"lsg"}]},"collect":["lsg_p50_us"]}`,
			`unknown field "bogus"`},
		{"tiers out of range", `{"base":{"topology":{"kind":"fattree","fattree":{"tiers":4,"leaves":2,"hosts_per_leaf":2,"spines":1}},"workload":[{"kind":"lsg"}]},"collect":["lsg_p50_us"]}`,
			`tiers 4 out of range (valid: 2, 3)`},
		{"pods without three tiers", `{"base":{"topology":{"kind":"fattree","fattree":{"pods":2,"leaves":2,"hosts_per_leaf":2,"spines":1}},"workload":[{"kind":"lsg"}]},"collect":["lsg_p50_us"]}`,
			`require tiers 3`},
		{"three-tier core over budget", `{"base":{"topology":{"kind":"fattree","fattree":{"tiers":3,"pods":8,"leaves":2,"hosts_per_leaf":2,"spines":2,"max_ports":12}},"workload":[{"kind":"lsg"}]},"collect":["lsg_p50_us"]}`,
			`core radix`},
		{"shards beyond pods", `{"base":{"topology":{"kind":"fattree","fattree":{"tiers":3,"pods":4,"leaves":2,"hosts_per_leaf":2,"spines":1}},"shards":8,"workload":[{"kind":"lsg"}]},"collect":["lsg_p50_us"]}`,
			`shards 8 out of range for topology 4p2x2+1s+1c (valid: 1..4)`},
		{"shards on unshardable topology", `{"base":{"topology":{"kind":"star"},"shards":2,"workload":[{"kind":"lsg"}]},"collect":["lsg_p50_us"]}`,
			`shards 2 out of range for topology star (valid: 1)`},
		{"unknown group kind", `{"base":{"topology":{"kind":"star"},"workload":[{"kind":"bsgx"}]},"collect":["lsg_p50_us"]}`,
			`workload[0].kind "bsgx" unknown`},
		{"missing payload", `{"base":{"topology":{"kind":"star"},"workload":[{"kind":"bsg","count":2}]},"collect":["lsg_p50_us"]}`,
			`workload[0].payload must be positive`},
		{"unknown metric", `{"base":` + base + `,"collect":["lsg_p50"]}`, `collect[0] metric "lsg_p50" unknown`},
		{"empty collect", `{"base":` + base + `,"collect":[]}`, `collect must name at least one metric`},
		{"unknown axis field", `{"base":` + base + `,"sweep":[{"field":"depth","counts":[1,2]}],"collect":["lsg_p50_us"]}`,
			`sweep[0].field "depth" unknown`},
		{"axis list mismatch", `{"base":` + base + `,"sweep":[{"field":"bsgs","payloads":[64]}],"collect":["lsg_p50_us"]}`,
			`needs a non-empty counts list`},
		{"variant not first", `{"base":` + base + `,"sweep":[{"field":"bsgs","counts":[1]},{"field":"variant","variants":[{"name":"x","point":` + base2() + `}]}],"collect":["lsg_p50_us"]}`,
			`variant axis must be the first axis`},
		{"qos unknown", `{"base":{"topology":{"kind":"star"},"qos":"strict","workload":[{"kind":"lsg"}]},"collect":["lsg_p50_us"]}`,
			`qos "strict" unknown`},
		{"dst out of range", `{"base":{"topology":{"kind":"star"},"workload":[{"kind":"lsg","dst":9}]},"collect":["lsg_p50_us"]}`,
			`dst 9 out of range [0, 7)`},
		{"alltoall needs fattree", `{"base":{"topology":{"kind":"star"},"workload":[{"kind":"alltoall","payload":4096}]},"collect":["bulk_total_gbps"]}`,
			`requires a fattree topology`},
		{"src on bsg", `{"base":{"topology":{"kind":"star"},"workload":[{"kind":"bsg","count":1,"payload":4096,"src":3}]},"collect":["bulk_total_gbps"]}`,
			`workload[0].src is not valid for kind "bsg"`},
		{"src on openbsg", `{"base":{"topology":{"kind":"star"},"workload":[{"kind":"openbsg","payload":4096,"src":3,"arrival":{"kind":"poisson","rate_mps":1e6}}]},"collect":["delivered_gbps"]}`,
			`workload[0].src is not valid for kind "openbsg"`},
		{"src on alltoall", `{"base":{"topology":{"kind":"fattree","fattree":{"leaves":2,"hosts_per_leaf":2,"spines":1}},"workload":[{"kind":"alltoall","payload":4096,"src":1}]},"collect":["bulk_total_gbps"]}`,
			`workload[0].src is not valid for kind "alltoall"`},
		{"dst on alltoall", `{"base":{"topology":{"kind":"fattree","fattree":{"leaves":2,"hosts_per_leaf":2,"spines":1}},"workload":[{"kind":"alltoall","payload":4096,"dst":1}]},"collect":["bulk_total_gbps"]}`,
			`workload[0].dst is not valid for kind "alltoall"`},
		{"arrival on closed-loop kind", `{"base":{"topology":{"kind":"star"},"workload":[{"kind":"bsg","count":2,"payload":4096,"arrival":{"kind":"poisson","rate_mps":1e6}}]},"collect":["bulk_total_gbps"]}`,
			`workload[0].arrival is only valid for the open-loop kinds (openbsg, openlsg), not "bsg"`},
		{"open group missing arrival", `{"base":{"topology":{"kind":"star"},"workload":[{"kind":"openbsg","count":2,"payload":4096}]},"collect":["delivered_gbps"]}`,
			`workload[0].arrival is required for kind "openbsg"`},
		{"open group zero rate", `{"base":{"topology":{"kind":"star"},"workload":[{"kind":"openbsg","count":2,"payload":4096,"arrival":{"kind":"poisson"}}]},"collect":["delivered_gbps"]}`,
			`workload[0].arrival.rate_mps must be positive for kind "poisson", got 0`},
		{"open group negative rate", `{"base":{"topology":{"kind":"star"},"workload":[{"kind":"openlsg","arrival":{"kind":"fixed","rate_mps":-3}}]},"collect":["sojourn_p99_us"]}`,
			`workload[0].arrival.rate_mps must be positive for kind "fixed", got -3`},
		{"trace on rate-driven arrival", `{"base":{"topology":{"kind":"star"},"workload":[{"kind":"openbsg","count":2,"payload":4096,"arrival":{"kind":"poisson","rate_mps":1e6,"trace":[1,2]}}]},"collect":["delivered_gbps"]}`,
			`workload[0].arrival.trace is only valid for kind "trace", not "poisson"`},
		{"empty trace", `{"base":{"topology":{"kind":"star"},"workload":[{"kind":"openbsg","count":2,"payload":4096,"arrival":{"kind":"trace"}}]},"collect":["delivered_gbps"]}`,
			`workload[0].arrival.trace must list at least one arrival offset`},
		{"negative trace entry", `{"base":{"topology":{"kind":"star"},"workload":[{"kind":"openbsg","count":2,"payload":4096,"arrival":{"kind":"trace","trace":[0,-1,2]}}]},"collect":["delivered_gbps"]}`,
			`workload[0].arrival.trace[1] must be non-negative, got -1`},
		{"unsorted trace", `{"base":{"topology":{"kind":"star"},"workload":[{"kind":"openbsg","count":2,"payload":4096,"arrival":{"kind":"trace","trace":[0,5,3]}}]},"collect":["delivered_gbps"]}`,
			`workload[0].arrival.trace[2] (3) is before trace[1] (5): the trace must be sorted`},
		{"unknown arrival kind", `{"base":{"topology":{"kind":"star"},"workload":[{"kind":"openbsg","count":2,"payload":4096,"arrival":{"kind":"burst","rate_mps":1e6}}]},"collect":["delivered_gbps"]}`,
			`workload[0].arrival.kind "burst" unknown (valid: fixed, poisson, trace)`},
		{"open group missing payload", `{"base":{"topology":{"kind":"star"},"workload":[{"kind":"openbsg","count":2,"arrival":{"kind":"poisson","rate_mps":1e6}}]},"collect":["delivered_gbps"]}`,
			`workload[0].payload must be positive`},
		{"nonpositive load", `{"base":{"topology":{"kind":"star"},"workload":[{"kind":"openbsg","count":2,"payload":4096,"arrival":{"kind":"poisson","rate_mps":1}}]},"sweep":[{"field":"load","loads":[0.5,0]}],"collect":["sojourn_p99_us"]}`,
			`loads[1] must be positive, got 0`},
		{"load axis list mismatch", `{"base":{"topology":{"kind":"star"},"workload":[{"kind":"openbsg","count":2,"payload":4096,"arrival":{"kind":"poisson","rate_mps":1}}]},"sweep":[{"field":"load","counts":[1]}],"collect":["sojourn_p99_us"]}`,
			`needs a non-empty loads list`},
		{"missing base", `{"sweep":[{"field":"bsgs","counts":[1]}],"collect":["lsg_p50_us"]}`,
			`base is required`},
		{"tenants with dedicated qos", `{"base":{"topology":{"kind":"star"},"qos":"dedicated","workload":[{"kind":"bsg","count":2,"payload":4096}],"tenants":[{"name":"a","promised_gbps":10,"groups":[0]}]},"collect":["slice_gbps"]}`,
			`cannot combine with qos "dedicated"`},
		{"tenant nonpositive promise", `{"base":{"topology":{"kind":"star"},"workload":[{"kind":"bsg","count":2,"payload":4096}],"tenants":[{"name":"a","groups":[0]}]},"collect":["slice_gbps"]}`,
			`tenants[0].promised_gbps must be positive`},
		{"tenant duplicate SL", `{"base":{"topology":{"kind":"star"},"workload":[{"kind":"bsg","count":2,"payload":4096},{"kind":"lsg"}],"tenants":[{"name":"a","promised_gbps":10,"sl":1,"groups":[0]},{"name":"b","promised_gbps":10,"groups":[1]}]},"collect":["slice_gbps"]}`,
			`effective SL1 collides with tenants[0]`},
		{"tenant group out of range", `{"base":{"topology":{"kind":"star"},"workload":[{"kind":"bsg","count":2,"payload":4096}],"tenants":[{"name":"a","promised_gbps":10,"groups":[1]}]},"collect":["slice_gbps"]}`,
			`references workload[1], out of range [0, 1)`},
		{"tenant double ownership", `{"base":{"topology":{"kind":"star"},"workload":[{"kind":"bsg","count":2,"payload":4096},{"kind":"lsg"}],"tenants":[{"name":"a","promised_gbps":10,"groups":[0,1]},{"name":"b","promised_gbps":10,"groups":[1]}]},"collect":["slice_gbps"]}`,
			`workload[1] already owned by tenants[0]`},
		{"fat-tree host link without bandwidth", `{"base":{"topology":{"kind":"fattree","fattree":{"leaves":2,"hosts_per_leaf":2,"spines":1,"host_link":{"bandwidth_bps":0,"propagation_ps":3000}}},"workload":[{"kind":"lsg"}]},"collect":["lsg_p50_us"]}`,
			`host_link.bandwidth_bps must be positive, got 0`},
		{"tenant incomplete coverage", `{"base":{"topology":{"kind":"star"},"workload":[{"kind":"bsg","count":2,"payload":4096},{"kind":"lsg"}],"tenants":[{"name":"a","promised_gbps":10,"groups":[0]}]},"collect":["slice_gbps"]}`,
			`workload[1] is owned by no tenant`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(tc.spec))
			if err == nil {
				t.Fatalf("spec accepted, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name the offending field (want substring %q)", err, tc.wantErr)
			}
		})
	}
}

// An axis with several value lists set names the same extra list on every
// parse: the lists are checked in a fixed order, not a map's.
func TestAxisExtraListErrorStable(t *testing.T) {
	spec := []byte(`{"base":` + base2() + `,"sweep":[{"field":"bsgs","counts":[1],"payloads":[64],"loads":[0.5],"policies":["rr"]}],"collect":["lsg_p50_us"]}`)
	_, err := ParseSpec(spec)
	if err == nil {
		t.Fatal("spec with four value lists accepted")
	}
	for range 50 {
		if _, again := ParseSpec(spec); again == nil || again.Error() != err.Error() {
			t.Fatalf("error changed between parses: %q then %v", err, again)
		}
	}
}

func base2() string {
	return `{"topology":{"kind":"star"},"workload":[{"kind":"lsg"}]}`
}

// TestRunSpecGenericNovel: a scenario never compiled in — a 4-leaf
// fat-tree, payload x incast-depth grid with a re-aimed probe — runs
// through the generic engine and produces the long-format table.
func TestRunSpecGenericNovel(t *testing.T) {
	ft := topology.FatTreeSpec{Leaves: 4, HostsPerLeaf: 3, Spines: 2}
	spec := Spec{
		ID:    "novel",
		Title: "novel scenario",
		Base: &Point{
			Topology: topology.SpecFatTree(ft),
			Workload: Workload{
				{Kind: GroupBSG, Count: 2, Payload: 4096},
				{Kind: GroupLSG, Dst: ptr(ft.NumHosts() - 2)},
			},
		},
		Sweep: []Axis{
			{Field: AxisPayload, Payloads: []int64{512, 4096}},
			{Field: AxisBSGs, Counts: []int{2, 4}},
		},
		Collect: []string{"lsg_p50_us", "bulk_total_gbps"},
	}
	data, err := spec.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := RunSpecGeneric(parsed, specOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (2 payloads x 2 depths)", len(tbl.Rows))
	}
	wantCols := []string{"payload", "bsgs", "lsg_p50_us", "bulk_total_gbps"}
	if len(tbl.Columns) != len(wantCols) {
		t.Fatalf("columns = %v, want %v", tbl.Columns, wantCols)
	}
	for i, c := range wantCols {
		if tbl.Columns[i] != c {
			t.Fatalf("columns = %v, want %v", tbl.Columns, wantCols)
		}
	}
	if tbl.Rows[0][0] != "512B" || tbl.Rows[3][1] != "4" {
		t.Errorf("axis labels wrong: %v", tbl.Rows)
	}
	// The disjoint probe must hold near-zero-load latency even at depth 4
	// (congestion is port-local; see the crossspine experiment).
	if v := cell(t, tbl, 3, 2); v > 3 {
		t.Errorf("disjoint probe p50 = %.2f us, want near zero-load", v)
	}
}

// Regression: specs that parse but no longer match a registered layout
// (or whose axes invalidate the base) must fail with named errors, never
// panic (each case crashed before the guards existed).
func TestSpecRuntimeGuards(t *testing.T) {
	opts := specOpts()

	// A registered id whose reduce assumes a fat-tree, fed a star grid:
	// safeReduce must convert the reducer's panic into an error.
	spec, err := ParseSpec([]byte(`{"id":"alltoall","base":{"topology":{"kind":"star"},
		"workload":[{"kind":"bsg","count":2,"payload":4096}]},"collect":["bulk_total_gbps"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSpecGeneric(spec, opts); err == nil || !strings.Contains(err.Error(), "generic") {
		t.Errorf("mismatched registered layout: err = %v, want row-assembly error naming -generic", err)
	}

	// A topology axis that shrinks the fabric below a Dst override: the
	// resolved point must fail validation, naming the grid point.
	spec2, err := ParseSpec([]byte(`{"base":{"topology":{"kind":"fattree","fattree":{"leaves":3,"hosts_per_leaf":3,"spines":2}},
		"workload":[{"kind":"lsg","dst":8}]},
		"sweep":[{"field":"topology","topologies":[{"kind":"star"}]}],"collect":["lsg_p50_us"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSpecGeneric(spec2, opts); err == nil || !strings.Contains(err.Error(), "point[0]") || !strings.Contains(err.Error(), "dst 8 out of range") {
		t.Errorf("axis-invalidated dst: err = %v, want point[0] dst-out-of-range", err)
	}

	// A pretend group on a topology with no free bulk-source slot must
	// error, not index bsgSrcs[-1].
	spec3, err := ParseSpec([]byte(`{"base":{"topology":{"kind":"fattree","fattree":{"leaves":1,"hosts_per_leaf":2}},
		"workload":[{"kind":"pretend"}]},"collect":["pretend_gbps"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSpecGeneric(spec3, opts); err == nil || !strings.Contains(err.Error(), "bulk-source slot") {
		t.Errorf("pretend without slots: err = %v, want bulk-source slot error", err)
	}
}

// TestTableWideRowNoPanic: a row wider than the header renders instead of
// panicking (regression: writeRow used to index widths out of range).
func TestTableWideRowNoPanic(t *testing.T) {
	tbl := &Table{ID: "w", Title: "wide", Columns: []string{"a", "b"}}
	tbl.AddRow("1", "2", "3", "longer-cell")
	s := tbl.String()
	for _, want := range []string{"1", "2", "3", "longer-cell"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	var sb strings.Builder
	if err := tbl.Emit(NewJSONLSink(&sb)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"col3":"longer-cell"`) {
		t.Errorf("jsonl missing positional key: %s", sb.String())
	}
}

// TestSinksAgreeOnCells: the three sinks render the same cells of the same
// table.
func TestSinksAgreeOnCells(t *testing.T) {
	tbl := &Table{ID: "s", Title: "sinks", Columns: []string{"k", "v"}, Notes: []string{"n"}}
	tbl.AddRow("x", "1.00")
	tbl.AddRow("y", "2.00")

	var text, csv, jsonl strings.Builder
	if err := tbl.Emit(NewTextSink(&text)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Emit(NewCSVSink(&csv)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Emit(NewJSONLSink(&jsonl)); err != nil {
		t.Fatal(err)
	}
	if got, want := csv.String(), "k,v\nx,1.00\ny,2.00\n"; got != want {
		t.Errorf("csv = %q, want %q", got, want)
	}
	if s := text.String(); !strings.Contains(s, "note: n") || !strings.Contains(s, "== s: sinks ==") {
		t.Errorf("text rendering missing title/notes:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("jsonl lines = %d, want 3 (header + 2 rows)", len(lines))
	}
	var hdr struct {
		Type string `json:"type"`
		ID   string `json:"id"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil || hdr.Type != "table" || hdr.ID != "s" {
		t.Errorf("jsonl header = %s (err %v)", lines[0], err)
	}
	var row struct {
		Cells map[string]string `json:"cells"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &row); err != nil || row.Cells["k"] != "x" || row.Cells["v"] != "1.00" {
		t.Errorf("jsonl row = %s (err %v)", lines[1], err)
	}
}

// TestExportedSpecParses: every registered spec's indented JSON form (what
// `ibsim export` writes) parses back.
func TestExportedSpecParses(t *testing.T) {
	for _, d := range Definitions() {
		data, err := d.Spec.MarshalIndent()
		if err != nil {
			t.Fatalf("%s: %v", d.ID, err)
		}
		if _, err := ParseSpec(data); err != nil {
			t.Errorf("%s: exported spec does not parse: %v", d.ID, err)
		}
	}
}

// Regression: an empty sweep axis multiplied the grid size down to zero,
// so Points() returned an empty list — and a sweep an empty table — with
// no error. Spec.Validate already rejects empty value lists in parsed
// specs, but Points() is exported and reachable with a programmatically
// built spec that was never validated; the resolver must fail loudly,
// naming the offending axis.
func TestPointsRejectEmptyAxis(t *testing.T) {
	s := Spec{
		Base: &Point{
			Topology: topology.SpecStar,
			Workload: Workload{{Kind: GroupLSG}},
		},
		Sweep:   []Axis{{Field: AxisBSGs}}, // no counts: Len() == 0
		Collect: []string{"lsg_p50_us"},
	}
	pts, err := s.Points()
	if err == nil {
		t.Fatalf("Points() accepted an empty axis and returned %d points", len(pts))
	}
	for _, want := range []string{"sweep[0]", AxisBSGs} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
}
