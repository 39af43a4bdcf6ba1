package ib

import "testing"

func TestDefaultSL2VL(t *testing.T) {
	m := DefaultSL2VL()
	for sl := SL(0); sl <= MaxSL; sl++ {
		if m.Map(sl) != 0 {
			t.Fatalf("default SL2VL should map everything to VL0, got SL%d->VL%d", sl, m.Map(sl))
		}
	}
}

func TestDedicatedSL2VL(t *testing.T) {
	m := DedicatedSL2VL()
	if m.Map(0) != 0 {
		t.Error("SL0 should map to VL0")
	}
	if m.Map(1) != 1 {
		t.Error("SL1 should map to VL1")
	}
	if m.Map(5) != 0 {
		t.Error("unconfigured SLs should map to VL0")
	}
}

func TestSL2VLOperationalVLs(t *testing.T) {
	slices, err := SliceSL2VL([]SL{4, 0, 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		table SL2VL
		want  int
	}{
		{"default", DefaultSL2VL(), 1},
		{"dedicated", DedicatedSL2VL(), 2},
		{"three tenant slices", slices, 3},
	} {
		if got := tc.table.OperationalVLs(); got != tc.want {
			t.Errorf("%s table: %d operational VLs, want %d", tc.name, got, tc.want)
		}
	}
}

func TestSL2VLClampsOutOfRange(t *testing.T) {
	m := DedicatedSL2VL()
	if m.Map(SL(200)) != m.Map(MaxSL) {
		t.Error("out-of-range SL should clamp")
	}
}

func TestWeightUnits(t *testing.T) {
	if WeightUnits(1) != 64 || WeightUnits(255) != 16320 {
		t.Fatal("weight conversion wrong")
	}
}

func TestVLArbValidate(t *testing.T) {
	if err := SingleVLArb().Validate(); err != nil {
		t.Fatalf("SingleVLArb invalid: %v", err)
	}
	if err := DedicatedVLArb().Validate(); err != nil {
		t.Fatalf("DedicatedVLArb invalid: %v", err)
	}
	bad := VLArbConfig{Low: []VLArbEntry{{VL: 20, Weight: 64}}}
	if bad.Validate() == nil {
		t.Error("VL out of range should fail validation")
	}
	bad = VLArbConfig{Low: []VLArbEntry{{VL: 0, Weight: 0}}}
	if bad.Validate() == nil {
		t.Error("zero weight should fail validation")
	}
	bad = VLArbConfig{Low: []VLArbEntry{{VL: 0, Weight: 64}, {VL: 0, Weight: 64}}}
	if bad.Validate() == nil {
		t.Error("duplicate VL should fail validation")
	}
	bad = VLArbConfig{High: []VLArbEntry{{VL: 1, Weight: 64}}}
	if bad.Validate() == nil {
		t.Error("high table without HighLimit should fail validation")
	}
}

func TestDedicatedVLArbShareMatchesCalibration(t *testing.T) {
	// The pretend-LSG calibration (DESIGN.md) needs VL1's maximum wire
	// share to be ~46%: H/(H+L).
	c := DedicatedVLArb()
	h := float64(c.High[0].Weight)
	l := float64(c.Low[0].Weight)
	share := h / (h + l)
	if share < 0.44 || share < 0.40 || share > 0.48 {
		t.Fatalf("VL1 share = %.3f, want ~0.46", share)
	}
}

func TestSliceSL2VL(t *testing.T) {
	tbl, err := SliceSL2VL([]SL{0, 5})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Map(0) != 0 || tbl.Map(5) != 1 {
		t.Fatalf("mapping wrong: SL0->%d SL5->%d", tbl.Map(0), tbl.Map(5))
	}
	if tbl.Map(3) != 0 {
		t.Fatalf("unassigned SL should keep VL0, got %d", tbl.Map(3))
	}
	if _, err := SliceSL2VL([]SL{2, 2}); err == nil {
		t.Fatal("duplicate SL accepted")
	}
	if _, err := SliceSL2VL(make([]SL, NumVLs+1)); err == nil {
		t.Fatal("more tenants than VLs accepted")
	}
}

func TestSliceVLArbWeights(t *testing.T) {
	// 36/12 promised split: weights 96/32 units of the 128-unit round,
	// exactly the 3:1 promised ratio; the high tenant's weight becomes the
	// HighLimit.
	cfg, err := SliceVLArb([]float64{36, 12}, []bool{false, true})
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Low) != 1 || cfg.Low[0].VL != 0 || cfg.Low[0].Weight != WeightUnits(96) {
		t.Fatalf("low table = %+v", cfg.Low)
	}
	if len(cfg.High) != 1 || cfg.High[0].VL != 1 || cfg.High[0].Weight != WeightUnits(32) {
		t.Fatalf("high table = %+v", cfg.High)
	}
	if cfg.HighLimit != WeightUnits(32) {
		t.Fatalf("HighLimit = %d", cfg.HighLimit)
	}
	// A tiny share still gets a positive weight.
	cfg, err = SliceVLArb([]float64{1000, 0.1}, []bool{false, false})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Low[1].Weight < 64 {
		t.Fatalf("tiny tenant weight = %d, want >= one unit", cfg.Low[1].Weight)
	}
	if _, err := SliceVLArb([]float64{10, 0}, []bool{false, false}); err == nil {
		t.Fatal("non-positive promised rate accepted")
	}
	if _, err := SliceVLArb([]float64{10}, nil); err == nil {
		t.Fatal("mismatched high flags accepted")
	}
}
