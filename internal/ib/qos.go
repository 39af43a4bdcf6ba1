package ib

import "fmt"

// SL2VL is the per-device service-level to virtual-lane mapping table
// (paper §II-D2). Every switch and RNIC port holds one.
type SL2VL [int(MaxSL) + 1]VL

// DefaultSL2VL maps every SL to VL0, the configuration of the paper's
// shared-SL experiments (§VII).
func DefaultSL2VL() SL2VL {
	return SL2VL{} // zero value: all SLs -> VL0
}

// DedicatedSL2VL reproduces the paper's QoS experiment (§VIII-C): SL0 maps
// to low-priority VL0 and SL1 to high-priority VL1.
func DedicatedSL2VL() SL2VL {
	t := SL2VL{}
	t[1] = 1
	return t
}

// Map returns the VL for a service level.
func (t SL2VL) Map(sl SL) VL {
	if sl > MaxSL {
		sl = MaxSL
	}
	return t[sl]
}

// OperationalVLs is the number of VLs a port needs to carry the traffic
// this table maps: its highest VL + 1 (InfiniBand's
// PortInfo:OperationalVLs). The default table needs VL0 only.
func (t SL2VL) OperationalVLs() int {
	top := VL(0)
	for _, vl := range t {
		top = max(top, vl)
	}
	return int(top) + 1
}

// VLArbEntry gives one VL a service weight. Weight is expressed in bytes of
// credit per arbitration round; the IB spec counts weight in 64-byte units,
// so helpers below convert.
type VLArbEntry struct {
	VL     VL
	Weight int64 // bytes per round
}

// WeightUnits converts an IB-spec weight (in 64 B units, 0-255) to bytes.
func WeightUnits(units64 int) int64 { return int64(units64) * 64 }

// VLArbConfig is a simplified IB VL arbitration table: a high-priority list
// served before a low-priority list, each entry carrying a byte weight
// (deficit round-robin within a list). HighLimit bounds how many bytes the
// high table may send before the arbiter must visit the low table, which is
// what keeps high-priority VLs from starving everything else — and what the
// pretend-LSG exploits in §VIII-C.
type VLArbConfig struct {
	High      []VLArbEntry
	Low       []VLArbEntry
	HighLimit int64 // bytes of high-priority service per cycle; 0 = no high table service
}

// Validate reports configuration errors.
func (c VLArbConfig) Validate() error {
	seen := map[VL]bool{}
	for _, e := range append(append([]VLArbEntry{}, c.High...), c.Low...) {
		if e.VL > MaxVL {
			return fmt.Errorf("ib: VLArb entry references VL%d > max %d", e.VL, MaxVL)
		}
		if e.Weight <= 0 {
			return fmt.Errorf("ib: VLArb entry for VL%d has non-positive weight", e.VL)
		}
		if seen[e.VL] {
			return fmt.Errorf("ib: VL%d appears twice in VLArb tables", e.VL)
		}
		seen[e.VL] = true
	}
	if len(c.High) > 0 && c.HighLimit <= 0 {
		return fmt.Errorf("ib: high table present but HighLimit is %d", c.HighLimit)
	}
	return nil
}

// SingleVLArb is the degenerate arbitration used when all traffic shares
// VL0: one low-priority entry.
func SingleVLArb() VLArbConfig {
	return VLArbConfig{
		Low: []VLArbEntry{{VL: 0, Weight: WeightUnits(64)}},
	}
}

// DedicatedVLArb reproduces the switch configuration of the paper's QoS
// experiment: VL1 in the high-priority table, VL0 in the low-priority
// table. HighLimit bounds VL1's share of the link: served H bytes of VL1
// per L bytes of VL0 when both are backlogged, VL1's maximum share is
// H/(H+L). The defaults give VL1 ~46% of wire bandwidth, which is what
// lets the pretend-LSG sustain 21.5 Gb/s of 256 B goodput (Fig. 13) while
// the real LSG still sees prompt service when VL1 is otherwise idle
// (Fig. 12, "Dedicated SL").
func DedicatedVLArb() VLArbConfig {
	return VLArbConfig{
		High:      []VLArbEntry{{VL: 1, Weight: WeightUnits(47)}}, // 3008 B
		Low:       []VLArbEntry{{VL: 0, Weight: WeightUnits(55)}}, // 3520 B
		HighLimit: WeightUnits(47),
	}
}

// --- Tenant slicing (extension) ---------------------------------------------
//
// The slicing layer (internal/experiments) divides the fabric between
// tenants: tenant i's traffic rides a dedicated VL, the switch arbitration
// weights are derived from the promised rates so VLArb enforces each
// tenant's share at the congested egress, and an injection-side token
// bucket (internal/rnic) makes the share non-work-conserving. The two
// functions below are the switch-side derivation.

// SliceSL2VL builds the SL-to-VL table for tenant slices: sls[i] — tenant
// i's service level — maps to VL i; every other SL keeps VL0.
func SliceSL2VL(sls []SL) (SL2VL, error) {
	if len(sls) > NumVLs {
		return SL2VL{}, fmt.Errorf("ib: %d tenant SLs exceed the %d virtual lanes", len(sls), NumVLs)
	}
	var t SL2VL
	var seen [int(MaxSL) + 1]bool
	for i, sl := range sls {
		if sl > MaxSL {
			return SL2VL{}, fmt.Errorf("ib: tenant %d SL%d exceeds max %d", i, sl, MaxSL)
		}
		if seen[sl] {
			return SL2VL{}, fmt.Errorf("ib: SL%d assigned to two tenants", sl)
		}
		seen[sl] = true
		t[sl] = VL(i)
	}
	return t, nil
}

// sliceRoundUnits is the total arbitration weight a slice table distributes
// across tenants, in 64 B units: 128 units = 8 KB per full round, a couple
// of maximum-size packets per tenant at typical splits — small enough that
// a latency-sensitive VL is revisited quickly, large enough that integer
// weight rounding distorts the promised shares by well under a percent.
const sliceRoundUnits = 128

// SliceVLArb derives an arbitration table from per-tenant promised rates:
// tenant i's VL i gets a weight proportional to its promised share, so DRR
// divides a congested egress in the promised ratio. Tenants flagged high
// go in the high-priority table — served ahead of the others whenever they
// have traffic and HighLimit (the sum of the high weights) is not yet
// exhausted — which is what keeps a latency tenant's small messages from
// waiting behind a full bulk round.
func SliceVLArb(promisedGbps []float64, high []bool) (VLArbConfig, error) {
	if len(promisedGbps) > NumVLs {
		return VLArbConfig{}, fmt.Errorf("ib: %d tenants exceed the %d virtual lanes", len(promisedGbps), NumVLs)
	}
	if len(high) != len(promisedGbps) {
		return VLArbConfig{}, fmt.Errorf("ib: %d high flags for %d tenants", len(high), len(promisedGbps))
	}
	var sum float64
	for i, p := range promisedGbps {
		if p <= 0 {
			return VLArbConfig{}, fmt.Errorf("ib: tenant %d promised rate must be positive, got %g", i, p)
		}
		sum += p
	}
	var cfg VLArbConfig
	for i, p := range promisedGbps {
		w := int(float64(sliceRoundUnits)*p/sum + 0.5)
		if w < 1 {
			w = 1
		}
		if w > 255 { // the IB weight field is a byte
			w = 255
		}
		e := VLArbEntry{VL: VL(i), Weight: WeightUnits(w)}
		if high[i] {
			cfg.High = append(cfg.High, e)
			cfg.HighLimit += e.Weight
		} else {
			cfg.Low = append(cfg.Low, e)
		}
	}
	if err := cfg.Validate(); err != nil {
		return VLArbConfig{}, err
	}
	return cfg, nil
}
