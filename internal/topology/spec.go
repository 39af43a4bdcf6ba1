// Topology specs: the declarative, serializable description of a fabric
// shape. Spec unifies the historical closed set of topologies (back-to-back,
// the paper's star rack, the two-switch multi-hop setup) with the
// generalized fat-tree generator: the legacy shapes are degenerate fat-tree
// cases built by the one fat-tree builder (see fattree.go), but keep their
// historical switch names and RNG labels so seeded runs reproduce byte for
// byte. Callers that need a fabric's parameters before building it resolve
// them here by the builder's rules (HostLink, ShardRange).
package topology

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/model"
)

// Kind names a fabric shape.
type Kind string

// Fabric kinds.
const (
	// KindBackToBack is the two-host, no-switch setup of §VI-A.
	KindBackToBack Kind = "backtoback"
	// KindStar is the paper's rack: seven hosts behind one ToR (§V).
	KindStar Kind = "star"
	// KindTwoTier is the two-switch multi-hop setup of §VIII-B: three
	// hosts upstream, four downstream.
	KindTwoTier Kind = "twotier"
	// KindFatTree is the generalized two-layer fabric described by
	// Spec.FatTree.
	KindFatTree Kind = "fattree"
)

// Kinds returns the valid kind names, sorted, for error messages and CLI
// help.
func Kinds() []string {
	ks := []string{string(KindBackToBack), string(KindStar), string(KindTwoTier), string(KindFatTree)}
	sort.Strings(ks)
	return ks
}

// ParseKind resolves a kind name; the error names the valid set.
func ParseKind(s string) (Kind, error) {
	switch Kind(s) {
	case KindBackToBack, KindStar, KindTwoTier, KindFatTree:
		return Kind(s), nil
	}
	return "", fmt.Errorf("topology: kind %q unknown (valid: %s)", s, strings.Join(Kinds(), ", "))
}

// Spec is a serializable fabric description. The zero value is invalid;
// every Spec names its Kind, and KindFatTree additionally carries the
// generator parameters.
type Spec struct {
	Kind Kind `json:"kind"`
	// FatTree configures the generator when Kind is KindFatTree; it must
	// be nil for the fixed legacy shapes.
	FatTree *FatTreeSpec `json:"fattree,omitempty"`
}

// Fixed legacy shapes as Specs.
var (
	SpecBackToBack = Spec{Kind: KindBackToBack}
	SpecStar       = Spec{Kind: KindStar}
	SpecTwoTier    = Spec{Kind: KindTwoTier}
)

// SpecFatTree wraps a generator spec.
func SpecFatTree(ft FatTreeSpec) Spec { return Spec{Kind: KindFatTree, FatTree: &ft} }

// Validate checks the kind and, for fat-trees, the generator parameters
// (including the port budget). Errors name the offending field.
func (s Spec) Validate() error {
	if _, err := ParseKind(string(s.Kind)); err != nil {
		return err
	}
	if s.Kind == KindFatTree {
		if s.FatTree == nil {
			return fmt.Errorf("topology: kind %q requires a fattree block", s.Kind)
		}
		return s.FatTree.Validate()
	}
	if s.FatTree != nil {
		return fmt.Errorf("topology: kind %q must not carry a fattree block", s.Kind)
	}
	return nil
}

// Build constructs the cluster. Legacy kinds route through their historical
// constructors (identical wiring, names and RNG labels); fat-trees through
// the generator.
func (s Spec) Build(par model.FabricParams, seed uint64) (*Cluster, error) {
	switch s.Kind {
	case KindBackToBack:
		return BackToBack(par, seed), nil
	case KindStar:
		return Star(par, StarHosts, seed), nil
	case KindTwoTier:
		return TwoTier(par, TwoTierUp, TwoTierDown, seed), nil
	case KindFatTree:
		if s.FatTree == nil {
			return nil, fmt.Errorf("topology: kind %q requires a fattree block", s.Kind)
		}
		return FatTree(par, *s.FatTree, seed)
	}
	_, err := ParseKind(string(s.Kind))
	return nil, err
}

// HostLink resolves the cable parameters between a host and its switch,
// by the rule the builder applies: a fat-tree's HostLink override, else the
// fabric default par.Link. Every host of a fabric gets the same cable.
func (s Spec) HostLink(par model.FabricParams) model.LinkParams {
	if s.Kind == KindFatTree && s.FatTree != nil {
		return resolveLink(par, s.FatTree.HostLink)
	}
	return par.Link
}

// ShardRange describes the valid `shards` values for this spec: "1" for
// fabrics without a positive-lookahead cut, "1..Pods" for three-tier
// fat-trees. Error messages quote it so the valid range always comes from
// the same derivation the builder enforces.
func (s Spec) ShardRange() string {
	if s.Kind == KindFatTree && s.FatTree != nil && s.FatTree.Tiers == 3 {
		return fmt.Sprintf("1..%d", s.FatTree.Pods)
	}
	return "1"
}

// BuildShards constructs the cluster split across `shards` engines under a
// shard coordinator. Only three-tier fat-trees have the positive-lookahead
// pod/core cuts conservative sharding needs; every other spec admits only
// shards == 1, which is the plain single-engine Build path.
func (s Spec) BuildShards(par model.FabricParams, seed uint64, shards int) (*Cluster, error) {
	if s.Kind == KindFatTree && s.FatTree != nil && s.FatTree.Tiers == 3 {
		return FatTree3(par, *s.FatTree, seed, shards)
	}
	if shards != 1 {
		return nil, fmt.Errorf("topology: %s cannot run on %d shards (valid: %s)", s.Label(), shards, s.ShardRange())
	}
	return s.Build(par, seed)
}

// Fixed node counts of the legacy shapes (the paper's testbed).
const (
	// StarHosts is the rack size of §V.
	StarHosts = 7
	// TwoTierUp and TwoTierDown are the §VIII-B host split.
	TwoTierUp   = 3
	TwoTierDown = 4
)

// NumHosts is the total host count of the fabric.
func (s Spec) NumHosts() int {
	switch s.Kind {
	case KindBackToBack:
		return 2
	case KindStar:
		return StarHosts
	case KindTwoTier:
		return TwoTierUp + TwoTierDown
	case KindFatTree:
		if s.FatTree != nil {
			return s.FatTree.NumHosts()
		}
	}
	return 0
}

// Label is the display form: the kind name, or the LxH+Ss shape for
// fat-trees.
func (s Spec) Label() string {
	if s.Kind == KindFatTree && s.FatTree != nil {
		return s.FatTree.String()
	}
	return string(s.Kind)
}
