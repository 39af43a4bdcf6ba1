package experiments

import (
	"fmt"
	"sort"
)

// The experiment registry: every figure of the paper's evaluation and
// every extension experiment is a Definition — a declarative Spec, its
// column names and, where the table derives cells, a small row-assembly
// function — registered at init time. The registry is
// what `ibsim list` prints, what Lookup/RunID resolve, and what the
// spec-serialization tests iterate to prove every compiled-in experiment
// is expressible as plain data.

var (
	registry    = map[string]Definition{}
	registryIDs []string // registration order: paper order, then extensions
	paperIDs    []string
)

// init wires the registry in paper order, then the extension and fat-tree
// suites. Registration lives in one place (rather than per-file init
// functions) so the order is explicit, not an artifact of file names.
func init() {
	registerFigures()
	registerExtensions()
	registerFatTreeSuite()
	registerSliceSuite()
	registerBigFabric()
	registerFaultSuite()
	registerLoadLatency()
}

// Register adds a definition. It panics on duplicate or empty IDs and on
// invalid specs: a figure that cannot serialize is a bug, and failing at
// init keeps the error next to the definition. The definition's identity
// is mirrored into its Spec so the serialized form is self-describing.
func Register(d Definition) {
	if d.ID == "" {
		panic("experiments: Register: empty definition ID")
	}
	if _, dup := registry[d.ID]; dup {
		panic(fmt.Sprintf("experiments: Register: duplicate definition %q", d.ID))
	}
	if d.Spec.ID == "" {
		d.Spec.ID = d.ID
	}
	if d.Spec.Title == "" {
		d.Spec.Title = d.Title
	}
	if len(d.Spec.Notes) == 0 {
		d.Spec.Notes = d.Notes
	}
	if err := d.Spec.Validate(); err != nil {
		panic(fmt.Sprintf("experiments: Register(%q): %v", d.ID, err))
	}
	registry[d.ID] = d
	registryIDs = append(registryIDs, d.ID)
	if d.Paper {
		paperIDs = append(paperIDs, d.ID)
	}
}

// Lookup resolves a definition by ID.
func Lookup(id string) (Definition, bool) {
	d, ok := registry[id]
	return d, ok
}

// Definitions returns every registered definition in registration order
// (paper order first, then the extension and fat-tree suites).
func Definitions() []Definition {
	out := make([]Definition, len(registryIDs))
	for i, id := range registryIDs {
		out[i] = registry[id]
	}
	return out
}

// IDs returns the registered experiment IDs, sorted.
func IDs() []string {
	out := append([]string(nil), registryIDs...)
	sort.Strings(out)
	return out
}

// RunID runs one registered experiment.
func RunID(id string, opts Options) (*Table, error) {
	d, ok := Lookup(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q", id)
	}
	return RunSpec(d, opts)
}

// All runs the paper's figures in paper order. Each experiment runs after
// the previous one; each parallelizes internally, so the worker-pool bound
// holds across the whole regeneration.
func All(opts Options) ([]*Table, error) {
	var out []*Table
	for _, id := range paperIDs {
		tbl, err := RunID(id, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, tbl)
	}
	return out, nil
}
