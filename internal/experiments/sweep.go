package experiments

import (
	"fmt"

	"repro/internal/ib"
	"repro/internal/model"
	"repro/internal/units"
)

// The generic sweep engine: resolve a Spec's axis cross product into an
// ordered point list, and Stream the flat point×seed job grid through the
// executor, which reduces per point in seed order and assembles rows.
// Every figure and every JSON-loaded spec runs through this one path;
// parallel output is byte-identical to sequential because enumeration,
// reduction and assembly are all sequential in grid order (see runner.go
// and DESIGN.md).

// PointResult is one sweep point's outcome: the resolved point, its
// formatted axis labels (one per sweep axis, in axis order), and its
// per-seed results, read by metric name.
type PointResult struct {
	Point  Point
	Labels []string
	M      Metrics
}

// ReduceFunc assembles table rows from the point results, which arrive in
// grid-enumeration order (first axis outermost). Implementations append
// rows to t; Columns/Title/Notes are already set.
type ReduceFunc func(t *Table, pts []PointResult) error

// Definition ties a Spec to its presentation: the table identity and an
// optional custom row assembly. A nil Reduce uses the generic long-format
// layout (one row per point: axis labels, then the Collect metrics).
type Definition struct {
	ID    string
	Title string
	// Columns override the generic header (axis fields + collect names).
	Columns []string
	Notes   []string
	Spec    Spec
	Reduce  ReduceFunc
	// Paper marks the definitions that regenerate the paper's own
	// figures (the set All runs, in paper order).
	Paper bool
}

// ResolvedPoint pairs a fully-applied grid point with its formatted axis
// labels (one per sweep axis, in axis order).
type ResolvedPoint struct {
	Point  Point
	Labels []string
}

// Points resolves the sweep grid in enumeration order: the cross product
// of the axes, first axis outermost (slowest-varying). With no axes the
// grid is the base point alone.
func (s Spec) Points() ([]Point, error) {
	rps, err := s.Resolve()
	if err != nil {
		return nil, err
	}
	out := make([]Point, len(rps))
	for i, rp := range rps {
		out[i] = rp.Point
	}
	return out, nil
}

// Resolve returns the sweep grid with labels, in enumeration order — the
// points a caller of Stream (RunSpec, the serve package) hands it.
func (s Spec) Resolve() ([]ResolvedPoint, error) {
	n := 1
	for a, ax := range s.Sweep {
		// An empty axis would multiply the grid down to zero points and
		// produce an empty table with no error. Spec.Validate rejects empty
		// value lists in parsed specs, but Points/Resolve are also
		// reachable with programmatically-built specs that were never
		// validated — fail loudly here too, naming the offending axis.
		if ax.Len() == 0 {
			return nil, fmt.Errorf("spec: sweep[%d] (field %q) has no values: an empty axis collapses the grid to zero points", a, ax.Field)
		}
		n *= ax.Len()
	}
	out := make([]ResolvedPoint, 0, n)
	coord := make([]int, len(s.Sweep))
	for i := 0; i < n; i++ {
		// Decode i into axis coordinates, first axis most significant.
		rem := i
		for a := len(s.Sweep) - 1; a >= 0; a-- {
			coord[a] = rem % s.Sweep[a].Len()
			rem /= s.Sweep[a].Len()
		}
		var p Point
		if s.Base != nil {
			p = *s.Base
		}
		labels := make([]string, len(s.Sweep))
		for a, ax := range s.Sweep {
			lbl, err := axisKinds[ax.Field].apply(&p, ax, coord[a])
			if err != nil {
				return nil, err
			}
			labels[a] = lbl
		}
		// Re-validate the fully-applied point: an axis can invalidate a
		// base that validated on its own (e.g. a topology axis shrinking
		// the fabric below a Src/Dst override), and the error should name
		// the grid point, not surface as a panic mid-simulation.
		if err := p.validate(fmt.Sprintf("point[%d]", i)); err != nil {
			return nil, err
		}
		out = append(out, ResolvedPoint{Point: p, Labels: labels})
	}
	return out, nil
}

// rewriteGroups applies f to every group of a copy of the workload, so
// grid points never share group storage.
func (p *Point) rewriteGroups(f func(g *Group)) {
	gs := make(Workload, len(p.Workload))
	copy(gs, p.Workload)
	for i := range gs {
		f(&gs[i])
	}
	p.Workload = gs
}

// applyLoad rewrites every rate-driven open-loop group's arrival rate so
// the groups' combined offered wire bytes (payload + per-segment headers)
// equal load × the profile's link bandwidth — the bottleneck of every
// many-to-one pattern is the drain's host link. The load splits evenly
// across the rate-driven groups; trace-driven groups keep their schedule
// (their load is the trace's own).
func applyLoad(p *Point, load float64) error {
	fab, err := model.Profile(p.Profile)
	if err != nil {
		return err
	}
	rated := func(g Group) bool {
		return groupKinds[g.Kind].open && g.Arrival != nil && g.Arrival.Kind != ArrivalTrace
	}
	nRated := 0
	for _, g := range p.Workload {
		if rated(g) {
			nRated++
		}
	}
	if nRated == 0 {
		return fmt.Errorf("spec: load axis requires at least one rate-driven open-loop group (%s/%s with a poisson or fixed arrival)",
			GroupOpenBSG, GroupOpenLSG)
	}
	bytesPerSec := float64(p.Topology.HostLink(fab).Bandwidth) / 8
	p.rewriteGroups(func(g *Group) {
		if !rated(*g) {
			return
		}
		// The arrival block is a pointer: clone it so grid points never
		// share arrival storage (the same copy-on-write rule rewriteGroups
		// applies to the group slice itself).
		a := *g.Arrival
		a.RateMps = load * bytesPerSec / (float64(wireBytes(g.payload(), fab.NIC.MTU)) * float64(nRated))
		g.Arrival = &a
	})
	return nil
}

// wireBytes is one message's on-wire footprint: the payload plus the
// worst-case header of every MTU segment it is cut into.
func wireBytes(payload, mtu units.ByteSize) units.ByteSize {
	if mtu <= 0 {
		mtu = ib.DefaultMTU
	}
	segs := (payload + mtu - 1) / mtu
	if segs < 1 {
		segs = 1
	}
	return payload + segs*ib.MaxHeaderBytes
}

// RunSpec executes a definition: validate, enumerate, then Stream the
// point×seed grid into a table. The returned table is a pure function of
// (definition, options) regardless of Options.Parallel. A failed point
// fails the sweep with the first error Stream reports, a cancelled one
// with the progress it made.
func RunSpec(d Definition, opts Options) (*Table, error) {
	// Reject options no sweep can reduce, with the bounds serve puts on
	// its query parameters.
	switch {
	case len(opts.Seeds) == 0:
		return nil, fmt.Errorf("experiments: seeds must name at least one seed")
	case opts.Measure <= 0:
		return nil, fmt.Errorf("experiments: measure must be positive, got %v", opts.Measure)
	case opts.Warmup < 0:
		return nil, fmt.Errorf("experiments: warmup must be non-negative, got %v", opts.Warmup)
	}
	if err := d.Spec.Validate(); err != nil {
		return nil, err
	}
	rps, err := d.Spec.Resolve()
	if err != nil {
		return nil, err
	}
	seeds := opts.Seeds
	t := &Table{}
	var first error
	completed := Stream(opts.Ctx, d, rps, seeds, opts.workers(), func(j int) (Result, error) {
		return Run(rps[j/len(seeds)].Point, opts, seeds[j%len(seeds)])
	}, t, func(_ int, err error) {
		if first == nil {
			first = err
		}
	})
	if n := len(rps) * len(seeds); completed < n {
		return nil, fmt.Errorf("experiments: sweep cancelled after %d of %d jobs: %w", completed, n, opts.ctx().Err())
	}
	if first != nil {
		return nil, first
	}
	return t, nil
}

// TableShell builds the empty table a sweep of d fills: identity resolved
// against the spec, columns defaulted to the generic layout. Stream sends
// its meta to the sink before any row.
func TableShell(d Definition) *Table {
	t := &Table{ID: d.ID, Title: d.Title, Columns: d.Columns, Notes: d.Notes}
	if t.ID == "" {
		t.ID = d.Spec.ID
	}
	if t.Title == "" {
		t.Title = d.Spec.Title
	}
	if len(t.Notes) == 0 {
		t.Notes = d.Spec.Notes
	}
	if len(t.Columns) == 0 {
		t.Columns = genericColumns(d.Spec)
	}
	return t
}

// AssembleInto appends d's rows for the ordered point results to a table
// built by TableShell: the definition's custom Reduce when present, the
// generic long format otherwise, panics contained either way.
func AssembleInto(t *Table, d Definition, pts []PointResult) error {
	reduce := d.Reduce
	if reduce == nil {
		reduce = genericReduce(d.Spec)
	}
	return safeReduce(reduce, t, pts)
}

// safeReduce runs a row-assembly function, converting panics into errors.
// Registered reducers assume their published grid shape; a user-edited
// spec that keeps a registry id but reshapes the sweep must fail with a
// pointer to the -generic escape hatch, not crash the CLI.
func safeReduce(reduce ReduceFunc, t *Table, pts []PointResult) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiments: %s: row assembly failed on this spec's grid (%v); the spec no longer matches the registered layout — run it with the generic layout (ibsim run -generic) or drop/rename its id", t.ID, r)
		}
	}()
	return reduce(t, pts)
}

// genericColumns derives the long-format header: one label column per
// sweep axis, then the collected metrics.
func genericColumns(s Spec) []string {
	var cols []string
	for _, ax := range s.Sweep {
		cols = append(cols, ax.Field)
	}
	return append(cols, s.Collect...)
}

// genericRow renders one point's long-format row: axis labels, then the
// spec's Collect metrics in order. Stream writes it per point as the point
// completes; the generic reducer loops over it for a whole grid.
func genericRow(s Spec, pr PointResult) ([]string, error) {
	row := append([]string(nil), pr.Labels...)
	for _, name := range s.Collect {
		cell, err := FormatMetric(name, pr.M)
		if err != nil {
			return nil, err
		}
		row = append(row, cell)
	}
	return row, nil
}

// genericReduce renders the long format: one row per point.
func genericReduce(s Spec) ReduceFunc {
	return func(t *Table, pts []PointResult) error {
		for _, pr := range pts {
			row, err := genericRow(s, pr)
			if err != nil {
				return err
			}
			t.AddRow(row...)
		}
		return nil
	}
}

// DefinitionFor resolves a bare Spec (typically parsed from JSON) to the
// definition that runs it: the registry's presentation when the id is
// registered (title, columns, custom row assembly — so a serialized
// figure spec reproduces the figure's exact table), the generic
// presentation otherwise. The loaded spec always governs what runs.
func DefinitionFor(s Spec) Definition {
	if d, ok := Lookup(s.ID); ok {
		d.Spec = s // the loaded spec governs what runs; the registry styles it
		return d
	}
	id := s.ID
	if id == "" {
		id = "custom"
	}
	title := s.Title
	if title == "" {
		title = "user-defined experiment"
	}
	return Definition{ID: id, Title: title, Spec: s}
}

// RunSpecGeneric runs a bare Spec through DefinitionFor's resolution.
func RunSpecGeneric(s Spec, opts Options) (*Table, error) {
	return RunSpec(DefinitionFor(s), opts)
}
