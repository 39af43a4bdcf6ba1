package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is a formatted experiment result: the rows a figure plots. The
// renderers live in sink.go; String and WriteCSV are conveniences over the
// corresponding sinks.
type Table struct {
	ID      string // experiment id, e.g. "fig7a"
	Title   string
	Columns []string
	Rows    [][]string
	// Notes records paper-vs-model caveats surfaced by the runner.
	Notes []string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Begin, Row and End make a Table the Sink that collects a streamed table.
func (t *Table) Begin(meta TableMeta) error {
	t.ID, t.Title, t.Columns, t.Notes = meta.ID, meta.Title, meta.Columns, meta.Notes
	return nil
}

func (t *Table) Row(cells []string) error {
	t.AddRow(cells...)
	return nil
}

func (t *Table) End() error { return nil }

// String renders an aligned text table.
func (t *Table) String() string {
	var b strings.Builder
	// The text sink cannot fail on a strings.Builder.
	_ = t.Emit(NewTextSink(&b))
	return b.String()
}

// WriteCSV emits the table as CSV (header row first).
func (t *Table) WriteCSV(w io.Writer) error { return t.Emit(NewCSVSink(w)) }

// WriteJSONL emits the table as JSON lines (a header object, then one
// object per row).
func (t *Table) WriteJSONL(w io.Writer) error { return t.Emit(NewJSONLSink(w)) }

func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
