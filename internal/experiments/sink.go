package experiments

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Sinks receive a table's ordered rows. The sweep engine assembles tables
// and Emit streams them: CSV and JSON-lines write each row as it arrives;
// the text sink must buffer, since column alignment needs every row's
// width. All three render the same cells — the presentation layer is
// pluggable, the data is not.

// TableMeta is the table identity a sink receives before any row.
type TableMeta struct {
	ID      string
	Title   string
	Columns []string
	Notes   []string
}

// Sink consumes one table: Begin, then one Row call per row in order, then
// End.
type Sink interface {
	Begin(meta TableMeta) error
	Row(cells []string) error
	End() error
}

// Emit streams the table through a sink in row order.
func (t *Table) Emit(s Sink) error {
	if err := s.Begin(TableMeta{ID: t.ID, Title: t.Title, Columns: t.Columns, Notes: t.Notes}); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := s.Row(row); err != nil {
			return err
		}
	}
	return s.End()
}

// --- Text -------------------------------------------------------------------

// textSink renders the aligned text form. Width computation covers every
// row, including cells beyond the header — a row wider than Columns
// renders (the extra cells get their own columns) instead of panicking.
type textSink struct {
	w    io.Writer
	meta TableMeta
	rows [][]string
}

// NewTextSink returns the aligned-text sink (the `ibsim run` default).
func NewTextSink(w io.Writer) Sink { return &textSink{w: w} }

func (s *textSink) Begin(meta TableMeta) error { s.meta = meta; return nil }
func (s *textSink) Row(cells []string) error {
	s.rows = append(s.rows, cells)
	return nil
}

func (s *textSink) End() error {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", s.meta.ID, s.meta.Title)
	widths := make([]int, len(s.meta.Columns))
	for i, c := range s.meta.Columns {
		widths[i] = len(c)
	}
	for _, row := range s.rows {
		for i, cell := range row {
			if i == len(widths) {
				widths = append(widths, 0)
			}
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(s.meta.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range s.rows {
		writeRow(row)
	}
	for _, n := range s.meta.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	_, err := io.WriteString(s.w, b.String())
	return err
}

// --- CSV --------------------------------------------------------------------

type csvSink struct {
	cw *csv.Writer
}

// NewCSVSink streams rows as CSV, header first.
func NewCSVSink(w io.Writer) Sink { return &csvSink{cw: csv.NewWriter(w)} }

func (s *csvSink) Begin(meta TableMeta) error { return s.cw.Write(meta.Columns) }
func (s *csvSink) Row(cells []string) error   { return s.cw.Write(cells) }
func (s *csvSink) End() error {
	s.cw.Flush()
	return s.cw.Error()
}

// --- JSON lines -------------------------------------------------------------

type jsonlSink struct {
	enc  *json.Encoder
	meta TableMeta
}

// NewJSONLSink streams one JSON object per line: a header object carrying
// the table identity, then one object per row mapping column names to
// cells. Cells beyond the header get positional "col<N>" keys.
func NewJSONLSink(w io.Writer) Sink { return &jsonlSink{enc: json.NewEncoder(w)} }

type jsonlHeader struct {
	Type    string   `json:"type"`
	ID      string   `json:"id"`
	Title   string   `json:"title"`
	Columns []string `json:"columns"`
	Notes   []string `json:"notes,omitempty"`
}

type jsonlRow struct {
	Type  string            `json:"type"`
	ID    string            `json:"id"`
	Cells map[string]string `json:"cells"`
}

func (s *jsonlSink) Begin(meta TableMeta) error {
	s.meta = meta
	return s.enc.Encode(jsonlHeader{Type: "table", ID: meta.ID, Title: meta.Title, Columns: meta.Columns, Notes: meta.Notes})
}

func (s *jsonlSink) Row(cells []string) error {
	m := make(map[string]string, len(cells))
	for i, cell := range cells {
		key := fmt.Sprintf("col%d", i)
		if i < len(s.meta.Columns) {
			key = s.meta.Columns[i]
		}
		m[key] = cell
	}
	return s.enc.Encode(jsonlRow{Type: "row", ID: s.meta.ID, Cells: m})
}

func (s *jsonlSink) End() error { return nil }
