// Package report renders the experiment tables and series the
// benchmark harness regenerates from the paper's evaluation section.
package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Table is a titled grid of cells rendered with aligned columns.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// New creates a table with the given title and column headers.
func New(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// Add appends one row.
func (t *Table) Add(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Addf appends one row, applying fmt.Sprint to each value.
func (t *Table) Addf(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with column alignment.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("=", len(t.Title)))
		b.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// WriteCSV renders the table as CSV: one header record then one record
// per row, with RFC 4180 quoting. The title is not emitted, so the
// output feeds straight into spreadsheet and plotting tools; the
// sampler time-series uses this as its machine-readable form.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Ratio formats x/base to two decimals ("1.37"); base 0 gives "-".
func Ratio(x, base float64) string {
	if base == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", x/base)
}

// Pct formats a fraction as a percentage ("7.7%").
func Pct(x float64) string {
	return fmt.Sprintf("%.1f%%", 100*x)
}

// KB formats a byte count in KB.
func KB(n uint64) string {
	return fmt.Sprintf("%.1fKB", float64(n)/1024)
}

// MB formats a byte count in MB.
func MB(n uint64) string {
	return fmt.Sprintf("%.2fMB", float64(n)/(1024*1024))
}

// WriteJSON is the one JSON encoder every harness output goes through:
// two-space-indented encoding of runs, stats, series, and telemetry
// snapshots, shared by cmd/figures -json, cmd/memfwd-sim -json, and the
// HTTP telemetry plane so their encodings can never drift apart.
// (memfwd.WriteJSON delegates here.) The session server's /op replies
// are the one exception: an appender in internal/serve writes them
// without reflection, and FuzzOpRequest holds its bytes equal to this
// function's.
func WriteJSON(w io.Writer, v interface{}) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
