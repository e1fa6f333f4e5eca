// Package report renders the reproduction's tables and figure series as
// aligned text (markdown-compatible pipe tables and simple bar charts),
// used by cmd/nctables and the examples.
package report

import (
	"fmt"
	"strings"
)

// Table is an aligned pipe table.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// Add appends a row; cells beyond the column count panic (a programming
// error in the table generator).
func (t *Table) Add(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("report: row has %d cells for %d columns", len(cells), len(t.Columns)))
	}
	t.rows = append(t.rows, cells)
}

// AddValues appends a row, formatting each value with fmt.Sprint.
func (t *Table) AddValues(cells ...any) {
	parts := make([]string, len(cells))
	for i, c := range cells {
		parts[i] = fmt.Sprint(c)
	}
	t.Add(parts...)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "## %s\n\n", t.Title)
	}
	writeRow := func(cells []string) {
		b.WriteString("|")
		for i, c := range cells {
			fmt.Fprintf(&b, " %-*s |", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	b.WriteString("|")
	for _, w := range widths {
		b.WriteString(strings.Repeat("-", w+2))
		b.WriteString("|")
	}
	b.WriteString("\n")
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// MB formats bytes as megabytes with three decimals, matching Table I.
func MB(bytes int) string { return fmt.Sprintf("%.3f", float64(bytes)/(1<<20)) }

// MS formats seconds as milliseconds.
func MS(sec float64) string { return fmt.Sprintf("%.3f", sec*1e3) }

// Pct formats a fraction as a percentage.
func Pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// Range formats an integer range, collapsing equal endpoints (Table I's
// "1-25" style).
func Range(lo, hi int) string {
	if lo == hi {
		return fmt.Sprint(lo)
	}
	return fmt.Sprintf("%d-%d", lo, hi)
}

// Bars renders labeled values as a text bar chart scaled to width.
func Bars(title string, labels []string, values []float64, width int) string {
	if len(labels) != len(values) {
		panic(fmt.Sprintf("report: %d labels for %d values", len(labels), len(values)))
	}
	maxV := 0.0
	maxL := 0
	for i, v := range values {
		if v > maxV {
			maxV = v
		}
		if len(labels[i]) > maxL {
			maxL = len(labels[i])
		}
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "## %s\n\n", title)
	}
	for i, v := range values {
		n := 0
		if maxV > 0 {
			n = int(v / maxV * float64(width))
		}
		fmt.Fprintf(&b, "%-*s %10.4f |%s\n", maxL, labels[i], v, strings.Repeat("#", n))
	}
	return b.String()
}

// CSV renders the table as comma-separated values (quotes are not needed
// for the numeric/identifier content these tables carry).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteString("\n")
	for _, r := range t.rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteString("\n")
	}
	return b.String()
}
