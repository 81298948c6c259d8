// Package report renders experiment results as aligned text tables, ASCII
// bar charts and CSV — the output layer of the per-figure experiment
// drivers.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	if len(columns) == 0 {
		panic("report: table needs at least one column")
	}
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells are formatted with %v. The number of cells
// must match the number of columns.
func (t *Table) AddRow(cells ...interface{}) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("report: row has %d cells, table has %d columns", len(cells), len(t.Columns)))
	}
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case float32:
			row[i] = formatFloat(float64(v))
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

func formatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// Render writes the table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	total := len(t.Columns)*2 - 2
	for _, w2 := range widths {
		total += w2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteString("\n")
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV writes the table as comma-separated values (quoting cells containing
// commas or quotes).
func (t *Table) CSV(w io.Writer) error {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				cell = "\"" + strings.ReplaceAll(cell, "\"", "\"\"") + "\""
			}
			b.WriteString(cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Timeline renders interval spans (Figures 11/12 style): one row per
// entity, with '=' marking the active window on a time axis of width chars.
func Timeline(w io.Writer, title string, labels []string, starts, ends []float64, width int) error {
	if len(labels) != len(starts) || len(starts) != len(ends) {
		panic("report: timeline slices must have equal length")
	}
	if width < 10 {
		width = 60
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	labelW := 0
	for i := range starts {
		if starts[i] > ends[i] {
			panic("report: timeline interval ends before it starts")
		}
		lo = math.Min(lo, starts[i])
		hi = math.Max(hi, ends[i])
		if len(labels[i]) > labelW {
			labelW = len(labels[i])
		}
	}
	if len(starts) == 0 || hi == lo {
		hi = lo + 1
	}
	pos := func(x float64) int {
		p := int((x - lo) / (hi - lo) * float64(width-1))
		if p < 0 {
			p = 0
		}
		if p >= width {
			p = width - 1
		}
		return p
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "== %s ==\n", title)
	}
	for i := range starts {
		row := make([]byte, width)
		for k := range row {
			row[k] = '.'
		}
		from, to := pos(starts[i]), pos(ends[i])
		for k := from; k <= to; k++ {
			row[k] = '='
		}
		fmt.Fprintf(&b, "%-*s |%s|\n", labelW, labels[i], row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
