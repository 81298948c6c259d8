// Package report renders experiment results as aligned text tables and
// ASCII timelines — the output layer of the per-figure experiment drivers —
// and folds the same table measured at several seeds into one.
package report

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"time"
	"unicode/utf8"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Columns []string
	rows    [][]cell
}

// cell is one table entry: its rendered text and, for a number, its value
// and how a value of its kind renders (nil for text).
type cell struct {
	text   string
	val    float64
	format func(float64) string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	if len(columns) == 0 {
		panic("report: table needs at least one column")
	}
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells are formatted with %v, floats by formatFloat.
// A number (float, integer or time.Duration) keeps its value beside its text
// for Aggregate. The number of cells must match the number of columns.
func (t *Table) AddRow(cells ...interface{}) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("report: row has %d cells, table has %d columns", len(cells), len(t.Columns)))
	}
	row := make([]cell, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = number(v, formatFloat)
		case float32:
			row[i] = number(float64(v), formatFloat)
		case int:
			row[i] = number(float64(v), formatFloat)
		case int64:
			row[i] = number(float64(v), formatFloat)
		case time.Duration:
			row[i] = number(float64(v), formatDuration)
		default:
			row[i] = cell{text: fmt.Sprintf("%v", c)}
		}
	}
	t.rows = append(t.rows, row)
}

func number(v float64, format func(float64) string) cell {
	return cell{format(v), v, format}
}

// Rows returns the rendered cells, row by row.
func (t *Table) Rows() [][]string {
	out := make([][]string, len(t.rows))
	for i, row := range t.rows {
		out[i] = make([]string, len(row))
		for j, c := range row {
			out[i][j] = c.text
		}
	}
	return out
}

func formatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.2f", v)
	case math.Abs(v) < 1e-4:
		return fmt.Sprintf("%.3g", v) // %.4f would print 0.00005 as 0.0001
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

func formatDuration(v float64) string { return time.Duration(v).String() }

// Aggregate folds tables of one shape — the same experiment at several
// seeds — into one. A cell equal in every table renders as itself; a numeric
// cell that differs renders as "median [min–max]". Tables whose titles,
// columns or row counts differ, or whose text cells differ, do not fold, and
// the error says where.
func Aggregate(tables []*Table) (*Table, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("report: no tables to aggregate")
	}
	first := tables[0]
	for _, tb := range tables[1:] {
		if tb.Title != first.Title || !slices.Equal(tb.Columns, first.Columns) {
			return nil, fmt.Errorf("titles or columns differ")
		}
		if len(tb.rows) != len(first.rows) {
			counts := make([]string, len(tables))
			for i, tb := range tables {
				counts[i] = fmt.Sprint(len(tb.rows))
			}
			return nil, fmt.Errorf("row counts differ: %s", strings.Join(counts, "/"))
		}
	}
	out := &Table{Title: first.Title, Columns: first.Columns, rows: make([][]cell, len(first.rows))}
	vals := make([]float64, len(tables))
	for i, row := range first.rows {
		out.rows[i] = make([]cell, len(row))
		for j, c := range row {
			same := true
			for k, tb := range tables {
				o := tb.rows[i][j]
				same = same && o.text == c.text
				vals[k] = o.val
				if o.text != c.text && (c.format == nil || o.format == nil) {
					return nil, fmt.Errorf("row %d column %q differs: %q, %q", i+1, first.Columns[j], c.text, o.text)
				}
			}
			if same {
				out.rows[i][j] = c
				continue
			}
			sort.Float64s(vals)
			n := len(vals)
			med := vals[n/2]
			if n%2 == 0 {
				med = (vals[n/2-1] + vals[n/2]) / 2
			}
			out.rows[i][j] = cell{text: fmt.Sprintf("%s [%s–%s]", c.format(med), c.format(vals[0]), c.format(vals[n-1]))}
		}
	}
	return out, nil
}

// Render writes the table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = utf8.RuneCountInString(c)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if n := utf8.RuneCountInString(c.text); n > widths[i] {
				widths[i] = n
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
	for _, row := range t.Rows() {
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
