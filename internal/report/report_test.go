package report

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "name", "count", "rate")
	tb.AddRow("alpha", 10, 0.51234)
	tb.AddRow("b", 2000, 3.0)
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "== demo ==") {
		t.Errorf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "0.5123") {
		t.Errorf("missing cells:\n%s", out)
	}
	if !strings.Contains(out, "3") {
		t.Errorf("missing integer-valued float:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
	if rows := tb.Rows(); len(rows) != 2 || rows[0][2] != "0.5123" {
		t.Errorf("Rows = %q", rows)
	}
}

// TestFormatFloatSmall: a nonzero value under 1e-4 keeps three significant
// digits, so 0.00005 and 0.0001 (cache sizes of one sweep) stay apart.
func TestFormatFloatSmall(t *testing.T) {
	for v, want := range map[float64]string{
		0.00001: "1e-05", 0.00005: "5e-05", -0.00005: "-5e-05", 0.0000123456: "1.23e-05",
		0.0001: "0.0001", 0.00012345: "0.0001", 0: "0", 0.5: "0.5000",
	} {
		if got := formatFloat(v); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

// seedTables builds one table per value row: a text cell, a count, a rate
// and a duration.
func seedTables(rows ...[]interface{}) []*Table {
	var out []*Table
	for _, r := range rows {
		tb := NewTable("t", "name", "jobs", "rate", "stage")
		tb.AddRow(r...)
		out = append(out, tb)
	}
	return out
}

func TestAggregate(t *testing.T) {
	render := func(tables []*Table) string {
		t.Helper()
		agg, err := Aggregate(tables)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		agg.Render(&b)
		return strings.Split(b.String(), "\n")[3]
	}
	// Equal in every table: the cell as it is. Differing at odd N: the
	// middle value, at even N the mean of the middle two.
	odd := render(seedTables(
		[]interface{}{"a", 3, 0.25, 2 * time.Second},
		[]interface{}{"a", 1, 0.25, 1 * time.Second},
		[]interface{}{"a", 2, 0.25, 3 * time.Second}))
	if want := "a     2 [1–3]  0.2500  2s [1s–3s]"; odd != want {
		t.Errorf("odd N: got %q, want %q", odd, want)
	}
	even := render(seedTables(
		[]interface{}{"a", 1, 0.5, time.Second},
		[]interface{}{"a", 2, 0.25, time.Second}))
	if want := "a     1.50 [1–2]  0.3750 [0.2500–0.5000]  1s   "; even != want {
		t.Errorf("even N: got %q, want %q", even, want)
	}
	if got := render(seedTables([]interface{}{"a", 7, 0.5, time.Second})); got != "a     7     0.5000  1s   " {
		t.Errorf("one table: got %q", got)
	}

	// What does not fold is an error: a differing text cell, or row count.
	if _, err := Aggregate(seedTables(
		[]interface{}{"a", 1, 0.5, time.Second},
		[]interface{}{"b", 1, 0.5, time.Second})); err == nil || !strings.Contains(err.Error(), `column "name"`) {
		t.Errorf("differing text cell: err = %v", err)
	}
	short := seedTables([]interface{}{"a", 1, 0.5, time.Second}, []interface{}{"a", 1, 0.5, time.Second})
	short[1].AddRow("b", 2, 0.5, time.Second)
	if _, err := Aggregate(short); err == nil || !strings.Contains(err.Error(), "row counts differ: 1/2") {
		t.Errorf("differing row count: err = %v", err)
	}
	if _, err := Aggregate(nil); err == nil {
		t.Error("no tables: no error")
	}
}

func TestTablePanics(t *testing.T) {
	for i, f := range []func(){
		func() { NewTable("t") },
		func() { NewTable("t", "a").AddRow(1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}

func TestTimeline(t *testing.T) {
	var buf bytes.Buffer
	err := Timeline(&buf, "spans",
		[]string{"s1", "s2"},
		[]float64{0, 50},
		[]float64{50, 100},
		20)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("timeline lines = %d:\n%s", len(lines), out)
	}
	// s1 occupies the left half, s2 the right half.
	if !strings.Contains(lines[1], "|==========") || strings.HasSuffix(lines[1], "=|") {
		t.Errorf("s1 row wrong: %q", lines[1])
	}
	if !strings.Contains(lines[2], "==========|") {
		t.Errorf("s2 row wrong: %q", lines[2])
	}
}
