package report

import (
	"bytes"
	"strings"
	"testing"
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
	if tb.NumRows() != 2 {
		t.Errorf("NumRows = %d", tb.NumRows())
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("x,y", "plain")
	tb.AddRow(`quote"inside`, 5)
	var buf bytes.Buffer
	if err := tb.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "a,b\n") {
		t.Errorf("bad header: %q", out)
	}
	if !strings.Contains(out, `"x,y"`) {
		t.Errorf("comma cell not quoted: %q", out)
	}
	if !strings.Contains(out, `"quote""inside"`) {
		t.Errorf("quote cell not escaped: %q", out)
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
