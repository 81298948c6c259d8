package report

import (
	"bytes"
	"strings"
	"testing"

	"filecule/internal/cache"
	"filecule/internal/sim"
)

func sweepFixture() *sim.SweepResult {
	mk := func(policy, gran string, tb float64, misses int64) sim.CellResult {
		return sim.CellResult{
			Policy: policy, Granularity: gran, CacheTB: tb,
			CapacityBytes: int64(tb * (1 << 30)),
			Metrics:       cache.Metrics{Requests: 100, Misses: misses, Hits: 100 - misses},
			MissRate:      float64(misses) / 100,
		}
	}
	return &sim.SweepResult{
		Schema: sim.SweepSchema, Engine: "single-pass", Scale: 0.5,
		Cells: []sim.CellResult{
			mk("lru", "file", 1, 60), mk("lru", "file", 10, 30),
			mk("lru", "filecule", 1, 50), mk("lru", "filecule", 10, 10),
			mk("opt", "file", 1, 40), mk("opt", "file", 10, 20),
			mk("opt", "filecule", 1, 35), mk("opt", "filecule", 10, 5),
		},
	}
}

func TestSweepTables(t *testing.T) {
	tables := SweepTables(sweepFixture())
	if len(tables) != 2 {
		t.Fatalf("got %d tables, want one per policy", len(tables))
	}
	for _, tb := range tables {
		if n := len(tb.Rows()); n != 2 {
			t.Errorf("table %q has %d rows, want one per cache size", tb.Title, n)
		}
		var buf bytes.Buffer
		if err := tb.Render(&buf); err != nil {
			t.Fatalf("render: %v", err)
		}
		out := buf.String()
		for _, want := range []string{"file miss rate", "filecule miss rate", "gain (file/filecule)"} {
			if !strings.Contains(out, want) {
				t.Errorf("table %q missing column %q:\n%s", tb.Title, want, out)
			}
		}
	}
	// The lru/1TB gain is 0.60/0.50 = 1.2.
	if row := tables[0].Rows()[0]; row[len(row)-1] != "1.20" {
		t.Errorf("lru table's first row %q: want gain 1.20", row)
	}
}

// TestSweepTablesPartialGrid covers sweeps without both paper granularities:
// no gain column, missing cells rendered as "-".
func TestSweepTablesPartialGrid(t *testing.T) {
	res := sweepFixture()
	var cells []sim.CellResult
	for _, c := range res.Cells {
		if c.Granularity == "file" && !(c.Policy == "opt" && c.CacheTB == 10) {
			cells = append(cells, c)
		}
	}
	res.Cells = cells
	tables := SweepTables(res)
	if len(tables) != 2 {
		t.Fatalf("got %d tables, want 2", len(tables))
	}
	var buf bytes.Buffer
	if err := tables[1].Render(&buf); err != nil {
		t.Fatalf("render: %v", err)
	}
	if strings.Contains(buf.String(), "gain") {
		t.Errorf("file-only sweep should have no gain column:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "-") {
		t.Errorf("missing cell should render as '-':\n%s", buf.String())
	}
}
