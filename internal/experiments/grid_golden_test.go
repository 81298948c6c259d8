package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// TestGridGolden pins the grid's numbers: the three experiments that replay
// through internal/grid must render, on shared's workload, exactly the
// tables under testdata. The replication tables were written before System
// staged over grid.Network; the placement table was re-recorded when
// placement moved onto System, which fetches a file a job's own earlier
// read evicted again instead of counting it as local.
func TestGridGolden(t *testing.T) {
	for _, id := range []string{"replication", "replsweep", "placement"} {
		res, err := shared.Run(id)
		if err != nil {
			t.Fatalf("Run(%s): %v", id, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Render(); got != string(want) {
			t.Errorf("%s differs from testdata/%s.golden:\n got:\n%s\nwant:\n%s", id, id, got, want)
		}
	}
}
