package trace

import "testing"

func TestWindowsPartitionJobs(t *testing.T) {
	tr := smallTrace(t) // jobs at t0, +2h, +4h, +6h
	ws := tr.Windows(2)
	if len(ws) != 2 {
		t.Fatalf("got %d windows", len(ws))
	}
	if len(ws[0])+len(ws[1]) != len(tr.Jobs) {
		t.Errorf("windows lose jobs: %v", ws)
	}
	// First window [t0, t0+3.5h): jobs at t0, +2h. Last job (+6h) must be
	// in the last window even though its start == span end.
	if len(ws[0]) != 2 || len(ws[1]) != 2 {
		t.Errorf("window split = %d/%d, want 2/2", len(ws[0]), len(ws[1]))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Windows(0) did not panic")
			}
		}()
		tr.Windows(0)
	}()
}

func TestWindowsEmptyTrace(t *testing.T) {
	tr := &Trace{}
	ws := tr.Windows(3)
	if len(ws) != 3 {
		t.Fatalf("got %d windows", len(ws))
	}
	for _, w := range ws {
		if len(w) != 0 {
			t.Error("empty trace produced jobs")
		}
	}
}
