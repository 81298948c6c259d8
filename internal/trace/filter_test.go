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

// TestJobListsArePositions: Windows, JobsByDomain and SplitByTime name jobs
// by their positions in t.Jobs, whatever the jobs' ID fields hold.
func TestJobListsArePositions(t *testing.T) {
	tr := smallTrace(t)
	for i := range tr.Jobs {
		tr.Jobs[i].ID = 99
	}
	var got []JobID
	for _, w := range tr.Windows(2) {
		got = append(got, w...)
	}
	n := 0
	for _, ids := range tr.JobsByDomain() {
		n += len(ids)
		for _, id := range ids {
			if id < 0 || int(id) >= len(tr.Jobs) {
				t.Fatalf("JobsByDomain lists %d, not a position", id)
			}
		}
	}
	for i, id := range got {
		if id != JobID(i) || n != len(tr.Jobs) {
			t.Fatalf("windows list %v and domains %d jobs, want positions 0..%d in start order", got, n, len(tr.Jobs)-1)
		}
	}
	hist, fut := tr.SplitByTime(0.5)
	if len(hist.Jobs)+len(fut.Jobs) != len(tr.Jobs) || !hist.Jobs[0].Start.Equal(tr.Jobs[0].Start) {
		t.Errorf("SplitByTime kept %d+%d jobs, history starting %v, want %d from %v",
			len(hist.Jobs), len(fut.Jobs), hist.Jobs[0].Start, len(tr.Jobs), tr.Jobs[0].Start)
	}
}
