package core

import (
	"testing"
	"testing/quick"

	"filecule/internal/trace"
)

func TestComparePartitionsIdentical(t *testing.T) {
	tr := buildTrace(t, 6, [][]trace.FileID{{0, 1, 2}, {3, 4}, {5}})
	p := Identify(tr)
	s := ComparePartitions(p, p)
	if s.CommonFiles != 6 || s.PairJaccard != 1 || s.SameFileculeFrac != 1 {
		t.Errorf("self-similarity = %+v, want perfect", s)
	}
}

func TestComparePartitionsSplit(t *testing.T) {
	// a groups {0,1,2,3} as one filecule; b splits it into {0,1} and
	// {2,3}.
	trA := buildTrace(t, 4, [][]trace.FileID{{0, 1, 2, 3}})
	trB := buildTrace(t, 4, [][]trace.FileID{{0, 1}, {2, 3}})
	a, b := Identify(trA), Identify(trB)
	s := ComparePartitions(a, b)
	if s.CommonFiles != 4 {
		t.Fatalf("common = %d", s.CommonFiles)
	}
	// Pairs in a: C(4,2)=6. Pairs in b: 1+1=2, all also in a. Jaccard 2/6.
	if s.PairJaccard < 0.332 || s.PairJaccard > 0.334 {
		t.Errorf("PairJaccard = %v, want 1/3", s.PairJaccard)
	}
	if s.SameFileculeFrac != 0 {
		t.Errorf("SameFileculeFrac = %v, want 0 (every filecule changed)", s.SameFileculeFrac)
	}
}

func TestComparePartitionsPartialOverlap(t *testing.T) {
	// a: {0,1}, {2}. b: {0,1}, {3} (file 2 unseen by b, 3 unseen by a).
	trA := buildTrace(t, 4, [][]trace.FileID{{0, 1}, {2}})
	trB := buildTrace(t, 4, [][]trace.FileID{{0, 1}, {3}})
	s := ComparePartitions(Identify(trA), Identify(trB))
	if s.CommonFiles != 2 {
		t.Fatalf("common = %d, want 2", s.CommonFiles)
	}
	if s.PairJaccard != 1 || s.SameFileculeFrac != 1 {
		t.Errorf("similarity = %+v, want perfect over common files", s)
	}
}

func TestComparePartitionsSingletonsOnly(t *testing.T) {
	trA := buildTrace(t, 2, [][]trace.FileID{{0}, {1}})
	trB := buildTrace(t, 2, [][]trace.FileID{{0}, {1}})
	s := ComparePartitions(Identify(trA), Identify(trB))
	// No co-grouped pairs anywhere: trivially identical.
	if s.PairJaccard != 1 || s.SameFileculeFrac != 1 {
		t.Errorf("singleton similarity = %+v", s)
	}
}

func TestComparePartitionsSymmetricProperty(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		trA := randomTrace(t, seedA, 20, 15)
		trB := randomTrace(t, seedB, 20, 15)
		a, b := Identify(trA), Identify(trB)
		ab := ComparePartitions(a, b)
		ba := ComparePartitions(b, a)
		return ab == ba &&
			ab.PairJaccard >= 0 && ab.PairJaccard <= 1 &&
			ab.SameFileculeFrac >= 0 && ab.SameFileculeFrac <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestAnalyzeDynamics(t *testing.T) {
	tr := randomTrace(t, 11, 30, 60)
	rep := AnalyzeDynamics(tr, 3)
	if len(rep.Windows) != 3 || len(rep.Consecutive) != 2 {
		t.Fatalf("report shape: %d windows, %d consecutive", len(rep.Windows), len(rep.Consecutive))
	}
	totalJobs := 0
	for _, w := range rep.Windows {
		totalJobs += w.Jobs
		if w.Filecules > 0 && w.MeanFiles <= 0 {
			t.Errorf("window stats inconsistent: %+v", w)
		}
	}
	if totalJobs != len(tr.Jobs) {
		t.Errorf("window jobs = %d, want %d", totalJobs, len(tr.Jobs))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AnalyzeDynamics(1 window) did not panic")
			}
		}()
		AnalyzeDynamics(tr, 1)
	}()
}
