package core

import (
	"testing"
	"testing/quick"

	"filecule/internal/trace"
)

func TestPartialKnowledgeCoarsensProperty(t *testing.T) {
	f := func(seed int64, nf, nj uint8) bool {
		tr := randomTrace(t, seed, int(nf%40)+1, int(nj%40)+2)
		global := Identify(tr)
		for _, domain := range []string{".gov", ".de"} {
			partial := IdentifyDomain(tr, domain)
			if !Coarsens(partial, global) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCompareToGlobalOnKnownTrace(t *testing.T) {
	// Global jobs: site0 sees {0,1} and {0,1,2}; site1 sees {0,1,2,3}.
	// buildTrace assigns jobs round-robin: job0,job2 -> site0; job1 -> site1.
	tr := buildTrace(t, 4, [][]trace.FileID{
		{0, 1},       // site .gov
		{0, 1, 2, 3}, // site .de
		{0, 1, 2},    // site .gov
	})
	global := Identify(tr)
	// Global signatures: f0,f1 -> {0,1,2}; f2 -> {1,2}; f3 -> {1}.
	if global.NumFilecules() != 3 {
		t.Fatalf("global filecules = %d, want 3", global.NumFilecules())
	}

	gov := IdentifyDomain(tr, ".gov")
	// .gov only sees jobs 0 and 2: f0,f1 -> {0,2}; f2 -> {2}. f3 unseen.
	if gov.NumFilecules() != 2 {
		t.Fatalf(".gov filecules = %d, want 2", gov.NumFilecules())
	}
	st := CompareToGlobal(global, gov)
	if st.CoveredFiles != 3 {
		t.Errorf("CoveredFiles = %d, want 3", st.CoveredFiles)
	}
	// Both {0,1} and {2} match global filecules exactly by membership
	// (exactness is about grouping, not request counts).
	if st.ExactFilecules != 2 {
		t.Errorf("ExactFilecules = %d, want 2", st.ExactFilecules)
	}
	if st.MeanInflation != 1.0 || st.MaxInflation != 1.0 {
		t.Errorf("inflation = %+v, want 1.0 (no merging in this view)", st)
	}

	de := IdentifyDomain(tr, ".de")
	// .de sees only job 1: one filecule {0,1,2,3}.
	if de.NumFilecules() != 1 {
		t.Fatalf(".de filecules = %d, want 1", de.NumFilecules())
	}
	st = CompareToGlobal(global, de)
	// Global filecules {0,1} (2 covered files), {2}, {3} all merged into a
	// 4-file filecule: inflations 4/2=2, 4/1=4, 4/1=4.
	if st.MaxInflation != 4 {
		t.Errorf("MaxInflation = %v, want 4", st.MaxInflation)
	}
	if st.MeanInflation < 3.3 || st.MeanInflation > 3.4 {
		t.Errorf("MeanInflation = %v, want 10/3", st.MeanInflation)
	}
	if st.ExactFilecules != 0 {
		t.Errorf("ExactFilecules = %d, want 0", st.ExactFilecules)
	}
}

func TestMoreJobsMoreAccurate(t *testing.T) {
	// Section 6: "the more job submissions, the more likely that the
	// filecules will be smaller and thus more accurate". Feed a refiner
	// increasing prefixes of a workload; mean inflation relative to the
	// global truth must be non-increasing as more jobs are observed.
	tr := randomTrace(t, 1234, 30, 60)
	global := Identify(tr)
	prev := -1.0
	for _, n := range []int{10, 20, 40, 60} {
		prefix := make([]trace.JobID, n)
		for i := range prefix {
			prefix[i] = tr.Jobs[i].ID
		}
		p := IdentifyJobs(tr, prefix)
		st := CompareToGlobal(global, p)
		if prev >= 0 && st.MeanInflation > prev+1e-9 {
			t.Errorf("inflation increased from %v to %v with more jobs", prev, st.MeanInflation)
		}
		prev = st.MeanInflation
	}
	if prev != 1.0 {
		t.Errorf("full-knowledge inflation = %v, want exactly 1", prev)
	}
}

func TestCombineRefines(t *testing.T) {
	tr := buildTrace(t, 4, [][]trace.FileID{
		{0, 1},       // .gov
		{0, 1, 2, 3}, // .de
		{0, 1, 2},    // .gov
	})
	global := Identify(tr)
	gov := IdentifyDomain(tr, ".gov")
	de := IdentifyDomain(tr, ".de")
	combined := Combine(gov, de)
	if err := combined.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Combined knowledge must still coarsen the global truth...
	if !Coarsens(combined, global) {
		t.Error("combined view splits a global filecule")
	}
	// ...and must refine (or equal) each input view.
	if !Coarsens(gov, combined) || !Coarsens(de, combined) {
		t.Error("combined view does not refine the inputs")
	}
	// Here the combination recovers the exact global grouping: the .gov
	// view distinguishes f2 from f3? No: .gov never saw f3, .de groups
	// all four. Combination: f0,f1 (gov:A, de:X), f2 (gov:B, de:X),
	// f3 (gov:unseen, de:X) -> three groups, same as global.
	if combined.NumFilecules() != global.NumFilecules() {
		t.Errorf("combined filecules = %d, global = %d", combined.NumFilecules(), global.NumFilecules())
	}
}

func TestCombinePropertyCoarsensGlobal(t *testing.T) {
	f := func(seed int64, nf, nj uint8) bool {
		tr := randomTrace(t, seed, int(nf%30)+1, int(nj%30)+2)
		global := Identify(tr)
		gov := IdentifyDomain(tr, ".gov")
		de := IdentifyDomain(tr, ".de")
		combined := Combine(gov, de)
		if combined.Validate() != nil {
			return false
		}
		return Coarsens(combined, global) &&
			Coarsens(gov, combined) && Coarsens(de, combined)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestCoarsensRejectsSplit(t *testing.T) {
	// fine groups {0,1}; "coarse" splits them -> not a coarsening.
	tr1 := buildTrace(t, 2, [][]trace.FileID{{0, 1}})
	fine := Identify(tr1)
	tr2 := buildTrace(t, 2, [][]trace.FileID{{0}, {1}})
	split := Identify(tr2)
	if Coarsens(split, fine) {
		t.Error("Coarsens accepted a splitting partition")
	}
	if !Coarsens(fine, split) {
		t.Error("true coarsening rejected")
	}
}

// TestIdentifyDomainWithoutSites: a job whose Site is outside t.Sites —
// every job of a catalogless trace — belongs to no domain, as Identify
// accepts such traces.
func TestIdentifyDomainWithoutSites(t *testing.T) {
	tr := &trace.Trace{Jobs: []trace.Job{
		{ID: 0, Files: []trace.FileID{1, 2}},
		{ID: 1, Site: 3, Files: []trace.FileID{2}},
		{ID: 2, Site: -1, Files: []trace.FileID{4}},
	}}
	if p := IdentifyDomain(tr, ""); p.NumFilecules() != 0 {
		t.Errorf("catalogless trace: %d filecules in domain \"\", want 0", p.NumFilecules())
	}
	tr.Sites = []trace.Site{{ID: 0, Name: "fnal", Domain: ".gov"}}
	p := IdentifyDomain(tr, ".gov")
	want := NewPartition([]Filecule{{Files: []trace.FileID{1, 2}, Requests: 1}})
	if !p.Equal(want) {
		t.Errorf("IdentifyDomain(.gov) = %+v, want only job 0's files", p.Filecules)
	}
}
