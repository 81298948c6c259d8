package core

import (
	"testing"

	"filecule/internal/trace"
)

func TestFileculesPerJob(t *testing.T) {
	tr := buildTrace(t, 4, [][]trace.FileID{
		{0, 1}, {0, 1, 2}, {3}, {0, 1},
	})
	p := Identify(tr)
	got := FileculesPerJob(tr, p)
	// Job 0: {0,1} -> 1 filecule. Job 1: {0,1}+{2} -> 2. Job 2: {3} -> 1.
	// Job 3: 1.
	want := []int{1, 2, 1, 1}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("FileculesPerJob[%d] = %d, want %d", i, got[i], w)
		}
	}
}

func TestUsersAndSitesPerFilecule(t *testing.T) {
	// buildTrace alternates users alice (site .gov) and bob (site .de).
	tr := buildTrace(t, 4, [][]trace.FileID{
		{0, 1}, // alice
		{0, 1}, // bob
		{2},    // alice
	})
	p := Identify(tr)
	users := UsersPerFilecule(tr, p)
	sites := SitesPerFilecule(tr, p)
	for i := range p.Filecules {
		switch p.Filecules[i].Files[0] {
		case 0:
			if users[i] != 2 || sites[i] != 2 {
				t.Errorf("filecule {0,1}: users=%d sites=%d, want 2/2", users[i], sites[i])
			}
		case 2:
			if users[i] != 1 || sites[i] != 1 {
				t.Errorf("filecule {2}: users=%d sites=%d, want 1/1", users[i], sites[i])
			}
		}
	}
}

func TestSizesAndFilesPer(t *testing.T) {
	tr := buildTrace(t, 3, [][]trace.FileID{{0, 1}, {2}})
	p := Identify(tr)
	sizes := SizesBytes(tr, p)
	reqs := RequestsPer(p)
	// Canonical order: {0,1} then {2}. Sizes: 100+200, 300.
	if sizes[0] != 300 || sizes[1] != 300 {
		t.Errorf("sizes = %v", sizes)
	}
	if reqs[0] != 1 || reqs[1] != 1 {
		t.Errorf("requests = %v", reqs)
	}
}

func TestCheckPopularityEqualityDetectsViolation(t *testing.T) {
	tr := buildTrace(t, 2, [][]trace.FileID{{0, 1}, {0, 1}})
	p := Identify(tr)
	if f := CheckPopularityEquality(tr, p); f != -1 {
		t.Fatalf("valid partition flagged at file %d", f)
	}
	// Corrupt the request count.
	p.Filecules[0].Requests = 5
	if f := CheckPopularityEquality(tr, p); f == -1 {
		t.Error("corrupted partition not flagged")
	}
}
