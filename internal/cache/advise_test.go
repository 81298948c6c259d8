package cache

import (
	"testing"
	"time"

	"filecule/internal/core"
	"filecule/internal/trace"
)

// adviseTrace builds a small catalog with a known filecule structure:
// filecule {0,1} (two jobs), filecule {2} (one job), file 3 never requested,
// file 4 huge (oversized relative to the test capacities).
func adviseTrace(tb testing.TB) (*trace.Trace, *core.Partition) {
	tb.Helper()
	t0 := time.Unix(0, 0).UTC()
	tr := &trace.Trace{
		Sites: []trace.Site{{ID: 0, Name: "s", Domain: ".gov", Nodes: 1}},
		Users: []trace.User{{ID: 0, Name: "u", Site: 0}},
		Files: []trace.File{
			{ID: 0, Name: "a", Size: 100},
			{ID: 1, Name: "b", Size: 200},
			{ID: 2, Name: "c", Size: 50},
			{ID: 3, Name: "d", Size: 10},
			{ID: 4, Name: "e", Size: 1 << 40},
		},
		Jobs: []trace.Job{
			{ID: 0, Start: t0, End: t0, Files: []trace.FileID{0, 1}},
			{ID: 1, Start: t0, End: t0, Files: []trace.FileID{0, 1, 2}},
			{ID: 2, Start: t0, End: t0, Files: []trace.FileID{4}},
		},
	}
	if err := tr.Validate(); err != nil {
		tb.Fatal(err)
	}
	return tr, core.Identify(tr)
}

func TestAdviseLoadsWholeFilecule(t *testing.T) {
	tr, p := adviseTrace(t)
	g := NewFileculeGranularity(tr, p)
	adv, err := Advise(g, AdviceRequest{Capacity: 1000, Files: []trace.FileID{0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Load) != 1 {
		t.Fatalf("Load = %+v, want one unit", adv.Load)
	}
	lu := adv.Load[0]
	if len(lu.Files) != 2 || lu.Files[0] != 0 || lu.Files[1] != 1 {
		t.Errorf("Load files = %v, want [0 1]", lu.Files)
	}
	if lu.Bytes != 300 || adv.BytesToLoad != 300 {
		t.Errorf("bytes = %d/%d, want 300", lu.Bytes, adv.BytesToLoad)
	}
	if len(adv.Hits) != 0 || len(adv.Evict) != 0 || len(adv.Bypassed) != 0 {
		t.Errorf("unexpected hits/evictions/bypasses: %+v", adv)
	}
}

func TestAdviseHitAndDedup(t *testing.T) {
	tr, p := adviseTrace(t)
	g := NewFileculeGranularity(tr, p)
	u := UnitID(p.Of(0))
	adv, err := Advise(g, AdviceRequest{
		Capacity: 1000,
		Files:    []trace.FileID{0, 1, 0, 2, 2},
		Resident: []ResidentUnit{{Unit: u, LastAccess: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Hits) != 1 || adv.Hits[0] != u {
		t.Errorf("Hits = %v, want [%d]", adv.Hits, u)
	}
	if len(adv.Load) != 1 || adv.Load[0].Bytes != 50 {
		t.Errorf("Load = %+v, want just filecule {2}", adv.Load)
	}
}

func TestAdviseEvictsLRUFirst(t *testing.T) {
	tr, p := adviseTrace(t)
	g := NewFileculeGranularity(tr, p)
	uAB := UnitID(p.Of(0)) // 300 bytes
	uC := UnitID(p.Of(2))  // 50 bytes
	// Capacity 355 holds both residents (350 bytes); the 10-byte load
	// overflows and must evict the least recently used victim.
	adv, err := Advise(g, AdviceRequest{
		Capacity: 355,
		Files:    []trace.FileID{3}, // uncovered file -> degenerate 10-byte unit
		Resident: []ResidentUnit{{Unit: uAB, LastAccess: 9}, {Unit: uC, LastAccess: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Evict) != 1 || adv.Evict[0] != uC {
		t.Errorf("Evict = %v, want LRU victim [%d]", adv.Evict, uC)
	}
	if adv.BytesToEvict != 50 {
		t.Errorf("BytesToEvict = %d, want 50", adv.BytesToEvict)
	}
}

func TestAdviseOversizedUnitBypasses(t *testing.T) {
	tr, p := adviseTrace(t)
	g := NewFileculeGranularity(tr, p)
	adv, err := Advise(g, AdviceRequest{Capacity: 1 << 20, Files: []trace.FileID{4}})
	if err != nil {
		t.Fatal(err)
	}
	// File 4's filecule is the 1 TB file itself; even the degenerate
	// fallback exceeds the cache, so nothing loads but the bypass is
	// reported.
	if len(adv.Bypassed) != 1 || adv.Bypassed[0] != 4 {
		t.Errorf("Bypassed = %v, want [4]", adv.Bypassed)
	}
	if len(adv.Load) != 0 {
		t.Errorf("Load = %+v, want empty", adv.Load)
	}
}

func TestAdviseRejectsBadInput(t *testing.T) {
	tr, p := adviseTrace(t)
	g := NewFileculeGranularity(tr, p)
	if _, err := Advise(g, AdviceRequest{Capacity: 0}); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := Advise(g, AdviceRequest{Capacity: 100, Resident: []ResidentUnit{{Unit: 999}}}); err == nil {
		t.Error("unknown resident unit accepted")
	}
	if _, err := Advise(g, AdviceRequest{Capacity: 100, Resident: []ResidentUnit{{Unit: 0}, {Unit: 0}}}); err == nil {
		t.Error("duplicate resident unit accepted")
	}
	if _, err := Advise(g, AdviceRequest{Capacity: 100, Files: []trace.FileID{99}}); err == nil {
		t.Error("unknown file accepted")
	}
	if _, err := Advise(g, AdviceRequest{Capacity: 100, Files: []trace.FileID{-1}}); err == nil {
		t.Error("negative file accepted")
	}
}

func TestAdviseFileGranularity(t *testing.T) {
	tr, _ := adviseTrace(t)
	g := NewFileGranularity(tr)
	adv, err := Advise(g, AdviceRequest{Capacity: 1000, Files: []trace.FileID{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Load) != 2 || adv.BytesToLoad != 300 {
		t.Errorf("Load = %+v, want files 0 and 1 separately", adv.Load)
	}
	for _, lu := range adv.Load {
		if len(lu.Files) != 1 {
			t.Errorf("file-granularity unit lists %v", lu.Files)
		}
	}
}
