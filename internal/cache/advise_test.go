package cache

import (
	"math/rand"
	"reflect"
	"slices"
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

// FuzzAdviseMatchesSim holds the planner to the simulator: advice for a job
// is what a filecule-LRU Sim holding the reported residency does when it
// first touches the job's resident units and then serves the job's files in
// order — the same hits, loads in order, bypasses and evictions — whenever
// the job's hit and loaded units fit the capacity.
func FuzzAdviseMatchesSim(f *testing.F) {
	for seed := int64(0); seed < 64; seed++ {
		f.Add(seed, uint16(seed*37))
	}
	f.Fuzz(func(t *testing.T, seed int64, capRaw uint16) {
		tr := randomReplayTrace(t, seed)
		g := NewFileculeGranularity(tr, core.Identify(tr))
		capacity := int64(capRaw%300) + 1
		r := rand.New(rand.NewSource(^seed))
		lru := NewLRU()
		rec := &recordingPolicy{Policy: lru}
		s := NewSim(tr, g, rec, capacity)
		var now int64
		for i := r.Intn(12); i > 0; i-- {
			s.Preload(trace.FileID(r.Intn(len(tr.Files))), now)
			now++
		}
		req := AdviceRequest{Capacity: capacity}
		for n := lru.order.root.prev; n != &lru.order.root; n = n.prev {
			req.Resident = append(req.Resident, ResidentUnit{Unit: n.unit, LastAccess: int64(len(req.Resident))})
		}
		for i := 1 + r.Intn(8); i > 0; i-- {
			req.Files = append(req.Files, trace.FileID(r.Intn(len(tr.Files))))
		}
		got, err := Advise(g, req)
		if err != nil {
			t.Fatal(err)
		}
		held := got.BytesToLoad
		for _, u := range got.Hits {
			held += g.SizeOf(u)
		}
		if held > capacity {
			return // the Sim may evict what the job loads; the plan cannot
		}

		var want Advice
		for _, f := range req.Files {
			if u, ok := locate(s.resident, g.UnitOf(f), f); ok && !slices.Contains(want.Hits, u) {
				want.Hits = append(want.Hits, u)
				s.Preload(f, now)
				now++
			}
		}
		rec.admitted, rec.removed = nil, nil
		before := s.Metrics()
		for _, f := range req.Files {
			bypasses := s.metrics.Bypasses
			s.Access(f, now)
			now++
			if s.metrics.Bypasses > bypasses {
				want.Bypassed = append(want.Bypassed, f)
			}
		}
		for _, lu := range rec.admitted {
			if lu.Unit >= degenerateBase {
				lu.Files = []trace.FileID{trace.FileID(lu.Unit - degenerateBase)}
			} else {
				lu.Files = g.Partition().Filecules[lu.Unit].Files
			}
			want.Load = append(want.Load, lu)
		}
		want.Evict = rec.removed
		want.BytesToLoad = s.metrics.BytesLoaded - before.BytesLoaded
		want.BytesToEvict = s.metrics.BytesEvicted - before.BytesEvicted
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("capacity %d, resident %v, job %v:\nadvice %+v\n   sim %+v", capacity, req.Resident, req.Files, *got, want)
		}
	})
}

// recordingPolicy records the units a Policy admits and removes.
type recordingPolicy struct {
	Policy
	admitted []LoadUnit
	removed  []UnitID
}

func (p *recordingPolicy) Admit(u UnitID, size, now int64) {
	p.admitted = append(p.admitted, LoadUnit{Unit: u, Bytes: size})
	p.Policy.Admit(u, size, now)
}

func (p *recordingPolicy) Remove(u UnitID) {
	p.removed = append(p.removed, u)
	p.Policy.Remove(u)
}

// TestPlannerReuseAllocatesNothing pins the reused Planner's contract: once
// warm, a plan with a hit, a degenerate load, two bypasses and an eviction
// allocates nothing.
func TestPlannerReuseAllocatesNothing(t *testing.T) {
	tr, p := adviseTrace(t)
	pl := NewPlanner(NewFileculeGranularity(tr, p))
	// Filecule {0,1} (300 bytes) exceeds the capacity, so file 0 loads alone
	// and evicts file 3's degenerate unit; file 4 fits not even alone.
	req := AdviceRequest{
		Capacity: 155,
		Files:    []trace.FileID{2, 0, 4},
		Resident: []ResidentUnit{{Unit: UnitID(p.Of(2)), LastAccess: 1}, {Unit: degenerate(3), LastAccess: 0}},
	}
	adv, err := pl.Advise(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Hits) != 1 || len(adv.Load) != 1 || adv.Load[0].Unit != degenerate(0) ||
		len(adv.Bypassed) != 2 || len(adv.Evict) != 1 {
		t.Fatalf("plan %+v, want a hit, file 0 loaded alone, two bypasses and an eviction", adv)
	}
	if avg := testing.AllocsPerRun(100, func() { pl.Advise(req) }); avg != 0 {
		t.Errorf("reused Planner allocates %.1f objects per plan, want 0", avg)
	}
}
