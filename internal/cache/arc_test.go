package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"filecule/internal/trace"
)

func TestARCBasicHitsAndEviction(t *testing.T) {
	tr := seqTrace(t, 3, 1, [][]trace.FileID{{0, 1, 0, 2, 0}})
	m := replayFiles(t, tr, NewFileGranularity(tr), NewARC(2), 2)
	// 0 miss, 1 miss, 0 hit (promoted to T2), 2 miss (evicts from T1 ->
	// 1), 0 hit.
	if m.Hits != 2 || m.Misses != 3 {
		t.Errorf("metrics = %+v, want 2 hits / 3 misses", m)
	}
}

func TestARCGhostHitAdapts(t *testing.T) {
	a := NewARC(2)
	a.Admit(1, 1, 0)
	a.Admit(2, 1, 1)
	// Evict 1 (T1 ghost).
	v := a.Victim()
	a.Remove(v)
	if len(a.nodes) != 1 {
		t.Fatalf("len = %d", len(a.nodes))
	}
	p0 := a.p
	// Re-admit the ghost: p must grow and the unit enters T2.
	a.Admit(v, 1, 2)
	if a.p <= p0 {
		t.Errorf("p did not grow on B1 ghost hit: %d -> %d", p0, a.p)
	}
	n := a.nodes[v]
	if !n.inT2 {
		t.Error("ghost re-admission did not land in T2")
	}
}

func TestARCScanResistance(t *testing.T) {
	// A hot working set of 2 files re-accessed amid a long scan of
	// single-use files: ARC must beat LRU by protecting T2.
	r := rand.New(rand.NewSource(1))
	var jobs [][]trace.FileID
	next := trace.FileID(2)
	for i := 0; i < 120; i++ {
		if r.Intn(2) == 0 {
			jobs = append(jobs, []trace.FileID{0, 1})
		} else {
			jobs = append(jobs, []trace.FileID{next, next + 1, next + 2})
			next += 3
		}
	}
	tr := seqTrace(t, int(next), 1, jobs)
	lru := replayFiles(t, tr, NewFileGranularity(tr), NewLRU(), 4)
	arc := replayFiles(t, tr, NewFileGranularity(tr), NewARC(4), 4)
	if arc.Misses > lru.Misses {
		t.Errorf("ARC (%d misses) lost to LRU (%d) under scanning", arc.Misses, lru.Misses)
	}
	if arc.Hits+arc.Misses != arc.Requests {
		t.Errorf("accounting broken: %+v", arc)
	}
}

func TestARCInvariantsProperty(t *testing.T) {
	f := func(seed int64, capRaw uint16) bool {
		tr := randomReplayTrace(t, seed)
		capacity := int64(capRaw%300) + 1
		sim := NewSim(tr, NewFileGranularity(tr), NewARC(capacity), capacity)
		reqs := tr.Requests()
		for i, r := range reqs {
			sim.Access(r.File, int64(i))
			if sim.used > capacity {
				return false
			}
		}
		m := sim.Metrics()
		return m.Hits+m.Misses == m.Requests
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestARCPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewARC(0) accepted")
		}
	}()
	NewARC(0)
}

func TestLFUDAAgesFrequencies(t *testing.T) {
	// Plain LFU would keep the once-hot file 0 forever and miss every
	// phase-2 request; LFUDA's aging lets the newer working set displace
	// it, so only 22 of the 100 requests miss.
	var jobs [][]trace.FileID
	// Phase 1: file 0 accessed 20 times (freq 20).
	for i := 0; i < 20; i++ {
		jobs = append(jobs, []trace.FileID{0})
	}
	// Phase 2: alternating 1 and 2 forever.
	for i := 0; i < 40; i++ {
		jobs = append(jobs, []trace.FileID{1, 2})
	}
	tr := seqTrace(t, 3, 1, jobs)
	m := replayFiles(t, tr, NewFileGranularity(tr), NewLFUDA(), 2)
	if m.Misses != 22 || m.Hits != 78 {
		t.Errorf("LFUDA: %d misses, %d hits; want 22 and 78", m.Misses, m.Hits)
	}
}
