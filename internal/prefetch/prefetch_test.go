package prefetch

import (
	"slices"
	"testing"
	"time"

	"filecule/internal/cache"
	"filecule/internal/core"
	"filecule/internal/trace"
)

var t0 = time.Date(2003, 1, 15, 12, 0, 0, 0, time.UTC)

func seqTrace(tb testing.TB, nFiles int, jobFiles [][]trace.FileID) *trace.Trace {
	tb.Helper()
	b := trace.NewBuilder()
	s := b.Site("s", ".gov", 1)
	u := b.User("u", s)
	for i := 0; i < nFiles; i++ {
		b.File(fname(i), 1, trace.TierThumbnail)
	}
	for i, files := range jobFiles {
		b.SimpleJob(u, s, t0.Add(time.Duration(i)*time.Hour), files)
	}
	return b.Build()
}

func fname(i int) string {
	return string(rune('a' + i))
}

func TestSuccessorLearnsChain(t *testing.T) {
	p := NewSuccessor(2)
	// Train: job 0 accesses 0 -> 1 -> 2 repeatedly.
	for rep := 0; rep < 3; rep++ {
		for _, f := range []trace.FileID{0, 1, 2} {
			p.Record(0, f)
		}
	}
	got := p.Suggest(0, 0)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Suggest(0) = %v, want [1 2]", got)
	}
	// Unknown file: nothing.
	if got := p.Suggest(0, 9); got != nil {
		t.Errorf("Suggest(unknown) = %v", got)
	}
}

func TestSuccessorPicksMostFrequent(t *testing.T) {
	p := NewSuccessor(1)
	feed := func(seq ...trace.FileID) {
		for _, f := range seq {
			p.Record(1, f)
		}
	}
	feed(0, 1)
	feed(0, 2)
	feed(0, 2) // 0->2 observed twice, 0->1 once
	got := p.Suggest(1, 0)
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("Suggest = %v, want [2]", got)
	}
}

func TestSuccessorPerJobStreams(t *testing.T) {
	p := NewSuccessor(1)
	// Interleaved jobs: job 0 accesses 0 then 1; job 1 accesses 5 then 6.
	p.Record(0, 0)
	p.Record(1, 5)
	p.Record(0, 1)
	p.Record(1, 6)
	if got := p.Suggest(0, 0); len(got) != 1 || got[0] != 1 {
		t.Errorf("job-0 successor of 0 = %v, want [1]", got)
	}
	if got := p.Suggest(0, 5); len(got) != 1 || got[0] != 6 {
		t.Errorf("successor of 5 = %v, want [6] (no cross-job pollution)", got)
	}
}

func TestSuccessorAvoidsCycles(t *testing.T) {
	p := NewSuccessor(5)
	for rep := 0; rep < 2; rep++ {
		for _, f := range []trace.FileID{0, 1, 0, 1} {
			p.Record(0, f)
		}
	}
	got := p.Suggest(0, 0)
	// Chain 0 -> 1 -> 0 must stop before revisiting 0.
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("cyclic Suggest = %v, want [1]", got)
	}
}

func TestProbGraphThreshold(t *testing.T) {
	p := NewProbGraph(3, 0.5)
	// 0 and 1 co-occur every time; 0 and 2 once in three visits of 0.
	feed := func(seq ...trace.FileID) {
		for _, f := range seq {
			p.Record(0, f)
		}
	}
	feed(0, 1)
	feed(0, 1)
	feed(0, 2)
	got := p.Suggest(0, 0)
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("Suggest = %v, want [1] (2 below threshold)", got)
	}
}

func TestProbGraphMaxSuggest(t *testing.T) {
	p := NewProbGraph(6, 0.1)
	p.MaxSuggest = 2
	p.Record(0, 0)
	for _, f := range []trace.FileID{1, 2, 3, 4} {
		p.Record(0, f)
	}
	// All of 1-4 are within window 6 of 0's single visit and tie at one arc
	// each: the cap keeps the lowest IDs, whatever order the edge map
	// iterates in on this call.
	for i := 0; i < 100; i++ {
		if got := p.Suggest(0, 0); !slices.Equal(got, []trace.FileID{1, 2}) {
			t.Fatalf("Suggest call %d = %v, want [1 2]", i, got)
		}
	}
	// A stronger edge outranks a lower ID.
	p.Record(1, 0)
	p.Record(1, 4)
	if got := p.Suggest(0, 0); !slices.Equal(got, []trace.FileID{4, 1}) {
		t.Errorf("Suggest = %v, want [4 1]", got)
	}
}

func TestWorkingSetDefersUntilUnique(t *testing.T) {
	p := NewWorkingSet()
	h := seqTrace(t, 8, [][]trace.FileID{
		{0, 1, 2, 3},
		{0, 1, 5, 6},
	})
	p.Train(h)
	if p.NumStored() != 2 {
		t.Fatalf("stored %d sequences", p.NumStored())
	}
	// First access 0: two candidates -> no suggestion.
	if got := p.Suggest(7, 0); got != nil {
		t.Errorf("ambiguous first access suggested %v", got)
	}
	p.Record(7, 0)
	// Second access 1: still both match -> nothing.
	if got := p.Suggest(7, 1); got != nil {
		t.Errorf("still-ambiguous prefix suggested %v", got)
	}
	p.Record(7, 1)
	// Third access 2: unique match {0,1,2,3} -> prefetch [3].
	got := p.Suggest(7, 2)
	if len(got) != 1 || got[0] != 3 {
		t.Errorf("unique-match suggestion = %v, want [3]", got)
	}
	p.Record(7, 2)
	// Fires at most once per job.
	if got := p.Suggest(7, 3); got != nil {
		t.Errorf("second fire = %v", got)
	}
}

func TestWorkingSetOnlineLearning(t *testing.T) {
	p := NewWorkingSet()
	// Job 1 runs sequence 0,1,2; flushed into the store.
	for _, f := range []trace.FileID{0, 1, 2} {
		p.Record(1, f)
	}
	p.Flush(1)
	if p.NumStored() != 1 {
		t.Fatalf("stored %d", p.NumStored())
	}
	// Job 2 starts with 0: single candidate, but matched length 0 -> wait.
	if got := p.Suggest(2, 0); got != nil {
		t.Errorf("first-access fire: %v", got)
	}
	p.Record(2, 0)
	got := p.Suggest(2, 1)
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("online suggestion = %v, want [2]", got)
	}
}

func TestWorkingSetMaxStored(t *testing.T) {
	p := NewWorkingSet()
	p.MaxStored = 2
	for i := 0; i < 4; i++ {
		base := trace.FileID(i * 10)
		for _, f := range []trace.FileID{base, base + 1} {
			p.Record(trace.JobID(i), f)
		}
		p.Flush(trace.JobID(i))
	}
	if p.NumStored() != 2 {
		t.Errorf("stored %d sequences, want capped at 2", p.NumStored())
	}
	// The oldest sequences are gone; the newest survive and still match.
	p.Record(99, 30)
	if got := p.Suggest(99, 31); len(got) != 0 {
		// sequence {30,31} has no remainder after position 1, so no
		// suggestion — but it must not panic or return stale data.
		t.Errorf("suggestion from capped store = %v", got)
	}
}

func TestFileculesPrefetcher(t *testing.T) {
	tr := seqTrace(t, 4, [][]trace.FileID{{0, 1, 2}, {3}})
	part := core.Identify(tr)
	p := NewFilecules(part)
	got := p.Suggest(0, 0)
	if len(got) != 2 {
		t.Fatalf("Suggest = %v, want the 2 other members", got)
	}
	if got2 := p.Suggest(0, 3); len(got2) != 0 {
		t.Errorf("singleton filecule suggested %v", got2)
	}
}

func TestPrefetcherInSimulator(t *testing.T) {
	// Jobs repeatedly read the pair (0,1) in order; with a successor
	// prefetcher, accesses to 1 become hits after training.
	jobs := [][]trace.FileID{{0, 1}, {0, 1}, {0, 1}, {0, 1}}
	tr := seqTrace(t, 2, jobs)
	reqs := tr.Requests()

	plain := cache.NewSim(tr, cache.NewFileGranularity(tr), cache.NewLRU(), 1)
	base := plain.Replay(reqs)

	// Capacity 1 forces churn: without prefetching every access misses;
	// with a successor prefetcher the access to 1 hits the just-prefetched
	// copy.
	sim := cache.NewSim(tr, cache.NewFileGranularity(tr), cache.NewLRU(), 1)
	sim.SetPrefetcher(NewSuccessor(1))
	m := sim.Replay(reqs)

	if m.PrefetchLoads == 0 {
		t.Error("prefetcher never fired")
	}
	if m.Misses >= base.Misses {
		t.Errorf("prefetching did not reduce misses: %d vs %d", m.Misses, base.Misses)
	}
	if m.Hits+m.Misses != m.Requests {
		t.Errorf("accounting broken: %+v", m)
	}
}

func TestFileculePrefetchMatchesAtomicLoads(t *testing.T) {
	// With ample capacity, filecule-prefetch + file LRU gives the same
	// miss count as atomic filecule LRU: one miss per filecule.
	jobs := [][]trace.FileID{{0, 1, 2, 3}, {0, 1, 2, 3}}
	tr := seqTrace(t, 4, jobs)
	p := core.Identify(tr)
	reqs := tr.Requests()

	atomic := cache.NewSim(tr, cache.NewFileculeGranularity(tr, p), cache.NewLRU(), 100).Replay(reqs)
	sim := cache.NewSim(tr, cache.NewFileGranularity(tr), cache.NewLRU(), 100)
	sim.SetPrefetcher(NewFilecules(p))
	pf := sim.Replay(reqs)

	if pf.Misses != atomic.Misses {
		t.Errorf("filecule-prefetch misses = %d, atomic filecule LRU = %d", pf.Misses, atomic.Misses)
	}
}
