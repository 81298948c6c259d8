package cache

import (
	"testing"

	"filecule/internal/core"
	"filecule/internal/trace"
)

// Interplay tests: prefetchers, granularities and policies combined.

// stubPrefetcher always suggests a fixed set.
type stubPrefetcher struct {
	suggest []trace.FileID
	records int
}

func (s *stubPrefetcher) Suggest(trace.JobID, trace.FileID) []trace.FileID {
	return s.suggest
}
func (s *stubPrefetcher) Record(trace.JobID, trace.FileID) { s.records++ }

func TestPrefetchNeverCountsDemandMisses(t *testing.T) {
	tr := seqTrace(t, 3, 1, [][]trace.FileID{{0}})
	sim := NewSim(tr, NewFileGranularity(tr), NewLRU(), 3)
	pf := &stubPrefetcher{suggest: []trace.FileID{1, 2}}
	sim.SetPrefetcher(pf)
	m := sim.Replay(tr.Requests())
	if m.Requests != 1 || m.Misses != 1 {
		t.Errorf("demand accounting = %+v", m)
	}
	if m.PrefetchLoads != 2 || m.PrefetchBytes != 2 {
		t.Errorf("prefetch accounting = %+v", m)
	}
	if m.BytesLoaded != 3 { // 1 demand + 2 prefetch
		t.Errorf("BytesLoaded = %d", m.BytesLoaded)
	}
	if pf.records != 1 {
		t.Errorf("Record called %d times", pf.records)
	}
	if !resident(sim, 1) || !resident(sim, 2) {
		t.Error("prefetched files not resident")
	}
}

func TestPrefetchSuggestingRequestedFileIsIgnored(t *testing.T) {
	tr := seqTrace(t, 2, 1, [][]trace.FileID{{0}})
	sim := NewSim(tr, NewFileGranularity(tr), NewLRU(), 2)
	sim.SetPrefetcher(&stubPrefetcher{suggest: []trace.FileID{0}})
	m := sim.Replay(tr.Requests())
	if m.PrefetchLoads != 0 {
		t.Errorf("self-suggestion prefetched: %+v", m)
	}
}

func TestPrefetchSkipsResidentAndOversized(t *testing.T) {
	tr := seqTrace(t, 3, 2, [][]trace.FileID{{0, 0}})
	// Capacity 4 holds both the demand file and the prefetched one;
	// suggesting an already-resident file must be a no-op.
	sim := NewSim(tr, NewFileGranularity(tr), NewLRU(), 4)
	pf := &stubPrefetcher{suggest: []trace.FileID{1}}
	sim.SetPrefetcher(pf)
	reqs := tr.Requests()
	sim.AccessJob(reqs[0].Job, reqs[0].File, 0)
	first := sim.Metrics().PrefetchLoads
	sim.AccessJob(reqs[1].Job, reqs[1].File, 1)
	if first != 1 {
		t.Errorf("first access prefetched %d units, want 1", first)
	}
	// Second access: 1 already resident -> no new prefetch load.
	if got := sim.Metrics().PrefetchLoads; got != 1 {
		t.Errorf("prefetch loads = %d, want still 1", got)
	}
}

func TestFileculeGranularityWithPrefetcherComposes(t *testing.T) {
	// A prefetcher at filecule granularity loads whole filecules too.
	jobs := [][]trace.FileID{{0, 1}, {2, 3}, {0, 1}, {2, 3}}
	tr := seqTrace(t, 4, 1, jobs)
	p := core.Identify(tr)
	sim := NewSim(tr, NewFileculeGranularity(tr, p), NewLRU(), 4)
	// Suggest file 2 whenever anything is touched: its whole filecule
	// {2,3} gets loaded speculatively.
	sim.SetPrefetcher(&stubPrefetcher{suggest: []trace.FileID{2}})
	m := sim.Replay(tr.Requests())
	// Only the very first request misses; {2,3} is prefetched with it.
	if m.Misses != 1 {
		t.Errorf("misses = %d, want 1", m.Misses)
	}
}

func TestPreloadIdempotentAndEvicts(t *testing.T) {
	tr := seqTrace(t, 3, 1, [][]trace.FileID{{0}})
	sim := NewSim(tr, NewFileGranularity(tr), NewLRU(), 2)
	sim.Preload(0, 0)
	sim.Preload(0, 1) // refresh, not duplicate
	sim.Preload(1, 2)
	if sim.used != 2 {
		t.Fatalf("used = %d", sim.used)
	}
	sim.Preload(2, 3) // evicts LRU (0)
	if sim.used != 2 || resident(sim, 0) {
		t.Errorf("preload eviction failed: used=%d contains0=%v", sim.used, resident(sim, 0))
	}
	if m := sim.Metrics(); m.Requests != 0 || m.BytesLoaded != 0 {
		t.Errorf("preload touched metrics: %+v", m)
	}
}

func TestOPTFileculeGranularityDominatesLRU(t *testing.T) {
	// On uniform sizes, filecule-granularity OPT must not lose to
	// filecule LRU.
	jobs := [][]trace.FileID{
		{0, 1}, {2, 3}, {4, 5}, {0, 1}, {2, 3}, {4, 5}, {0, 1},
	}
	tr := seqTrace(t, 6, 1, jobs)
	p := core.Identify(tr)
	g := NewFileculeGranularity(tr, p)
	reqs := tr.Requests()
	for _, capacity := range []int64{2, 4, 6} {
		lru := NewSim(tr, NewFileculeGranularity(tr, p), NewLRU(), capacity).Replay(reqs)
		opt := SimulateOPT(tr, g, capacity, reqs)
		if opt.Misses > lru.Misses {
			t.Errorf("capacity %d: OPT %d misses > LRU %d", capacity, opt.Misses, lru.Misses)
		}
	}
}

func TestMetricsDerivedRates(t *testing.T) {
	m := Metrics{Requests: 10, Hits: 7, Misses: 3, BytesRequested: 100, BytesMissed: 25}
	if m.MissRate() != 0.3 || m.ByteMissRate() != 0.25 {
		t.Errorf("rates = %v/%v", m.MissRate(), m.ByteMissRate())
	}
	var zero Metrics
	if zero.MissRate() != 0 || zero.ByteMissRate() != 0 {
		t.Error("zero metrics rates not zero")
	}
}
