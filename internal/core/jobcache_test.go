package core

import (
	"sync"
	"testing"

	"filecule/internal/synth"
	"filecule/internal/trace"
)

// liveCacheEntries walks the repeat-job cache: entries in all, and entries
// valid at the current split epoch.
func liveCacheEntries(e *Engine) (all, live int64) {
	epoch := e.splitEpoch.Load()
	e.jobCache.Range(func(_, v any) bool {
		all++
		if v.(*cachedJob).epoch == epoch {
			live++
		}
		return true
	})
	return all, live
}

// repeated returns t's jobs n times over, renumbered: what an engine that
// replayed t n times has observed.
func repeated(t *trace.Trace, n int) *trace.Trace {
	out := &trace.Trace{Files: t.Files}
	for r := 0; r < n; r++ {
		for i := range t.Jobs {
			out.Jobs = append(out.Jobs, trace.Job{ID: trace.JobID(len(out.Jobs)), Files: t.Jobs[i].Files})
		}
	}
	return out
}

// TestJobCacheFollowsLiveSet replays a synthetic DZero trace three times.
// First touch is split-heavy: almost every entry it caches is stranded by a
// later split, and the cache must have let those go. The second replay finds
// the final partition, so it re-caches every job without a split; the third
// is then answered entirely from the cache, allocating nothing.
func TestJobCacheFollowsLiveSet(t *testing.T) {
	tr, err := synth.Generate(synth.DZero(3, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	nonEmpty := int64(0)
	for i := range tr.Jobs {
		if len(tr.Jobs[i].Files) > 0 {
			nonEmpty++
		}
	}
	e := NewEngine(0)

	e.ObserveTrace(tr)
	all, live := liveCacheEntries(e)
	st := e.JobCacheStats()
	if st.Entries != all {
		t.Errorf("JobCacheStats.Entries = %d, the cache holds %d", st.Entries, all)
	}
	if limit := max(minCacheSweep, 2*live); all > limit {
		t.Errorf("after first touch the cache holds %d entries, %d of them live: want <= %d", all, live, limit)
	}
	if st.Sweeps == 0 {
		t.Errorf("first touch of %d jobs never swept the cache", len(tr.Jobs))
	}

	epoch := e.splitEpoch.Load()
	e.ObserveTrace(tr)
	if e.splitEpoch.Load() != epoch {
		t.Fatal("a replay of an already observed trace split a block")
	}

	before := e.JobCacheStats().FastPathHits
	e.ObserveTrace(tr)
	if got := e.JobCacheStats().FastPathHits - before; got != nonEmpty {
		t.Errorf("third replay: %d fast-path hits, want all %d non-empty jobs", got, nonEmpty)
	}
	if allocs := testing.AllocsPerRun(2, func() { e.ObserveTrace(tr) }); allocs != 0 {
		t.Errorf("a replay answered from the cache allocates %.0f times, want 0", allocs)
	}
	// 3 replays + AllocsPerRun's warm-up and 2 runs: every deferred count
	// must have reached its block.
	if !e.Snapshot().Equal(Identify(repeated(tr, 6))) {
		t.Error("snapshot after six replays differs from batch identification of the six-fold trace")
	}
}

// TestJobCacheAdmitsAfterSplitAtCap: a cache filled to its cap and then
// stranded by a split must make room, or the fast path is dead for good.
func TestJobCacheAdmitsAfterSplitAtCap(t *testing.T) {
	e := NewEngine(0)
	e.cacheCap = 8
	for i := 0; i < 12; i++ { // disjoint pairs: no splits, the cache fills and then refuses
		e.Observe([]trace.FileID{trace.FileID(2 * i), trace.FileID(2*i + 1)})
	}
	if st := e.JobCacheStats(); st.Entries != 8 || st.Sweeps != 0 {
		t.Fatalf("after 12 distinct jobs at cap 8: %+v, want 8 entries and no sweep", st)
	}
	e.Observe([]trace.FileID{0}) // splits {0,1}: every cached entry is now stale
	job := []trace.FileID{100, 101}
	for i := 0; i < 3; i++ {
		e.Observe(job)
	}
	st := e.JobCacheStats()
	if st.FastPathHits == 0 {
		t.Errorf("a job observed three times after the split never hit the cache: %+v", st)
	}
	if st.Entries > 8 {
		t.Errorf("cache holds %d entries past its cap of 8", st.Entries)
	}
	if fc := e.Snapshot().FileculeOf(100); fc == nil || fc.Requests != 3 {
		t.Errorf("filecule of file 100 = %+v, want 3 requests", fc)
	}
}

// TestJobCacheSweepUnderConcurrentHits runs fast-path observers against an
// observer whose every job splits a block and — at a small cap — sweeps every
// few inserts. The partition must come out as batch identification of
// everything observed; under -race this is also the data-race check of the
// sweep against lock-free hits.
func TestJobCacheSweepUnderConcurrentHits(t *testing.T) {
	e := NewEngine(0)
	e.cacheCap = 16
	const readers, rounds, splits = 3, 400, 300
	stable := make([][]trace.FileID, 8)
	for i := range stable {
		for k := 0; k < 10; k++ {
			stable[i] = append(stable[i], trace.FileID(10*i+k))
		}
		e.Observe(stable[i])
	}
	big := make([]trace.FileID, splits+1)
	for i := range big {
		big[i] = trace.FileID(1000 + i)
	}
	e.Observe(big)

	observed := &trace.Trace{}
	add := func(files []trace.FileID) {
		observed.Jobs = append(observed.Jobs, trace.Job{ID: trace.JobID(len(observed.Jobs)), Files: files})
	}
	for _, files := range stable {
		add(files)
	}
	add(big)

	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				e.Observe(stable[i%len(stable)])
			}
		}()
	}
	for i := 0; i < splits; i++ {
		e.Observe(big[:splits-i]) // peels one file off the shrinking head block
	}
	wg.Wait()
	for r := 0; r < readers; r++ {
		for i := 0; i < rounds; i++ {
			add(stable[i%len(stable)])
		}
	}
	for i := 0; i < splits; i++ {
		add(big[:splits-i])
	}

	if st := e.JobCacheStats(); st.Sweeps == 0 || st.FastPathHits == 0 {
		t.Errorf("the run exercised no sweep or no hit: %+v", st)
	}
	if !e.Snapshot().Equal(Identify(observed)) {
		t.Error("snapshot differs from batch identification of the observed jobs")
	}
}
