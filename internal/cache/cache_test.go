package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"filecule/internal/core"
	"filecule/internal/trace"
)

var t0 = time.Date(2003, 1, 15, 12, 0, 0, 0, time.UTC)

// seqTrace builds a trace whose jobs request the given file sequences; every
// file has the given uniform size.
func seqTrace(tb testing.TB, nFiles int, size int64, jobFiles [][]trace.FileID) *trace.Trace {
	tb.Helper()
	b := trace.NewBuilder()
	s := b.Site("s", ".gov", 1)
	u := b.User("u", s)
	for i := 0; i < nFiles; i++ {
		b.File(fname(i), size, trace.TierThumbnail)
	}
	for i, files := range jobFiles {
		b.SimpleJob(u, s, t0.Add(time.Duration(i)*time.Hour), files)
	}
	tr := b.Build()
	if err := tr.Validate(); err != nil {
		tb.Fatalf("Validate: %v", err)
	}
	return tr
}

func fname(i int) string {
	const digits = "0123456789"
	if i == 0 {
		return "f0"
	}
	var b []byte
	for n := i; n > 0; n /= 10 {
		b = append([]byte{digits[n%10]}, b...)
	}
	return "f" + string(b)
}

func replayFiles(tb testing.TB, tr *trace.Trace, g Granularity, p Policy, capacity int64) Metrics {
	tb.Helper()
	sim := NewSim(tr, g, p, capacity)
	return sim.Replay(tr.Requests())
}

func TestLRUFileGranularityEvictionOrder(t *testing.T) {
	// Cache of 2 units; access 0,1,2 -> evicts 0; access 0 again -> miss.
	tr := seqTrace(t, 3, 1, [][]trace.FileID{{0, 1, 2, 0}})
	m := replayFiles(t, tr, NewFileGranularity(tr), NewLRU(), 2)
	if m.Requests != 4 || m.Hits != 0 || m.Misses != 4 {
		t.Errorf("metrics = %+v, want 4 cold/capacity misses", m)
	}

	// Access 0,1,0,2: touching 0 protects it, so 1 is evicted; final 0 hits.
	tr = seqTrace(t, 3, 1, [][]trace.FileID{{0, 1, 0, 2, 0}})
	m = replayFiles(t, tr, NewFileGranularity(tr), NewLRU(), 2)
	if m.Hits != 2 { // second and third access of 0
		t.Errorf("hits = %d, want 2: %+v", m.Hits, m)
	}
}

func TestFileculePrefetchBeatsFileLRU(t *testing.T) {
	// Two filecules of 4 files each, requested sequentially twice.
	jobs := [][]trace.FileID{
		{0, 1, 2, 3}, {4, 5, 6, 7}, {0, 1, 2, 3}, {4, 5, 6, 7},
	}
	tr := seqTrace(t, 8, 1, jobs)
	p := core.Identify(tr)
	if p.NumFilecules() != 2 {
		t.Fatalf("expected 2 filecules, got %d", p.NumFilecules())
	}

	fileM := replayFiles(t, tr, NewFileGranularity(tr), NewLRU(), 8)
	fcM := replayFiles(t, tr, NewFileculeGranularity(tr, p), NewLRU(), 8)

	// Big cache: file LRU misses each file once (8 misses), filecule LRU
	// misses once per filecule (2 misses) thanks to prefetch... but the
	// simulator counts the requested file only; the other 3 members are
	// prefetched, so requests 2-4 of each filecule hit.
	if fileM.Misses != 8 {
		t.Errorf("file LRU misses = %d, want 8", fileM.Misses)
	}
	if fcM.Misses != 2 {
		t.Errorf("filecule LRU misses = %d, want 2", fcM.Misses)
	}
	if fcM.BytesLoaded != 8 {
		t.Errorf("filecule LRU loaded %d bytes, want 8 (whole filecules)", fcM.BytesLoaded)
	}
}

func TestFileculeEvictsWholeUnit(t *testing.T) {
	// Jobs {0,1,2,3}, {4,5,6,7}, {0} produce filecules A={0} (jobs 0,2),
	// A'={1,2,3} (job 0 only) and B={4,5,6,7}. With capacity 4, loading B
	// evicts both A and A' whole; the final request of 0 evicts B and
	// reloads A.
	jobs := [][]trace.FileID{{0, 1, 2, 3}, {4, 5, 6, 7}, {0}}
	tr := seqTrace(t, 8, 1, jobs)
	p := core.Identify(tr)
	if p.NumFilecules() != 3 {
		t.Fatalf("filecules = %d, want 3", p.NumFilecules())
	}
	g := NewFileculeGranularity(tr, p)
	sim := NewSim(tr, g, NewLRU(), 4)
	m := sim.Replay(tr.Requests())
	if m.Evictions != 3 {
		t.Errorf("evictions = %d, want 3 (A and A' evicted for B, B evicted for A)", m.Evictions)
	}
	if sim.Used() != 1 {
		t.Errorf("used = %d, want 1 (only A resident)", sim.Used())
	}
	if !sim.Contains(0) || sim.Contains(4) || sim.Contains(1) {
		t.Error("expected only A={0} resident at end")
	}
}

func TestOversizedFileculeBypass(t *testing.T) {
	// Jobs {0,1,2,3} and {0} over 3-byte files give filecules {0} (6
	// bytes of requests, unit size 3) and {1,2,3} (unit size 9). With
	// capacity 5 the 9-byte unit is bypassed on each member's miss.
	jobs := [][]trace.FileID{{0, 1, 2, 3}, {0}}
	tr := seqTrace(t, 4, 3, jobs)
	p := core.Identify(tr)
	g := NewFileculeGranularity(tr, p)
	sim := NewSim(tr, g, NewLRU(), 5)
	m := sim.Replay(tr.Requests())
	// Requests: 0 loads {0} whole; 1, 2, 3 each bypass (degenerate);
	// final 0 misses ({0} was evicted by the degenerate churn).
	if m.Bypasses != 3 {
		t.Errorf("bypasses = %d, want 3 (the three 9-byte-unit members)", m.Bypasses)
	}
	if m.Misses != 5 || m.Hits != 0 {
		t.Errorf("misses = %d hits = %d, want 5/0", m.Misses, m.Hits)
	}

	// Single job {0,1,0,2} over 4-byte files: one 12-byte filecule
	// {0,1,2}. Capacity 9 cannot hold the unit, but two degenerate files
	// fit, so the re-request of 0 hits its degenerate unit before the
	// load of 2 evicts it.
	jobs = [][]trace.FileID{{0, 1, 0, 2}}
	tr = seqTrace(t, 4, 4, jobs)
	p = core.Identify(tr)
	m = replayFiles(t, tr, NewFileculeGranularity(tr, p), NewLRU(), 9)
	if m.Hits != 1 || m.Bypasses != 3 {
		t.Errorf("hits = %d bypasses = %d, want 1/3 (degenerate unit hit)", m.Hits, m.Bypasses)
	}
}

func TestFileLargerThanCacheNeverCached(t *testing.T) {
	tr := seqTrace(t, 1, 100, [][]trace.FileID{{0, 0}})
	m := replayFiles(t, tr, NewFileGranularity(tr), NewLRU(), 10)
	if m.Misses != 2 || m.Hits != 0 {
		t.Errorf("metrics = %+v, want 2 misses", m)
	}
}

func TestGDSPrefersEvictingLargeCheapUnits(t *testing.T) {
	// GDS(1): priority = L + 1/size, so large units have lower priority
	// and are evicted first.
	b := trace.NewBuilder()
	s := b.Site("s", ".gov", 1)
	u := b.User("u", s)
	big := b.File("big", 10, trace.TierThumbnail)
	small := b.File("small", 2, trace.TierThumbnail)
	other := b.File("other", 2, trace.TierThumbnail)
	b.SimpleJob(u, s, t0, []trace.FileID{big, small, other, small, big})
	tr := b.Build()
	m := replayFiles(t, tr, NewFileGranularity(tr), NewGDS(), 12)
	// big+small fit (12); other evicts big (lowest 1/size priority).
	// small hits, big misses.
	if m.Hits != 1 || m.Misses != 4 {
		t.Errorf("metrics = %+v, want 1 hit / 4 misses", m)
	}
}

func TestGDSFFrequencyProtects(t *testing.T) {
	b := trace.NewBuilder()
	s := b.Site("s", ".gov", 1)
	u := b.User("u", s)
	a := b.File("a", 4, trace.TierThumbnail)
	c := b.File("c", 4, trace.TierThumbnail)
	d := b.File("d", 4, trace.TierThumbnail)
	// a hit 3 times -> freq 3; c freq 1. Insert d: GDSF evicts c.
	b.SimpleJob(u, s, t0, []trace.FileID{a, a, a, c, d, a})
	tr := b.Build()
	m := replayFiles(t, tr, NewFileGranularity(tr), NewGDSF(), 8)
	if m.Hits != 3 || m.Misses != 3 {
		t.Errorf("metrics = %+v, want 3 hits / 3 misses", m)
	}
}

func TestBundleLRUProtectsActiveBundles(t *testing.T) {
	// Bundles {0,1} and {2,3} via two repeating jobs; then interleave.
	jobs := [][]trace.FileID{
		{0, 1}, {2, 3}, {0, 1}, {2, 3},
	}
	tr := seqTrace(t, 4, 1, jobs)
	p := core.Identify(tr)
	m := replayFiles(t, tr, NewFileculeGranularity(tr, p), NewLRU(), 4)
	if m.Misses != 2 {
		t.Errorf("filecule LRU misses = %d, want 2", m.Misses)
	}
	mb := replayFiles(t, tr, NewFileGranularity(tr), NewBundlePolicy(NewLRU(), p), 4)
	// Bundle LRU does not prefetch: every first touch of a file misses.
	if mb.Misses != 4 {
		t.Errorf("bundle LRU misses = %d, want 4", mb.Misses)
	}
	// But with capacity 2 and interleaved bundles, bundle LRU evicts
	// coherently: victims come from the cold bundle.
	tr2 := seqTrace(t, 4, 1, [][]trace.FileID{{0, 1}, {2, 3}, {0, 1}})
	p2 := core.Identify(tr2)
	m2 := replayFiles(t, tr2, NewFileGranularity(tr2), NewBundlePolicy(NewLRU(), p2), 2)
	if m2.Misses != 6 {
		t.Errorf("bundle LRU thrash misses = %d, want 6", m2.Misses)
	}
}

// randomReplayTrace builds a random multi-job trace for property tests.
func randomReplayTrace(tb testing.TB, seed int64) *trace.Trace {
	return randomSizedTrace(tb, seed, func(r *rand.Rand) int64 { return int64(1 + r.Intn(50)) })
}

// randomUniformTrace is randomReplayTrace with unit-size files (the setting
// in which Belady's algorithm is provably optimal).
func randomUniformTrace(tb testing.TB, seed int64) *trace.Trace {
	return randomSizedTrace(tb, seed, func(*rand.Rand) int64 { return 1 })
}

func randomSizedTrace(tb testing.TB, seed int64, size func(*rand.Rand) int64) *trace.Trace {
	r := rand.New(rand.NewSource(seed))
	nFiles := 5 + r.Intn(30)
	nJobs := 3 + r.Intn(20)
	var jobs [][]trace.FileID
	for j := 0; j < nJobs; j++ {
		n := 1 + r.Intn(8)
		var fs []trace.FileID
		for k := 0; k < n; k++ {
			fs = append(fs, trace.FileID(r.Intn(nFiles)))
		}
		jobs = append(jobs, fs)
	}
	b := trace.NewBuilder()
	s := b.Site("s", ".gov", 1)
	u := b.User("u", s)
	for i := 0; i < nFiles; i++ {
		b.File(fname(i), size(r), trace.TierThumbnail)
	}
	for i, fs := range jobs {
		b.SimpleJob(u, s, t0.Add(time.Duration(i)*time.Hour), fs)
	}
	return b.Build()
}

func TestInvariantsProperty(t *testing.T) {
	f := func(seed int64, capRaw uint16) bool {
		tr := randomReplayTrace(t, seed)
		capacity := int64(capRaw%500) + 1
		p := core.Identify(tr)
		for _, mk := range []func() (Granularity, Policy){
			func() (Granularity, Policy) { return NewFileGranularity(tr), NewLRU() },
			func() (Granularity, Policy) { return NewFileculeGranularity(tr, p), NewLRU() },
			func() (Granularity, Policy) { return NewFileGranularity(tr), NewGDS() },
			func() (Granularity, Policy) { return NewFileGranularity(tr), NewGDSF() },
			func() (Granularity, Policy) { return NewFileGranularity(tr), NewLFUDA() },
			func() (Granularity, Policy) { return NewFileGranularity(tr), NewBundlePolicy(NewLRU(), p) },
			func() (Granularity, Policy) { return NewFileculeGranularity(tr, p), NewGDS() },
		} {
			g, pol := mk()
			sim := NewSim(tr, g, pol, capacity)
			reqs := tr.Requests()
			for i, r := range reqs {
				sim.Access(r.File, int64(i))
				if sim.Used() > capacity {
					t.Logf("policy %s: used %d > capacity %d", pol.Name(), sim.Used(), capacity)
					return false
				}
			}
			m := sim.Metrics()
			if m.Hits+m.Misses != m.Requests || m.Requests != int64(len(reqs)) {
				t.Logf("policy %s: hit/miss accounting broken: %+v", pol.Name(), m)
				return false
			}
			if m.BytesMissed > m.BytesRequested {
				t.Logf("policy %s: byte accounting broken: %+v", pol.Name(), m)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestOPTDominatesOnlinePoliciesProperty(t *testing.T) {
	// Belady is provably optimal only for uniform unit sizes; with
	// variable sizes it is a strong heuristic that online policies can
	// occasionally beat, so the property is checked on unit-size traces.
	f := func(seed int64, capRaw uint16) bool {
		tr := randomUniformTrace(t, seed)
		capacity := int64(capRaw%40) + 1
		reqs := tr.Requests()
		for _, gran := range []func() Granularity{
			func() Granularity { return NewFileGranularity(tr) },
		} {
			g := gran()
			opt := SimulateOPT(tr, g, capacity, reqs)
			for _, pol := range []Policy{NewLRU(), NewARC(capacity), NewGDS(), NewGDSF(), NewLFUDA()} {
				m := NewSim(tr, g, pol, capacity).Replay(reqs)
				if opt.Misses > m.Misses {
					t.Logf("OPT (%d misses) beaten by %s (%d) at capacity %d seed %d",
						opt.Misses, pol.Name(), m.Misses, capacity, seed)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestOPTKnownSequence(t *testing.T) {
	// Classic Belady example: capacity 2 (unit sizes 1), sequence
	// 0 1 2 0 1: OPT evicts 2's loader victim optimally.
	tr := seqTrace(t, 3, 1, [][]trace.FileID{{0, 1, 2, 0, 1}})
	m := SimulateOPT(tr, NewFileGranularity(tr), 2, tr.Requests())
	// OPT: load 0,1. 2 misses -> evict whichever of 0/1 used later...
	// both used later; evict 1 (farther next use: 0 at idx3, 1 at idx4).
	// 0 hits, 1 misses. Total misses 4, hits 1.
	if m.Misses != 4 || m.Hits != 1 {
		t.Errorf("OPT metrics = %+v, want 4 misses / 1 hit", m)
	}
}

func TestSimPanicsOnBadCapacity(t *testing.T) {
	tr := seqTrace(t, 1, 1, [][]trace.FileID{{0}})
	defer func() {
		if recover() == nil {
			t.Error("NewSim accepted capacity 0")
		}
	}()
	NewSim(tr, NewFileGranularity(tr), NewLRU(), 0)
}
