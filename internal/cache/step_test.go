package cache

import (
	"math/rand"
	"testing"
	"time"

	"filecule/internal/core"
	"filecule/internal/trace"
)

// stepTrace builds a randomized but deterministic workload with files spread
// over several filecules, oversized units, and heavy reuse — enough to
// exercise hits, misses, bypasses and evictions in every simulator.
func stepTrace(seed int64, nFiles, nJobs int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	t0 := time.Unix(0, 0).UTC()
	tr := &trace.Trace{
		Sites: []trace.Site{{ID: 0, Name: "s", Domain: ".gov", Nodes: 1}},
		Users: []trace.User{{ID: 0, Name: "u", Site: 0}},
	}
	for i := 0; i < nFiles; i++ {
		tr.Files = append(tr.Files, trace.File{
			ID:   trace.FileID(i),
			Name: "f",
			Size: int64(1+rng.Intn(64)) << 20,
		})
	}
	for j := 0; j < nJobs; j++ {
		n := 1 + rng.Intn(6)
		var files []trace.FileID
		// Zipf-ish reuse: favor low file IDs so filecules form.
		for k := 0; k < n; k++ {
			f := rng.Intn(nFiles)
			if rng.Intn(3) > 0 {
				f = rng.Intn(1 + nFiles/4)
			}
			files = append(files, trace.FileID(f))
		}
		start := t0.Add(time.Duration(j) * time.Minute)
		tr.Jobs = append(tr.Jobs, trace.Job{
			ID: trace.JobID(j), User: 0, Site: 0, Family: trace.FamilyAnalysis,
			Start: start, End: start.Add(time.Minute),
			Files: files,
		})
	}
	return tr
}

// TestOPTPolicyMatchesSimulateOPT pins the equivalence the sweep engine
// relies on: driving Sim with OPTPolicy (next-use as a pluggable policy)
// yields exactly the metrics of the independently coded SimulateOPT, at both
// granularities and across capacities small enough to force evictions and
// bypasses.
func TestOPTPolicyMatchesSimulateOPT(t *testing.T) {
	tr := stepTrace(7, 60, 400)
	p := core.Identify(tr)
	reqs := tr.Requests()

	grans := []Granularity{NewFileGranularity(tr), NewFileculeGranularity(tr, p)}
	for _, g := range grans {
		next := NextUse(g, reqs)
		for _, capacity := range []int64{8 << 20, 64 << 20, 256 << 20, 4 << 30} {
			want := SimulateOPT(tr, g, capacity, reqs)
			got := NewSim(tr, g, NewOPTPolicy(next), capacity).Replay(reqs)
			if got != want {
				t.Errorf("%T, capacity %d: Sim+OPTPolicy %+v != SimulateOPT %+v",
					g, capacity, got, want)
			}
		}
	}
}

// TestStepMatchesReplay pins what the drivers that interleave their own work
// with the cache rely on (the prefetcher experiment, the grid sites): feeding
// a Sim one AccessJob at a time with now = the request index equals Replay
// on the whole stream, for a representative policy mix.
func TestStepMatchesReplay(t *testing.T) {
	tr := stepTrace(13, 50, 300)
	p := core.Identify(tr)
	reqs := tr.Requests()
	g := NewFileculeGranularity(tr, p)
	const capacity = 96 << 20

	mk := map[string]func() Policy{
		"lru":        func() Policy { return NewLRU() },
		"arc":        func() Policy { return NewARC(capacity) },
		"gds":        func() Policy { return NewGDS() },
		"opt":        func() Policy { return NewOPTPolicy(NextUse(g, reqs)) },
		"bundle-gds": func() Policy { return NewBundlePolicy(NewGDS(), g) },
	}
	for name, f := range mk {
		want := NewSim(tr, g, f(), capacity).Replay(reqs)
		step := NewSim(tr, g, f(), capacity)
		for i, r := range reqs {
			step.AccessJob(r.Job, r.File, int64(i))
		}
		if got := step.Metrics(); got != want {
			t.Errorf("%s: step-driven %+v != Replay %+v", name, got, want)
		}
	}
}

// TestBundlePolicyInvariants sanity-checks the wrapper against every base
// under a capacity pressure replay: unit counts stay consistent and the
// cache ends non-empty.
func TestBundlePolicyInvariants(t *testing.T) {
	tr := stepTrace(17, 64, 400)
	bundles := NewFileculeGranularity(tr, core.Identify(tr))
	reqs := tr.Requests()
	g := NewFileGranularity(tr)
	const capacity = 48 << 20

	bases := map[string]func() Policy{
		"lru": func() Policy { return NewLRU() },
		"arc": func() Policy { return NewARC(capacity) },
		"gds": func() Policy { return NewGDS() },
		"opt": func() Policy { return NewOPTPolicy(NextUse(bundles, reqs)) },
	}
	for name, f := range bases {
		bp := NewBundlePolicy(f(), bundles)
		s := NewSim(tr, g, bp, capacity)
		m := s.Replay(reqs)
		if m.Requests != int64(len(reqs)) {
			t.Fatalf("%s: replayed %d of %d requests", name, m.Requests, len(reqs))
		}
		if m.Hits+m.Misses != m.Requests {
			t.Errorf("%s: hits %d + misses %d != requests %d", name, m.Hits, m.Misses, m.Requests)
		}
		if len(bp.byUnit) == 0 || s.used <= 0 || s.used > capacity {
			t.Errorf("%s: end state len=%d used=%d capacity=%d", name, len(bp.byUnit), s.used, capacity)
		}
	}
}
