package core

// Differential property test: every identification algorithm in the package
// must produce the same canonical partition on the same workload, and that
// partition must satisfy the three filecule invariants from the definition
// (disjointness, non-emptiness, uniform request count). The implementations
// share almost no code — batch signature grouping, online partition
// refinement, the engine, and the monitor fed concurrently — so
// agreement across randomized traces is strong evidence of correctness for
// all of them. (identify_reference_test.go holds the batch identifier to its
// map-based reference.)

import (
	"math/rand"
	"sync"
	"testing"

	"filecule/internal/synth"
	"filecule/internal/trace"
)

// diffTraces yields a mix of synthetic DZero-like workloads and adversarial
// random traces (tiny populations force heavy filecule splitting).
func diffTraces(tb testing.TB) []*trace.Trace {
	tb.Helper()
	var out []*trace.Trace
	for seed := int64(1); seed <= 3; seed++ {
		t, err := synth.Generate(synth.DZero(seed, 0.002))
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, t)
	}
	for seed := int64(10); seed <= 14; seed++ {
		out = append(out, adversarialTrace(seed))
	}
	return out
}

// adversarialTrace builds a trace with uniformly random small input sets,
// including empty jobs, duplicate file IDs within a job, and never-requested
// files — the edge cases the synthetic generator avoids.
func adversarialTrace(seed int64) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	nFiles := 20 + rng.Intn(60)
	nJobs := 50 + rng.Intn(200)
	t := &trace.Trace{
		Sites: []trace.Site{{ID: 0, Name: "s", Domain: ".gov", Nodes: 1}},
		Users: []trace.User{{ID: 0, Name: "u", Site: 0}},
	}
	for i := 0; i < nFiles; i++ {
		t.Files = append(t.Files, trace.File{
			ID: trace.FileID(i), Name: "f", Size: 1 + rng.Int63n(1<<20),
		})
	}
	exec := &trace.Exec{Node: "n", App: "a", Version: "1"}
	for i := 0; i < nJobs; i++ {
		n := rng.Intn(8) // 0 is allowed: empty input set
		files := make([]trace.FileID, 0, n)
		for k := 0; k < n; k++ {
			files = append(files, trace.FileID(rng.Intn(nFiles)))
			if k > 0 && rng.Intn(4) == 0 {
				files = append(files, files[rng.Intn(len(files))]) // duplicate
			}
		}
		t.Jobs = append(t.Jobs, trace.Job{
			ID: trace.JobID(i), Exec: exec, Files: files,
		})
	}
	return t
}

// checkInvariants asserts the three filecule properties plus structural
// sanity, and that request counts are uniform across each filecule's
// members according to an independent per-file count.
func checkInvariants(t *testing.T, tr *trace.Trace, p *Partition) {
	t.Helper()
	// Disjointness, non-emptiness, dense IDs, byFile consistency.
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Uniform request count, recomputed from the raw trace: a file's
	// request count is the number of distinct jobs whose input set
	// contains it.
	counts := make(map[trace.FileID]int)
	for i := range tr.Jobs {
		seen := make(map[trace.FileID]bool)
		for _, f := range tr.Jobs[i].Files {
			if !seen[f] {
				seen[f] = true
				counts[f]++
			}
		}
	}
	covered := 0
	for i := range p.Filecules {
		fc := &p.Filecules[i]
		for _, f := range fc.Files {
			covered++
			if counts[f] != fc.Requests {
				t.Fatalf("filecule %d claims %d requests but file %d has %d",
					i, fc.Requests, f, counts[f])
			}
		}
	}
	if covered != len(counts) {
		t.Fatalf("partition covers %d files, trace requests %d", covered, len(counts))
	}
}

func TestDifferentialIdentification(t *testing.T) {
	for ti, tr := range diffTraces(t) {
		ref := Identify(tr)
		checkInvariants(t, tr, ref)

		r := NewRefiner()
		r.ObserveTrace(tr)
		if p := r.Partition(); !ref.Equal(p) {
			t.Errorf("trace %d: Refiner differs from Identify", ti)
		}

		// Engine, sequential feed.
		e := NewEngine(0)
		e.ObserveTrace(tr)
		if p := e.Snapshot(); !ref.Equal(p) {
			t.Errorf("trace %d: Engine differs from Identify", ti)
		}
		if got, want := e.NumFilecules(), ref.NumFilecules(); got != want {
			t.Errorf("trace %d: Engine counts %d filecules, want %d", ti, got, want)
		}

		// Engine fed by concurrent submitters (order scrambled by the
		// scheduler): filecules are equivalence classes, so the final
		// partition must not depend on observation order. Run under
		// -race this also checks the locking.
		m := NewEngine(0)
		var wg sync.WaitGroup
		workers := 8
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(tr.Jobs); i += workers {
					m.Observe(tr.Jobs[i].Files)
				}
			}(w)
		}
		wg.Wait()
		if p := m.Snapshot(); !ref.Equal(p) {
			t.Errorf("trace %d: concurrent Engine differs from Identify", ti)
		}
		checkInvariants(t, tr, m.Snapshot())
	}
}

// TestDifferentialPrefixes checks the online/batch equivalence the Refiner
// documents: after ANY prefix of the job stream, the refined partition
// equals batch identification over that prefix.
func TestDifferentialPrefixes(t *testing.T) {
	tr := adversarialTrace(99)
	r := NewRefiner()
	for i := range tr.Jobs {
		r.Observe(tr.Jobs[i].Files)
		if i%13 != 0 { // check a sample of prefixes, not all O(n^2)
			continue
		}
		ids := make([]trace.JobID, i+1)
		for k := range ids {
			ids[k] = trace.JobID(k)
		}
		want := IdentifyJobs(tr, ids)
		if got := r.Partition(); !want.Equal(got) {
			t.Fatalf("prefix %d: refiner differs from batch identification", i+1)
		}
	}
}

// TestDifferentialPrefixAllIdentifiers is the prefix-equivalence property
// across every identifier in the package: after each sampled prefix of the
// job stream, batch identification (Identify over a truncated trace,
// IdentifyJobs over the prefix's job IDs), the online
// Refiner and the Engine must all produce one bit-identical
// canonical partition.
func TestDifferentialPrefixAllIdentifiers(t *testing.T) {
	for _, seed := range []int64{5, 99, 123} {
		tr := adversarialTrace(seed)
		r := NewRefiner()
		e := NewEngine(0)
		for i := range tr.Jobs {
			r.Observe(tr.Jobs[i].Files)
			e.Observe(tr.Jobs[i].Files)
			if i%7 != 0 && i != len(tr.Jobs)-1 {
				continue
			}
			ids := make([]trace.JobID, i+1)
			for k := range ids {
				ids[k] = trace.JobID(k)
			}
			want := IdentifyJobs(tr, ids)
			prefix := *tr
			prefix.Jobs = tr.Jobs[:i+1]
			if got := Identify(&prefix); !want.Equal(got) {
				t.Fatalf("seed %d prefix %d: Identify differs from IdentifyJobs", seed, i+1)
			}
			if got := r.Partition(); !want.Equal(got) {
				t.Fatalf("seed %d prefix %d: Refiner differs from batch", seed, i+1)
			}
			if got := e.Snapshot(); !want.Equal(got) {
				t.Fatalf("seed %d prefix %d: Engine differs from batch", seed, i+1)
			}
			checkInvariants(t, &prefix, e.Snapshot())
		}
	}
}

// TestMonitorSnapshotCaching pins the snapshot-caching contract the serving
// layer relies on: unchanged state returns the identical pointer; an
// observation invalidates it.
func TestMonitorSnapshotCaching(t *testing.T) {
	m := NewEngine(0)
	m.Observe([]trace.FileID{1, 2})
	p1 := m.Snapshot()
	if p2 := m.Snapshot(); p1 != p2 {
		t.Error("snapshot not cached between observations")
	}
	m.Observe([]trace.FileID{2, 3})
	p3 := m.Snapshot()
	if p3 == p1 {
		t.Error("snapshot not invalidated by Observe")
	}
	if p3.NumFiles() != 3 {
		t.Errorf("snapshot covers %d files, want 3", p3.NumFiles())
	}
	// ObserveBatch must also invalidate.
	m.ObserveBatch([][]trace.FileID{{4}, {5}})
	if p4 := m.Snapshot(); p4 == p3 || p4.NumFiles() != 5 {
		t.Error("ObserveBatch did not invalidate the cached snapshot")
	}
}
