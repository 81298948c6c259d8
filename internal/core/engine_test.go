package core

import (
	"sync"
	"testing"

	"filecule/internal/trace"
)

func TestEngineMatchesBatchUnderConcurrency(t *testing.T) {
	tr := randomTrace(t, 42, 50, 300)
	e := NewEngine(0)
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(tr.Jobs); i += workers {
				e.Observe(tr.Jobs[i].Files)
			}
		}(w)
	}
	wg.Wait()
	want := Identify(tr)
	got := e.Snapshot()
	if !want.Equal(got) {
		t.Error("concurrent engine diverged from batch")
	}
	if err := got.Validate(); err != nil {
		t.Error(err)
	}
	if e.NumFilecules() != want.NumFilecules() {
		t.Errorf("NumFilecules = %d, want %d", e.NumFilecules(), want.NumFilecules())
	}
	if e.Observed() != int64(len(tr.Jobs)) {
		t.Errorf("observed %d, want %d", e.Observed(), len(tr.Jobs))
	}
}

func TestEngineSnapshotCachingAndIsolation(t *testing.T) {
	e := NewEngine(0)
	e.Observe([]trace.FileID{1, 2, 3})
	p1 := e.Snapshot()
	if p2 := e.Snapshot(); p1 != p2 {
		t.Error("unchanged engine did not return the identical snapshot pointer")
	}
	e.Observe([]trace.FileID{2})
	p3 := e.Snapshot()
	if p3 == p1 {
		t.Error("observe did not invalidate the cached snapshot")
	}
	// The earlier snapshot is immutable: the split must not leak into it.
	if p1.NumFilecules() != 1 || len(p1.Filecules[0].Files) != 3 {
		t.Errorf("earlier snapshot mutated: %+v", p1.Filecules)
	}
	if p3.NumFilecules() != 2 {
		t.Errorf("filecules after split = %d, want 2", p3.NumFilecules())
	}
	if got := p3.Of(2); got < 0 || len(p3.Filecules[got].Files) != 1 || p3.Filecules[got].Requests != 2 {
		t.Errorf("split filecule wrong: Of(2)=%d %+v", got, p3.Filecules)
	}
	// ObserveBatch must also invalidate.
	e.ObserveBatch([][]trace.FileID{{10}, {11}})
	if p4 := e.Snapshot(); p4 == p3 || p4.NumFiles() != 5 {
		t.Error("ObserveBatch did not invalidate the cached snapshot")
	}
	// An empty job changes nothing but still counts and invalidates.
	before := e.Snapshot()
	e.Observe(nil)
	if e.Observed() != 5 {
		t.Errorf("observed = %d, want 5", e.Observed())
	}
	after := e.Snapshot()
	if after == before {
		t.Error("empty observe did not invalidate the snapshot pointer")
	}
	if !after.Equal(before) {
		t.Error("empty observe changed the partition")
	}
}

// TestEngineCopyOnWriteReuse pins what consecutive snapshots share. After an
// observe that moved request counts only, the new snapshot shares the previous
// one's member lists and its shape — file index, size table, summary — and
// differs in counts; after a split, only the blocks that split are
// re-materialized.
func TestEngineCopyOnWriteReuse(t *testing.T) {
	e := NewEngine(0)
	e.Observe([]trace.FileID{1, 2})
	e.Observe([]trace.FileID{10, 11})
	cat := &trace.Trace{Files: make([]trace.File, 12)}
	for i := range cat.Files {
		cat.Files[i] = trace.File{ID: trace.FileID(i), Size: 100}
	}
	p1 := e.Snapshot()
	sizes := p1.SizeTable(cat)
	// Touch only the {10, 11} group, wholly.
	e.Observe([]trace.FileID{10, 11})
	p2 := e.Snapshot()
	if !sameSlice(fileculeFiles(p1, 1), fileculeFiles(p2, 1)) || !sameSlice(fileculeFiles(p1, 10), fileculeFiles(p2, 10)) {
		t.Error("a re-request re-materialized a member list")
	}
	if p2.shape != p1.shape || &p2.SizeTable(cat)[0] != &sizes[0] {
		t.Error("a snapshot after a re-request did not share the previous one's shape")
	}
	if p1.FileculeOf(10).Requests != 1 || p2.FileculeOf(10).Requests != 2 {
		t.Errorf("requests of {10,11}: %d before, %d after; want 1, 2",
			p1.FileculeOf(10).Requests, p2.FileculeOf(10).Requests)
	}
	if st := e.SnapshotStats(); st != (SnapshotStats{Shared: 1, Rebuilt: 1}) {
		t.Errorf("SnapshotStats = %+v, want one of each", st)
	}

	e.Observe([]trace.FileID{10}) // splits {10, 11}
	p3 := e.Snapshot()
	if p3.shape == p1.shape {
		t.Error("a snapshot after a split shares the shape of one before it")
	}
	if !sameSlice(fileculeFiles(p1, 1), fileculeFiles(p3, 1)) {
		t.Error("untouched group was re-materialized (COW reuse failed)")
	}
	if got := p3.SizeTable(cat); len(got) != 3 || got[p3.Of(10)] != 100 || got[p3.Of(1)] != 200 {
		t.Errorf("size table after the split = %v", got)
	}
	if st := e.SnapshotStats(); st != (SnapshotStats{Shared: 1, Rebuilt: 2}) {
		t.Errorf("SnapshotStats = %+v after a split, want 1 shared, 2 rebuilt", st)
	}
	if p1.NumFilecules() != 2 || p2.NumFilecules() != 2 || len(fileculeFiles(p2, 10)) != 2 {
		t.Error("the split leaked into snapshots handed out before it")
	}
}

// fileculeFiles returns the member slice of the filecule containing f.
func fileculeFiles(p *Partition, f trace.FileID) []trace.FileID {
	fc := p.FileculeOf(f)
	if fc == nil {
		return nil
	}
	return fc.Files
}

// sameSlice reports whether two slices share the same backing array cell 0.
func sameSlice(a, b []trace.FileID) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// TestEngineSteadyStateAllocs pins the allocation-flat property: once the
// partition has settled, re-observing jobs allocates (amortized) nothing —
// no map churn, no block rebuilds, only swaps and counter updates.
func TestEngineSteadyStateAllocs(t *testing.T) {
	tr := randomTrace(t, 7, 60, 400)
	e := NewEngine(0)
	e.ObserveTrace(tr)
	e.ObserveTrace(tr) // second pass: partition fully settled
	i := 0
	avg := testing.AllocsPerRun(500, func() {
		e.Observe(tr.Jobs[i%len(tr.Jobs)].Files)
		i++
	})
	if avg > 0.5 {
		t.Errorf("steady-state Observe allocates %.2f allocs/op, want ~0", avg)
	}
}

// TestEngineLazyPartitionIndex checks that a snapshot's file index, built on
// first lookup, answers like batch identification's, including when the
// first lookups race.
func TestEngineLazyPartitionIndex(t *testing.T) {
	tr := randomTrace(t, 11, 40, 150)
	e := NewEngine(0)
	e.ObserveTrace(tr)
	lazy := e.Snapshot()
	eager := Identify(tr)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := trace.FileID(0); int(f) < len(tr.Files); f++ {
				li, ei := lazy.Of(f), eager.Of(f)
				if (li < 0) != (ei < 0) {
					t.Errorf("Of(%d): lazy %d, eager %d", f, li, ei)
					return
				}
			}
		}()
	}
	wg.Wait()
	if lazy.NumFiles() != eager.NumFiles() {
		t.Errorf("NumFiles: lazy %d, eager %d", lazy.NumFiles(), eager.NumFiles())
	}
}

// The TestMonitor* cases hold the engine to its Section 6 role — the
// identification monitor at a concentration point, with many submitters and
// readers at once — and run under -race in CI.

func TestMonitorMatchesBatchUnderConcurrency(t *testing.T) {
	tr := randomTrace(t, 77, 40, 200)
	e := NewEngine(0)

	// Feed jobs from several goroutines. The interleaving is arbitrary,
	// but filecule identification is order-insensitive over a fixed job
	// multiset, so the final partition must group files exactly like the
	// batch result (request counts per filecule also match: they count
	// jobs, not order).
	const workers = 8
	var wg sync.WaitGroup
	ch := make(chan *trace.Job)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				e.Observe(j.Files)
			}
		}()
	}
	for i := range tr.Jobs {
		ch <- &tr.Jobs[i]
	}
	close(ch)
	wg.Wait()

	if e.Observed() != int64(len(tr.Jobs)) {
		t.Fatalf("observed %d jobs, want %d", e.Observed(), len(tr.Jobs))
	}
	got := e.Snapshot()
	want := Identify(tr)
	if !got.Equal(want) {
		t.Error("concurrently fed engine diverged from batch identification")
	}
	if got.Validate() != nil {
		t.Error("snapshot invalid")
	}
}

func TestMonitorSnapshotIsIsolated(t *testing.T) {
	e := NewEngine(0)
	e.Observe([]trace.FileID{0, 1})
	snap := e.Snapshot()
	if snap.NumFilecules() != 1 {
		t.Fatalf("filecules = %d", snap.NumFilecules())
	}
	// Later observations must not mutate the earlier snapshot.
	e.Observe([]trace.FileID{0})
	if snap.NumFilecules() != 1 || len(snap.Filecules[0].Files) != 2 {
		t.Error("snapshot mutated by later observation")
	}
	if e.NumFilecules() != 2 {
		t.Errorf("engine filecules = %d, want 2 after split", e.NumFilecules())
	}
}

func TestMonitorConcurrentReadersAndWriters(t *testing.T) {
	tr := randomTrace(t, 3, 30, 120)
	e := NewEngine(0)
	var wg sync.WaitGroup
	// Writers.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(tr.Jobs); i += 4 {
				e.Observe(tr.Jobs[i].Files)
			}
		}(w)
	}
	// Readers take snapshots while writes are in flight; every snapshot
	// must be internally consistent.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := e.Snapshot().Validate(); err != nil {
					t.Errorf("mid-flight snapshot invalid: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if !e.Snapshot().Equal(Identify(tr)) {
		t.Error("final state diverged from batch")
	}
}
