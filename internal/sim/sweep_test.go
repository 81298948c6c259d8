package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"filecule/internal/core"
	"filecule/internal/synth"
	"filecule/internal/trace"
)

// sweepWorkload lazily generates the shared differential-test workload: the
// synthetic paper trace at diffScale, its filecule partition, and the
// flattened request stream.
var sweepWorkload = struct {
	once sync.Once
	t    *trace.Trace
	p    *core.Partition
	reqs []trace.Request
}{}

func workload(t *testing.T) (*trace.Trace, *core.Partition, []trace.Request) {
	t.Helper()
	w := &sweepWorkload
	w.once.Do(func() {
		tr, err := synth.Generate(synth.DZero(1, diffScale))
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		w.t = tr
		w.p = core.Identify(tr)
		w.reqs = tr.Requests()
	})
	if w.t == nil {
		t.Fatal("workload generation failed in an earlier test")
	}
	return w.t, w.p, w.reqs
}

// TestSweepMatchesSequential is the engine's contract: every cell of the
// full grid — policies × granularities × the seven paper capacities — must
// be byte-identical (Go struct equality on cache.Metrics) between the
// single-pass dense engine and one-at-a-time cache.Sim replays.
func TestSweepMatchesSequential(t *testing.T) {
	tr, p, reqs := workload(t)
	cfg := SweepConfig{Scale: diffScale}

	got, err := Sweep(tr, p, reqs, cfg)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	want, err := SweepSequential(tr, p, reqs, cfg)
	if err != nil {
		t.Fatalf("SweepSequential: %v", err)
	}
	if len(got.Cells) != len(want.Cells) {
		t.Fatalf("cell count %d != %d", len(got.Cells), len(want.Cells))
	}
	if len(got.Cells) != len(SweepPolicies)*len(SweepGranularities)*len(Fig10CacheSizesTB) {
		t.Fatalf("grid has %d cells, want full %d-cell grid", len(got.Cells),
			len(SweepPolicies)*len(SweepGranularities)*len(Fig10CacheSizesTB))
	}
	for i := range got.Cells {
		g, w := got.Cells[i], want.Cells[i]
		if g != w {
			t.Errorf("cell %s/%s/%gTB: single-pass %+v != sequential %+v",
				g.Policy, g.Granularity, g.CacheTB, g, w)
		}
		if g.Metrics.Requests != int64(len(reqs)) {
			t.Errorf("cell %s/%s/%gTB: replayed %d of %d requests",
				g.Policy, g.Granularity, g.CacheTB, g.Metrics.Requests, len(reqs))
		}
	}
}

// TestSweepWorkerInvariance pins that results do not depend on how cells are
// sharded over workers.
func TestSweepWorkerInvariance(t *testing.T) {
	tr, p, reqs := workload(t)
	cfg := SweepConfig{Scale: diffScale, CapacitiesTB: []float64{2, 20}}

	var base []CellResult
	for _, workers := range []int{1, 3, 8} {
		cfg.Workers = workers
		res, err := Sweep(tr, p, reqs, cfg)
		if err != nil {
			t.Fatalf("Sweep(workers=%d): %v", workers, err)
		}
		if base == nil {
			base = res.Cells
			continue
		}
		if !reflect.DeepEqual(res.Cells, base) {
			t.Errorf("workers=%d: cells differ from workers=1 run", workers)
		}
	}
}

// TestSweepBatchInvariance pins that results do not depend on batch
// boundaries, including the degenerate one-request-per-batch case.
func TestSweepBatchInvariance(t *testing.T) {
	tr, p, reqs := workload(t)
	cfg := SweepConfig{
		Scale:         diffScale,
		Policies:      []string{"lru", "arc"},
		Granularities: []string{"filecule", "bundle"},
		CapacitiesTB:  []float64{5},
	}

	var base []CellResult
	for _, bs := range []int{1, 7, 4096} {
		cfg.BatchSize = bs
		res, err := Sweep(tr, p, reqs, cfg)
		if err != nil {
			t.Fatalf("Sweep(batch=%d): %v", bs, err)
		}
		if base == nil {
			base = res.Cells
			continue
		}
		if !reflect.DeepEqual(res.Cells, base) {
			t.Errorf("batch=%d: cells differ from batch=1 run", bs)
		}
	}
}

// TestSweepWarmup pins warmup handling against the sequential reference.
func TestSweepWarmup(t *testing.T) {
	tr, p, reqs := workload(t)
	cfg := SweepConfig{
		Scale:         diffScale,
		Policies:      []string{"gds", "opt"},
		Granularities: []string{"file", "bundle"},
		CapacitiesTB:  []float64{1, 10},
		Warmup:        int64(len(reqs) / 3),
	}
	got, err := Sweep(tr, p, reqs, cfg)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	want, err := SweepSequential(tr, p, reqs, cfg)
	if err != nil {
		t.Fatalf("SweepSequential: %v", err)
	}
	if !reflect.DeepEqual(got.Cells, want.Cells) {
		t.Errorf("warmup sweep differs from sequential reference")
	}
	if n := got.Cells[0].Metrics.Requests; n != int64(len(reqs))-cfg.Warmup {
		t.Errorf("warmup: counted %d requests, want %d", n, int64(len(reqs))-cfg.Warmup)
	}
}

// TestSweepSpeedup asserts the engine's reason to exist: the single-pass
// dense sweep must beat one-at-a-time cache.Sim replays of the same grid by
// at least 3x wall clock. The measured margin is much larger (~9x on one
// CPU), so a 3x floor stays robust to machine noise; it is still a timing
// assertion, so it is skipped in -short runs and under the race detector.
func TestSweepSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing comparison meaningless under the race detector")
	}
	tr, p, reqs := workload(t)
	cfg := SweepConfig{Scale: diffScale}

	fast, err := Sweep(tr, p, reqs, cfg)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	slow, err := SweepSequential(tr, p, reqs, cfg)
	if err != nil {
		t.Fatalf("SweepSequential: %v", err)
	}
	speedup := slow.WallSeconds / fast.WallSeconds
	t.Logf("single-pass %.2fs, sequential %.2fs, speedup %.1fx",
		fast.WallSeconds, slow.WallSeconds, speedup)
	if speedup < 3 {
		t.Errorf("single-pass sweep only %.1fx faster than sequential, want >= 3x", speedup)
	}
}

// TestSweepValidates covers config rejection.
func TestSweepValidates(t *testing.T) {
	tr, p, reqs := workload(t)
	bad := []SweepConfig{
		{Policies: []string{"lru", "mru"}},
		{Granularities: []string{"block"}},
		{CapacitiesTB: []float64{1, 0}},
		{CapacitiesTB: []float64{-5}},
		{Scale: -1},
		{Warmup: -1},
	}
	for _, cfg := range bad {
		if _, err := Sweep(tr, p, reqs, cfg); err == nil {
			t.Errorf("Sweep accepted invalid config %+v", cfg)
		}
		if _, err := SweepSequential(tr, p, reqs, cfg); err == nil {
			t.Errorf("SweepSequential accepted invalid config %+v", cfg)
		}
	}
}

// TestSweepJSONRoundTrip pins the result schema: encoding and re-decoding
// preserves every cell, and the schema tag is versioned.
func TestSweepJSONRoundTrip(t *testing.T) {
	tr, p, reqs := workload(t)
	cfg := SweepConfig{
		Scale:         diffScale,
		Policies:      []string{"lru"},
		Granularities: []string{"file", "filecule"},
		CapacitiesTB:  []float64{1, 100},
	}
	res, err := Sweep(tr, p, reqs, cfg)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back SweepResult
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if back.Schema != SweepSchema {
		t.Errorf("schema %q, want %q", back.Schema, SweepSchema)
	}
	if !reflect.DeepEqual(back.Cells, res.Cells) {
		t.Errorf("cells changed across JSON round trip")
	}
	if back.Requests != len(reqs) || back.Jobs != len(tr.Jobs) {
		t.Errorf("trace header mismatch: %+v", back)
	}
}
