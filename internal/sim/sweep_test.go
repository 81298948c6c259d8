package sim

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"
	"time"

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
// grid — policies × granularities × capacities — must be byte-identical (Go
// struct equality on cache.Metrics) between the single-pass dense engine and
// one-at-a-time cache.Sim replays. Beside the paper grid, it replays the
// whole stream over a partition identified from the first half of the jobs,
// so files only the second half requests are uncovered (degenerate units on
// the filecule axis, singleton bundles), at caches small enough that
// filecules bypass to their degenerate slots. gdsf and lfuda, off the
// default grid, run over both partitions too.
func TestSweepMatchesSequential(t *testing.T) {
	tr, p, reqs := workload(t)
	half := make([]trace.JobID, len(tr.Jobs)/2)
	for i := range half {
		half[i] = trace.JobID(i)
	}
	halfP := core.IdentifyJobs(tr, half)
	uncovered := 0
	for _, r := range reqs {
		if halfP.Of(r.File) < 0 {
			uncovered++
		}
	}
	if uncovered == 0 {
		t.Fatal("the half-trace partition covers every request: the case tests nothing")
	}

	small := []float64{0.05, 0.5, 5}
	freq := []string{"gdsf", "lfuda"}
	cases := []struct {
		name string
		p    *core.Partition
		cfg  SweepConfig
	}{
		{"paper grid", p, SweepConfig{Scale: diffScale}},
		{"uncovered files, small caches", halfP, SweepConfig{Scale: diffScale, CapacitiesTB: small}},
		{"gdsf and lfuda", p, SweepConfig{Scale: diffScale, Policies: freq}},
		{"gdsf and lfuda, uncovered files, small caches", halfP, SweepConfig{Scale: diffScale, Policies: freq, CapacitiesTB: small}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Sweep(tr, tc.p, reqs, tc.cfg)
			if err != nil {
				t.Fatalf("Sweep: %v", err)
			}
			want, err := SweepSequential(tr, tc.p, reqs, tc.cfg)
			if err != nil {
				t.Fatalf("SweepSequential: %v", err)
			}
			caps := len(tc.cfg.CapacitiesTB)
			if caps == 0 {
				caps = len(Fig10CacheSizesTB)
			}
			pols := len(tc.cfg.Policies)
			if pols == 0 {
				pols = len(defaultPolicies)
			}
			if n := pols * len(SweepGranularities) * caps; len(got.Cells) != n || len(want.Cells) != n {
				t.Fatalf("grids of %d and %d cells, want every policy × granularity pair at %d sizes: %d",
					len(got.Cells), len(want.Cells), caps, n)
			}
			bypassed := false
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
				bypassed = bypassed || g.Granularity == "filecule" && g.Metrics.Bypasses > 0
			}
			if !bypassed {
				t.Error("no filecule cell bypassed: the degenerate slots went unexercised")
			}
		})
	}
}

// TestSweepMemoryFollowsRequests pins what the compact slot spaces buy. The
// workload's catalog is padded with 9×F files no request names, interleaved
// so every requested file's ID moves but its order does not. The cells must
// not change, and the bytes Sweep allocates may grow only by the axes'
// shared per-catalog lookup tables — file size, requested mark, file slot,
// filecule and degenerate slot, bundle key: 25 bytes per padded file — never
// by anything every cell holds. One per-catalog byte in each of the 84 cells
// would already cost 84.
func TestSweepMemoryFollowsRequests(t *testing.T) {
	tr, p, reqs := workload(t)
	const stride = 10 // each original file, then nine padding files
	padded := &trace.Trace{Files: make([]trace.File, stride*len(tr.Files))}
	for i := range padded.Files {
		padded.Files[i] = trace.File{ID: trace.FileID(i), Size: 1 << 20}
	}
	for _, f := range tr.Files {
		padded.Files[stride*int(f.ID)].Size = f.Size
	}
	fcs := make([]core.Filecule, p.NumFilecules())
	for i, fc := range p.Filecules {
		fcs[i] = core.Filecule{Files: make([]trace.FileID, len(fc.Files)), Requests: fc.Requests}
		for j, f := range fc.Files {
			fcs[i].Files[j] = stride * f
		}
	}
	paddedP := core.NewPartition(fcs)
	paddedReqs := make([]trace.Request, len(reqs))
	for i, r := range reqs {
		r.File *= stride
		paddedReqs[i] = r
	}

	// Small chunks keep the workers' resolve buffers, one per worker, far
	// below the margin.
	cfg := SweepConfig{Scale: diffScale, Workers: 2, batchSize: 256}
	sweep := func(tr *trace.Trace, p *core.Partition, reqs []trace.Request) (*SweepResult, uint64) {
		p.Of(0) // the partition's lazy file index is the caller's, not the sweep's
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Sweep(tr, p, reqs, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("Sweep: %v", err)
		}
		return res, after.TotalAlloc - before.TotalAlloc
	}
	base, baseBytes := sweep(tr, p, reqs)
	pad, padBytes := sweep(padded, paddedP, paddedReqs)
	diffCells(t, "padded catalog", pad, base)

	padFiles := len(padded.Files) - len(tr.Files)
	perFile := (float64(padBytes) - float64(baseBytes)) / float64(padFiles)
	t.Logf("Sweep allocated %d B over %d files, %d B over %d (%.1f B per padded file)",
		baseBytes, len(tr.Files), padBytes, len(padded.Files), perFile)
	if perFile > 48 {
		t.Errorf("padding the catalog with %d never-requested files grew Sweep's allocation by %.1f B per file, want <= 48: per-cell state follows the catalog",
			padFiles, perFile)
	}
}

// TestSweepLiveStateBound pins that a sweep holds one worker's cell at a
// time, not the grid: at one worker, the heap the full default grid adds at
// its peak stays within a small multiple of what a one-cell sweep adds. The
// shared state — stream, axes, next-use chains — is in both; a grid whose
// cells are all live at once adds 84 cells' state to it. A sampler reads the
// heap while each sweep runs, under a low GC percent so the heap tracks what
// is live, on a second P. It is skipped in -short runs and under the race detector, whose
// workload is too small for the cells to show.
func TestSweepLiveStateBound(t *testing.T) {
	if testing.Short() {
		t.Skip("heap sampling skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("the race detector's workload is too small to measure")
	}
	tr, p, reqs := workload(t)
	defer debug.SetGCPercent(debug.SetGCPercent(5))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))) // the sampler runs beside the worker
	peak := func(cfg SweepConfig) uint64 {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		runtime.GC()
		metrics.Read(sample)
		before := sample[0].Value.Uint64()
		done := make(chan struct{})
		high := make(chan uint64)
		go func() {
			var hi uint64
			for {
				select {
				case <-done:
					high <- hi
					return
				default:
				}
				metrics.Read(sample)
				hi = max(hi, sample[0].Value.Uint64())
				time.Sleep(50 * time.Microsecond)
			}
		}()
		if _, err := Sweep(tr, p, reqs, cfg); err != nil {
			t.Fatalf("Sweep: %v", err)
		}
		close(done)
		return max(<-high, before) - before
	}
	one := peak(SweepConfig{Scale: diffScale, Workers: 1, Policies: []string{"gds"},
		Granularities: []string{"file"}, CapacitiesTB: []float64{100}})
	grid := peak(SweepConfig{Scale: diffScale, Workers: 1})
	t.Logf("heap added at peak: one cell %d B, the default grid %d B (%.1fx)", one, grid, float64(grid)/float64(one))
	if one == 0 {
		t.Fatal("the sampler saw no heap added by a one-cell sweep")
	}
	if grid > 5*one {
		t.Errorf("the default grid at one worker adds %d B to the heap at its peak, more than 5x a one-cell sweep's %d B: cells outlive their replay",
			grid, one)
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
		cfg.batchSize = bs
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
		{CapacitiesTB: []float64{math.NaN()}},
		{CapacitiesTB: []float64{math.Inf(1)}},
		{CapacitiesTB: []float64{1e30}},             // 1e30 TB overflows int64 bytes
		{CapacitiesTB: []float64{1e6}, Scale: 1e30}, // so does a fine size at a huge scale
		{Scale: -1},
		{Scale: math.NaN()},
		{Scale: math.Inf(1)},
	}
	for _, cfg := range bad {
		if _, err := Sweep(tr, p, reqs, cfg); err == nil {
			t.Errorf("Sweep accepted invalid config %+v", cfg)
		}
		if _, err := SweepSequential(tr, p, reqs, cfg); err == nil {
			t.Errorf("SweepSequential accepted invalid config %+v", cfg)
		}
	}
	// A repeated axis value would put every cell it names in the grid twice;
	// the refusal names it.
	for _, c := range []struct {
		cfg  SweepConfig
		want string
	}{
		{SweepConfig{Policies: []string{"lru", "lru"}}, `policy "lru" given twice`},
		{SweepConfig{Granularities: []string{"file", "filecule", "file"}}, `granularity "file" given twice`},
		{SweepConfig{CapacitiesTB: []float64{1, 10, 1}}, "cache size 1 TB given twice"},
	} {
		if _, err := Sweep(tr, p, reqs, c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Sweep(%+v) = %v, want an error saying %s", c.cfg, err, c.want)
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
