// Benchmarks that regenerate every table and figure of the paper (one
// Benchmark per artifact, backed by internal/experiments), plus
// micro-benchmarks of the core algorithms. Run with:
//
//	go test -bench=. -benchmem
//
// The per-artifact benches share one workload at bench scale, generated
// once when the test binary starts; each bench builds what it derives from
// it (partition, request stream) before b.ResetTimer.
package filecule_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"filecule/internal/cache"
	"filecule/internal/core"
	"filecule/internal/durable"
	"filecule/internal/experiments"
	"filecule/internal/server"
	"filecule/internal/sim"
	"filecule/internal/stats"
	"filecule/internal/synth"
	"filecule/internal/trace"
	"filecule/internal/wire"
	"filecule/internal/workload"
)

// benchScale keeps the full `go test -bench=.` run under a couple of
// minutes while exercising every experiment end to end.
const benchScale = 0.02

var benchRunner = newBenchRunner(benchScale)

// newBenchRunner returns a runner over the DZero workload, seed 1, at scale.
func newBenchRunner(scale float64) *experiments.Runner {
	t, err := synth.Generate(synth.DZero(1, scale))
	if err != nil {
		panic(err)
	}
	return experiments.NewForTrace(t, scale)
}

// benchCapacity is the 10 TB (full-scale) cache point scaled to the bench
// workload.
func benchCapacity() int64 {
	scale := benchScale // shed constant-ness; the product is fractional
	return int64(10 * scale * (1 << 40))
}

// benchExperiment runs one experiment driver per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	// Materialize the shared workload and partition outside the timing.
	benchRunner.Trace()
	benchRunner.Partition()
	benchRunner.Requests()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := benchRunner.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tables) == 0 {
			b.Fatal("no output")
		}
	}
}

func BenchmarkTable1(b *testing.B)           { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)           { benchExperiment(b, "table2") }
func BenchmarkFig1(b *testing.B)             { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)             { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)             { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)             { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)             { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)             { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)             { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)             { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)             { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)            { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)            { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)            { benchExperiment(b, "fig12") }
func BenchmarkSwarmFeasibility(b *testing.B) { benchExperiment(b, "swarm") }
func BenchmarkPartialKnowledge(b *testing.B) { benchExperiment(b, "partial") }
func BenchmarkReplication(b *testing.B)      { benchExperiment(b, "replication") }
func BenchmarkPolicyAblation(b *testing.B)   { benchExperiment(b, "ablation") }
func BenchmarkDynamics(b *testing.B)         { benchExperiment(b, "dynamics") }
func BenchmarkPrefetchers(b *testing.B)      { benchExperiment(b, "prefetchers") }
func BenchmarkFileBundle(b *testing.B)       { benchExperiment(b, "filebundle") }
func BenchmarkReplicationSweep(b *testing.B) { benchExperiment(b, "replsweep") }
func BenchmarkPlacement(b *testing.B)        { benchExperiment(b, "placement") }

// --- micro-benchmarks of the building blocks ---

// BenchmarkGenerateWorkload, BenchmarkRequestStream and
// BenchmarkSortJobsByStart are the cold path every run pays before its first
// answer. The gate holds their B/op and allocs/op (fixed inputs make both
// exact); ns/op is recorded only.
func BenchmarkGenerateWorkload(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := synth.Generate(synth.DZero(1, 0.01))
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Jobs) == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkSortJobsByStart orders 100 k jobs that arrive shuffled, as they do
// from a generator or an unordered source.
func BenchmarkSortJobsByStart(b *testing.B) {
	const n = 100_000
	r := rand.New(rand.NewSource(1))
	t0 := time.Date(2003, 1, 1, 0, 0, 0, 0, time.UTC)
	shuffled := make([]trace.Job, n)
	for i := range shuffled {
		start := t0.Add(time.Duration(r.Int63n(int64(810 * 24 * time.Hour))).Truncate(time.Second))
		shuffled[i] = trace.Job{Start: start, End: start.Add(time.Hour)}
	}
	t := &trace.Trace{Jobs: make([]trace.Job, n)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(t.Jobs, shuffled)
		b.StartTimer()
		t.SortJobsByStart()
	}
	if !sort.SliceIsSorted(t.Jobs, func(a, c int) bool { return t.Jobs[a].Start.Before(t.Jobs[c].Start) }) {
		b.Fatal("jobs not in start order")
	}
}

func BenchmarkIdentifyBatch(b *testing.B) {
	t := benchRunner.Trace()
	b.ReportAllocs()
	b.ReportMetric(float64(t.NumRequests()), "requests")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := core.Identify(t)
		if p.NumFilecules() == 0 {
			b.Fatal("no filecules")
		}
	}
}

func BenchmarkIdentifyOnline(b *testing.B) {
	t := benchRunner.Trace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := core.NewEngine(0)
		e.ObserveTrace(t)
		if e.NumFilecules() == 0 {
			b.Fatal("no filecules")
		}
	}
}

func BenchmarkCacheReplayFileLRU(b *testing.B) {
	t := benchRunner.Trace()
	reqs := benchRunner.Requests()
	capacity := benchCapacity()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := cache.NewSim(t, cache.NewFileGranularity(t), cache.NewLRU(), capacity).Replay(reqs)
		if m.Requests == 0 {
			b.Fatal("no requests")
		}
	}
	b.ReportMetric(float64(len(reqs))*float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

func BenchmarkCacheReplayFileculeLRU(b *testing.B) {
	t := benchRunner.Trace()
	p := benchRunner.Partition()
	reqs := benchRunner.Requests()
	capacity := benchCapacity()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := cache.NewSim(t, cache.NewFileculeGranularity(t, p), cache.NewLRU(), capacity).Replay(reqs)
		if m.Requests == 0 {
			b.Fatal("no requests")
		}
	}
	b.ReportMetric(float64(len(reqs))*float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

func BenchmarkCacheReplayOPT(b *testing.B) {
	t := benchRunner.Trace()
	reqs := benchRunner.Requests()
	capacity := benchCapacity()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := cache.NewFileGranularity(t)
		m := cache.NewSim(t, g, cache.NewOPTPolicy(cache.NextUse(g, reqs)), capacity).Replay(reqs)
		if m.Requests == 0 {
			b.Fatal("no requests")
		}
	}
}

func BenchmarkRequestStream(b *testing.B) {
	t := benchRunner.Trace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(t.Requests()) == 0 {
			b.Fatal("no requests")
		}
	}
}

func BenchmarkTraceCodec(b *testing.B) {
	t := benchRunner.Trace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf writeCounter
		if err := writeText(&buf, t); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf))
	}
}

// writeText serializes t in the v1 text format.
func writeText(w io.Writer, t *trace.Trace) error {
	tw, err := trace.NewTextWriter(w, t.Files, t.Users, t.Sites)
	if err != nil {
		return err
	}
	_, err = trace.CopySource(tw, trace.NewTraceSource(t))
	return err
}

type writeCounter int

func (w *writeCounter) Write(p []byte) (int, error) {
	*w += writeCounter(len(p))
	return len(p), nil
}

// benchDecode measures one full decode of the benchmark trace in the given
// codec. The two benchmarks share an encoded buffer shape, so the benchgate
// DecodeBin/DecodeText pair measures pure codec speed on identical content.
func benchDecode(b *testing.B, encode func(io.Writer, *trace.Trace) error,
	decode func(io.Reader) (*trace.Trace, error)) {
	b.Helper()
	t := benchRunner.Trace()
	var buf bytes.Buffer
	if err := encode(&buf, t); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decode(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeText measures full-trace parsing of the v1 text codec.
func BenchmarkDecodeText(b *testing.B) { benchDecode(b, writeText, trace.Read) }

// BenchmarkDecodeBin measures the parallel chunk decode of filecule-bin/v1.
// The benchgate enforces a floor on DecodeBin/DecodeText (bin must stay at
// least 2x faster than text on the same trace).
func BenchmarkDecodeBin(b *testing.B) { benchDecode(b, trace.WriteBin, trace.ReadBin) }

// BenchmarkEncodeBin measures WriteBin of the same trace: the streaming
// BinWriter fed every job in order.
func BenchmarkEncodeBin(b *testing.B) {
	t := benchRunner.Trace()
	var size writeCounter
	if err := trace.WriteBin(&size, t); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := trace.WriteBin(io.Discard, t); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBinFile writes the bench trace as filecule-bin/v1 to a temp file and
// returns its path and size. Shared by the file decode/iterate benches.
func benchBinFile(b *testing.B) (string, int64) {
	b.Helper()
	t := benchRunner.Trace()
	path := filepath.Join(b.TempDir(), "bench.bin")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := trace.WriteBin(f, t); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	return path, fi.Size()
}

// BenchmarkDecodeMmap measures ReadFile's mapped decode of the same
// filecule-bin/v1 content from a real file (page cache warm after the first
// iteration): chunk index walk, then the parallel fill checking each chunk's
// CRC and reading its columns straight off the mapping. The benchgate
// enforces a floor on DecodeBin/DecodeMmap — mapping must stay at least 0.9x
// as fast as streaming the identical bytes through the buffered chunk reader.
func BenchmarkDecodeMmap(b *testing.B) {
	path, size := benchBinFile(b)
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.ReadFile(path); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFileSink keeps the compiler from eliding the per-job file-list decode
// in BenchmarkBinIterate.
var benchFileSink int64

// BenchmarkBinIterate measures steady-state per-job iteration over a bin
// trace file through trace.Open's streamed BinSource — the sweep/replay
// access pattern. One iteration is one job; the source reopens when the
// trace is exhausted, so open and chunk-decode costs are amortized exactly
// as a sweep amortizes them. The benchgate bounds allocs/op: the per-job hot
// loop must stay allocation-free outside chunk boundaries.
func BenchmarkBinIterate(b *testing.B) {
	path, _ := benchBinFile(b)
	src, err := trace.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { src.Close() }()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := src.Next()
		if err == io.EOF {
			src.Close()
			if src, err = trace.Open(path); err == nil {
				j, err = src.Next()
			}
		}
		if err != nil {
			b.Fatal(err)
		}
		benchFileSink += int64(len(j.Files))
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkDecodeKV measures steady-state row decode of the KV-cache CSV
// adapter (op classification, size parsing, field splitting) over an
// in-memory Meta-style trace. One iteration is one row; the reader restarts
// when the CSV is exhausted, amortizing setup exactly as the two-pass open
// amortizes it. The benchgate bounds allocs/op: the row decode path must
// stay allocation-free.
func BenchmarkDecodeKV(b *testing.B) {
	var csv bytes.Buffer
	if err := workload.GenKVCSV(&csv, 1, 5000, 200_000); err != nil {
		b.Fatal(err)
	}
	data := csv.Bytes()
	kr, err := workload.NewKVReader(bytes.NewReader(data))
	if err != nil {
		b.Fatal(err)
	}
	var row workload.KVRow
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := kr.Next(&row)
		if err == io.EOF {
			if kr, err = workload.NewKVReader(bytes.NewReader(data)); err == nil {
				err = kr.Next(&row)
			}
		}
		if err != nil {
			b.Fatal(err)
		}
		benchFileSink += row.Size
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// --- cache-grid sweep engine (internal/sim) ---

// benchSweepGrid runs one full policy × granularity × capacity grid per
// iteration through the given engine, reporting aggregate simulated
// cell-requests per second (one cell-request = one request replayed into one
// grid cell).
func benchSweepGrid(b *testing.B, scale float64,
	engine func(*trace.Trace, *core.Partition, []trace.Request, sim.SweepConfig) (*sim.SweepResult, error)) {
	b.Helper()
	r := newBenchRunner(scale)
	t := r.Trace()
	p := r.Partition()
	reqs := r.Requests()
	cfg := sim.SweepConfig{Scale: scale}
	cells := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := engine(t, p, reqs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Cells) == 0 || res.Cells[0].Metrics.Requests == 0 {
			b.Fatal("empty sweep")
		}
		cells = len(res.Cells)
	}
	b.ReportMetric(float64(len(reqs))*float64(cells)*float64(b.N)/b.Elapsed().Seconds(), "cellreq/s")
}

// BenchmarkSweepEngine is the single-pass dense engine over the full grid at
// bench scale — one of the two numbers behind the CI speedup gate.
func BenchmarkSweepEngine(b *testing.B) { benchSweepGrid(b, benchScale, sim.Sweep) }

// BenchmarkSweepSequential is the same grid replayed one cell at a time
// through the cache package — the reference cost the engine is compared to.
func BenchmarkSweepSequential(b *testing.B) { benchSweepGrid(b, benchScale, sim.SweepSequential) }

// The Large pair reproduces the headline comparison on a ~100k-job trace
// (scale 0.4). Excluded from the default CI bench pattern; run explicitly:
//
//	go test -bench='SweepEngineLarge|SweepSequentialLarge' -benchtime=1x
func BenchmarkSweepEngineLarge(b *testing.B)     { benchSweepGrid(b, 0.4, sim.Sweep) }
func BenchmarkSweepSequentialLarge(b *testing.B) { benchSweepGrid(b, 0.4, sim.SweepSequential) }

// --- online identification engine (internal/core) ---

// The Observe benchmarks measure steady-state single-job ingestion: the
// engine has already seen the whole trace, and iterations cycle through the
// same job stream — the regime a long-running service settles into, where
// re-requests dominate. The dense dup check is O(files in job) with zero
// steady-state allocations; the benchgate holds ObserveEngine to an absolute
// ns/op ceiling and to 0 allocs/op.

func BenchmarkObserveEngine(b *testing.B) {
	t := benchRunner.Trace()
	e := core.NewEngine(0)
	e.ObserveTrace(t)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Observe(t.Jobs[i%len(t.Jobs)].Files)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkObserveEngineParallel drives the shared engine from GOMAXPROCS
// goroutines: over a settled partition every observe is a repeat-job cache
// hit under the read side of the gate, so this measures how well those
// proceed side by side.
func BenchmarkObserveEngineParallel(b *testing.B) {
	t := benchRunner.Trace()
	e := core.NewEngine(0)
	e.ObserveTrace(t)
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(next.Add(1)) % len(t.Jobs)
			e.Observe(t.Jobs[i].Files)
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkObserveEngineBatch amortizes the snapshot-invalidation and gate
// acquisition over 100-job batches, the shape /v1/jobs/batch produces.
func BenchmarkObserveEngineBatch(b *testing.B) {
	t := benchRunner.Trace()
	e := core.NewEngine(0)
	e.ObserveTrace(t)
	const batch = 100
	var batches [][][]trace.FileID
	for lo := 0; lo+batch <= len(t.Jobs); lo += batch {
		jobs := make([][]trace.FileID, 0, batch)
		for _, j := range t.Jobs[lo : lo+batch] {
			jobs = append(jobs, j.Files)
		}
		batches = append(batches, jobs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ObserveBatch(batches[i%len(batches)])
	}
	b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkObserveWAL is BenchmarkObserveEngine with the durability layer
// in front: each observe run-encodes its file list into the in-memory
// group-commit batch before touching the engine; the fsync happens on the
// committer goroutine's cadence, off the hot path. ObserveWAL over
// ObserveEngine is bounded by the benchgate's overheadPairs table.
func BenchmarkObserveWAL(b *testing.B) {
	t := benchRunner.Trace()
	d, err := durable.Open(durable.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	d.Core().ObserveTrace(t)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Observe(t.Jobs[i%len(t.Jobs)].Files); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkSnapshotEngine measures the observe-then-snapshot cycle: one job
// in, one full partition out. The snapshot after a re-request copies the
// previous filecule list with fresh request counts and shares everything
// else.
func BenchmarkSnapshotEngine(b *testing.B) {
	t := benchRunner.Trace()
	e := core.NewEngine(0)
	e.ObserveTrace(t)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Observe(t.Jobs[i%len(t.Jobs)].Files)
		if e.Snapshot().NumFilecules() == 0 {
			b.Fatal("no filecules")
		}
	}
}

// BenchmarkSnapshotAfterRerequest is the read-after-write cycle of a settled
// service: a re-request observe moves request counts only, so the snapshot
// takes the shared-shape path and Of answers from the inherited file index.
// The benchgate holds it to B/op and allocs/op — today one copy of the
// filecule list per cycle, the cost an O(changed) snapshot would remove.
func BenchmarkSnapshotAfterRerequest(b *testing.B) {
	t := benchRunner.Trace()
	e := core.NewEngine(0)
	e.ObserveTrace(t)
	var jobs [][]trace.FileID
	for i := range t.Jobs {
		if len(t.Jobs[i].Files) > 0 {
			jobs = append(jobs, t.Jobs[i].Files)
		}
	}
	e.Snapshot().Of(jobs[0][0]) // the one rebuilt snapshot and index build
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		files := jobs[i%len(jobs)]
		e.Observe(files)
		if e.Snapshot().Of(files[0]) < 0 {
			b.Fatal("observed file not covered")
		}
	}
	if st := e.SnapshotStats(); st.Rebuilt != 1 {
		b.Fatalf("re-requests rebuilt %d snapshots", st.Rebuilt-1)
	}
}

// --- serving hot path (internal/server handlers via httptest) ---

// BenchmarkServerObserve measures job ingestion through the full HTTP
// handler stack: JSON decode, validation, monitor refinement, metrics.
func BenchmarkServerObserve(b *testing.B) {
	t := benchRunner.Trace()
	s := server.New(server.Config{Catalog: t.Files})
	bodies := make([][]byte, len(t.Jobs))
	for i := range t.Jobs {
		body, err := json.Marshal(server.JobBody{Files: t.Jobs[i].Files})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := bodies[i%len(bodies)]
		r := httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		if w.Code != 200 {
			b.Fatalf("observe: %d %s", w.Code, w.Body)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkServerObserveBatch measures the batched ingestion variant (one
// lock acquisition and one HTTP round trip per 100 jobs).
func BenchmarkServerObserveBatch(b *testing.B) {
	t := benchRunner.Trace()
	s := server.New(server.Config{Catalog: t.Files})
	const batch = 100
	var bodies [][]byte
	for lo := 0; lo+batch <= len(t.Jobs); lo += batch {
		var bb server.BatchBody
		for _, j := range t.Jobs[lo : lo+batch] {
			bb.Jobs = append(bb.Jobs, server.JobBody{Files: j.Files})
		}
		body, err := json.Marshal(bb)
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := bodies[i%len(bodies)]
		r := httptest.NewRequest("POST", "/v1/jobs/batch", bytes.NewReader(body))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		if w.Code != 200 {
			b.Fatalf("batch: %d %s", w.Code, w.Body)
		}
	}
	b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkServerAdvise measures cache-advice queries against a settled
// partition — the read-mostly steady state where the snapshot and
// granularity caches should make queries cheap.
func BenchmarkServerAdvise(b *testing.B) {
	t := benchRunner.Trace()
	s := server.New(server.Config{Catalog: t.Files})
	for i := range t.Jobs {
		s.Engine().Observe(t.Jobs[i].Files)
	}
	capacity := benchCapacity()
	bodies := make([][]byte, 0, 256)
	for i := 0; i < 256 && i < len(t.Jobs); i++ {
		j := &t.Jobs[i]
		if len(j.Files) == 0 {
			continue
		}
		body, err := json.Marshal(cache.AdviceRequest{Capacity: capacity, Files: j.Files})
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	if len(bodies) == 0 {
		b.Fatal("no advise bodies")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := bodies[i%len(bodies)]
		r := httptest.NewRequest("POST", "/v1/cache/advise", bytes.NewReader(body))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		if w.Code != 200 {
			b.Fatalf("advise: %d %s", w.Code, w.Body)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkServerPartitionQuery measures snapshot-backed filecule lookups.
func BenchmarkServerPartitionQuery(b *testing.B) {
	t := benchRunner.Trace()
	s := server.New(server.Config{Catalog: t.Files})
	for i := range t.Jobs {
		s.Engine().Observe(t.Jobs[i].Files)
	}
	p := s.Engine().Snapshot()
	if p.NumFiles() == 0 {
		b.Fatal("empty partition")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := p.Filecules[i%p.NumFilecules()].Files[0]
		r := httptest.NewRequest("GET", fmt.Sprintf("/v1/filecules/%d", f), nil)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		if w.Code != 200 {
			b.Fatalf("filecule: %d %s", w.Code, w.Body)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// --- wire protocol vs HTTP/JSON over real TCP ---

// benchTCPServer boots a server over a loopback listener with the bench
// trace's catalog, pre-warms the engine with the full trace (so both
// protocol benches measure a settled steady state), and returns the HTTP
// and wire addresses plus a shutdown func.
func benchTCPServer(b *testing.B) (httpAddr, wireAddr string, stop func()) {
	b.Helper()
	t := benchRunner.Trace()
	s := server.New(server.Config{Catalog: t.Files})
	jobs := make([][]trace.FileID, len(t.Jobs))
	for i := range t.Jobs {
		jobs[i] = t.Jobs[i].Files
	}
	s.Engine().ObserveBatch(jobs)

	ctx, cancel := context.WithCancel(context.Background())
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	wl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 2)
	go func() { done <- s.Run(ctx, hl) }()
	go func() { done <- s.RunWire(ctx, wl) }()
	return hl.Addr().String(), wl.Addr().String(), func() {
		cancel()
		<-done
		<-done
	}
}

// BenchmarkServeTCPWire measures observe ingestion over the binary wire
// protocol on a real TCP connection with a 64-deep pipeline — the protocol's
// intended operating point. Reports req/s and the p99 round-trip latency
// (including in-burst queueing) in nanoseconds.
func BenchmarkServeTCPWire(b *testing.B) {
	t := benchRunner.Trace()
	_, wireAddr, stop := benchTCPServer(b)
	defer stop()
	c, err := wire.Dial(wireAddr, 30*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Observe(t.Jobs[0].Files); err != nil {
		b.Fatal(err)
	}

	window := 64
	if b.N < window {
		window = b.N
	}
	lat := make([]float64, 0, b.N)
	sendT := make([]time.Time, window)
	b.ResetTimer()
	for i := 0; i < b.N; {
		n := window
		if b.N-i < n {
			n = b.N - i
		}
		for k := 0; k < n; k++ {
			sendT[k] = time.Now()
			if err := c.SendObserve(t.Jobs[(i+k)%len(t.Jobs)].Files); err != nil {
				b.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			b.Fatal(err)
		}
		for k := 0; k < n; k++ {
			if _, err := c.RecvObserve(); err != nil {
				b.Fatal(err)
			}
			lat = append(lat, time.Since(sendT[k]).Seconds())
		}
		i += n
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	b.ReportMetric(stats.Quantile(lat, 0.99)*1e9, "p99-ns")
}

// BenchmarkServeTCPJSON is the HTTP/JSON counterpart of
// BenchmarkServeTCPWire: the same observes against the same server build,
// one keep-alive POST /v1/jobs per request. The benchgate pins the wire
// protocol's speedup over this baseline.
func BenchmarkServeTCPJSON(b *testing.B) {
	t := benchRunner.Trace()
	httpAddr, _, stop := benchTCPServer(b)
	defer stop()
	hc := &http.Client{Timeout: 30 * time.Second}
	url := "http://" + httpAddr + "/v1/jobs"
	bodies := make([][]byte, len(t.Jobs))
	for i := range t.Jobs {
		body, err := json.Marshal(server.JobBody{Files: t.Jobs[i].Files})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}

	lat := make([]float64, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		resp, err := hc.Post(url, "application/json", bytes.NewReader(bodies[i%len(bodies)]))
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			b.Fatalf("observe: HTTP %d", resp.StatusCode)
		}
		lat = append(lat, time.Since(t0).Seconds())
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	b.ReportMetric(stats.Quantile(lat, 0.99)*1e9, "p99-ns")
}
