package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"filecule/internal/synth"
	"filecule/internal/trace"
)

// identifyReference is the map-of-slices batch identifier IdentifyJobs used
// to be, kept as the oracle the CSR implementation is held to: per file, the
// ascending list of distinct observing jobs; files grouped by the exact
// varint encoding of that list, so grouping is collision-free by
// construction.
func identifyReference(t *trace.Trace, jobs []trace.JobID) *Partition {
	ordered := append([]trace.JobID(nil), jobs...)
	sort.Slice(ordered, func(a, b int) bool { return ordered[a] < ordered[b] })

	jobLists := make(map[trace.FileID][]trace.JobID)
	for _, id := range ordered {
		j := &t.Jobs[id]
		for _, f := range j.Files {
			l := jobLists[f]
			if len(l) > 0 && l[len(l)-1] == id {
				continue // duplicate entry of f within this job, or of the job
			}
			jobLists[f] = append(l, id)
		}
	}

	groups := make(map[string][]trace.FileID)
	var buf []byte
	for f, l := range jobLists {
		buf = buf[:0]
		for _, j := range l {
			buf = binary.AppendUvarint(buf, uint64(j))
		}
		groups[string(buf)] = append(groups[string(buf)], f)
	}

	fcs := make([]Filecule, 0, len(groups))
	for _, files := range groups {
		sort.Slice(files, func(a, b int) bool { return files[a] < files[b] })
		fcs = append(fcs, Filecule{Files: files, Requests: len(jobLists[files[0]])})
	}
	return NewPartition(fcs)
}

// catalogless builds a trace with jobs only — no Files, Users or Sites —
// whose file IDs are drawn from ids, with empty jobs and in-job duplicates.
func catalogless(rng *rand.Rand, ids []trace.FileID, nJobs int) *trace.Trace {
	t := &trace.Trace{}
	for i := 0; i < nJobs; i++ {
		var files []trace.FileID
		for k := rng.Intn(7); k > 0; k-- { // 0: an empty job
			files = append(files, ids[rng.Intn(len(ids))])
			if rng.Intn(3) == 0 {
				files = append(files, files[rng.Intn(len(files))])
			}
		}
		t.Jobs = append(t.Jobs, trace.Job{ID: trace.JobID(i), Files: files})
	}
	return t
}

// randomSubset draws job IDs with repeats, in no order.
func randomSubset(rng *rand.Rand, nJobs int) []trace.JobID {
	ids := make([]trace.JobID, rng.Intn(2*nJobs+1))
	for i := range ids {
		ids[i] = trace.JobID(rng.Intn(nJobs))
	}
	return ids
}

// TestIdentifyMatchesReferenceProperty holds the CSR identifier to the
// reference on random traces with empty jobs and duplicate files within a
// job, over the whole trace and over random job subsets that repeat IDs.
func TestIdentifyMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64, nf, nj uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ids := make([]trace.FileID, int(nf%60)+1)
		for i := range ids {
			ids[i] = trace.FileID(i)
			if seed%2 != 0 { // anywhere in the ID space, negative included
				ids[i] = trace.FileID(rng.Uint32())
			}
		}
		tr := catalogless(rng, ids, int(nj%40)+1)
		all := Identify(tr)
		if all.Validate() != nil || !all.Equal(identifyReference(tr, allJobs(tr))) {
			return false
		}
		sub := randomSubset(rng, len(tr.Jobs))
		got := IdentifyJobs(tr, sub)
		return got.Validate() == nil && got.Equal(identifyReference(tr, sub))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func allJobs(t *trace.Trace) []trace.JobID {
	ids := make([]trace.JobID, len(t.Jobs))
	for i := range ids {
		ids[i] = t.Jobs[i].ID
	}
	return ids
}

// TestIdentifyReferenceOnDiffTraces runs the same comparison on the
// differential suite's synthetic DZero and adversarial traces.
func TestIdentifyReferenceOnDiffTraces(t *testing.T) {
	for ti, tr := range diffTraces(t) {
		if !Identify(tr).Equal(identifyReference(tr, allJobs(tr))) {
			t.Errorf("trace %d: Identify differs from the reference", ti)
		}
		sub := randomSubset(rand.New(rand.NewSource(int64(ti))), len(tr.Jobs))
		if !IdentifyJobs(tr, sub).Equal(identifyReference(tr, sub)) {
			t.Errorf("trace %d: IdentifyJobs over a subset differs from the reference", ti)
		}
	}
}

// TestIdentifyJobsLeavesSubsetAlone: the caller's job list is read, not
// sorted in place.
func TestIdentifyJobsLeavesSubsetAlone(t *testing.T) {
	tr := randomTrace(t, 3, 20, 10)
	sub := []trace.JobID{7, 2, 2, 9, 0}
	IdentifyJobs(tr, sub)
	if want := []trace.JobID{7, 2, 2, 9, 0}; !slices.Equal(sub, want) {
		t.Errorf("subset after IdentifyJobs = %v, want %v", sub, want)
	}
}

// allocatedBy returns the bytes fn allocates, by the runtime's own count:
// machine-independent, and unaffected by when the collector runs.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestPartitionIndexFollowsCoveredFiles: the file index costs the pages that
// hold a covered file, wherever in the ID space they sit — an index laid out
// by ID would need 8 GiB between files 0 and 2^31-1 — and answers -1 for
// everything else.
func TestPartitionIndexFollowsCoveredFiles(t *testing.T) {
	p := NewPartition([]Filecule{
		{Files: []trace.FileID{math.MaxInt32}, Requests: 1},
		{Files: []trace.FileID{0}, Requests: 2},
	})
	var first int
	if got := allocatedBy(func() { first = p.Of(0) }); got >= 1<<20 {
		t.Errorf("building the index over files 0 and 2^31-1 allocated %d bytes, want < 1 MiB", got)
	}
	if first != 0 || p.Of(math.MaxInt32) != 1 {
		t.Errorf("Of(0) = %d, Of(MaxInt32) = %d, want 0, 1", first, p.Of(math.MaxInt32))
	}
	for _, f := range []trace.FileID{-1, math.MinInt32, 1, 8191, 8192, 1 << 22, math.MaxInt32 - 1} {
		if got := p.Of(f); got != -1 {
			t.Errorf("Of(%d) = %d, want -1 (not covered)", f, got)
		}
		if p.FileculeOf(f) != nil {
			t.Errorf("FileculeOf(%d) != nil for an uncovered file", f)
		}
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
	if got := allocatedBy(func() { p.Of(math.MaxInt32) }); got != 0 {
		t.Errorf("a lookup on a built index allocated %d bytes", got)
	}
}

// TestIdentifySparseCatalogless: batch identification needs no catalog and
// its memory follows the files seen, not their ID values.
func TestIdentifySparseCatalogless(t *testing.T) {
	tr := &trace.Trace{Jobs: []trace.Job{
		{ID: 0, Files: []trace.FileID{math.MaxInt32, 0, 0}},
		{ID: 1, Files: []trace.FileID{math.MaxInt32}},
		{ID: 2},
	}}
	var p *Partition
	if got := allocatedBy(func() { p = Identify(tr) }); got >= 1<<20 {
		t.Errorf("Identify over files 0 and 2^31-1 allocated %d bytes, want < 1 MiB", got)
	}
	want := NewPartition([]Filecule{
		{Files: []trace.FileID{0}, Requests: 1},
		{Files: []trace.FileID{math.MaxInt32}, Requests: 2},
	})
	if !p.Equal(want) {
		t.Errorf("Identify = %+v, want %+v", p.Filecules, want.Filecules)
	}
	if !p.Equal(identifyReference(tr, allJobs(tr))) {
		t.Error("Identify differs from the reference")
	}
}

// TestValidateRejectsSharedFile: a file listed by two filecules is reported
// with both owners, whichever is built into the index last.
func TestValidateRejectsSharedFile(t *testing.T) {
	p := NewPartition([]Filecule{
		{Files: []trace.FileID{1, 5}, Requests: 1},
		{Files: []trace.FileID{3, 5}, Requests: 1},
	})
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted a partition with file 5 in two filecules")
	}
}

// fuzzIDBases are the ID ranges FuzzIdentify's file bytes land in: both ends
// of the int32 space, the sign change, and fileIndex and page boundaries, so
// jobs mix negative, sparse and neighbouring IDs.
var fuzzIDBases = [...]int64{
	math.MinInt32, -1 << 21, -1032, -8, 0, 1016, 8184, 1 << 13, 1<<21 - 8,
	1 << 22, 1<<31 - 1<<21, math.MaxInt32 - 15, 3, 4096 + 7, -(1 << 30),
}

// decodeIdentifyFuzz turns fuzzer bytes into a catalogless trace and a job
// subset. A byte below 0xF0 adds file fuzzIDBases[b>>4] + b&0xF to the
// current job (repeats are legal); a byte from 0xF0 ends the job, and its low
// bits decide whether the job joins the subset, twice, and at which end, so
// the subset repeats IDs in no order.
func decodeIdentifyFuzz(data []byte) (*trace.Trace, []trace.JobID) {
	if len(data) > 512 {
		data = data[:512]
	}
	tr := &trace.Trace{}
	var sub []trace.JobID
	var cur []trace.FileID
	end := func(b byte) {
		id := trace.JobID(len(tr.Jobs))
		tr.Jobs = append(tr.Jobs, trace.Job{ID: id, Files: cur})
		cur = nil
		for n := int(b&1) + int(b>>1&1); n > 0; n-- {
			if b&4 != 0 {
				sub = append([]trace.JobID{id}, sub...)
			} else {
				sub = append(sub, id)
			}
		}
	}
	for _, b := range data {
		if b >= 0xF0 {
			end(b)
			continue
		}
		cur = append(cur, trace.FileID(fuzzIDBases[b>>4]+int64(b&0xF)))
	}
	end(0xFF)
	return tr, sub
}

// FuzzIdentify holds IdentifyJobs to the reference over the whole trace and
// over a subset, on file IDs anywhere in the int32 space.
func FuzzIdentify(f *testing.F) {
	f.Add([]byte{0x40, 0x41, 0xF0, 0x40, 0xF1, 0x00, 0xE0, 0x30, 0xF7})
	f.Add([]byte{0x00, 0x10, 0x20, 0x30, 0xF3, 0x30, 0x20, 0x30, 0xF5, 0xF6})
	f.Add([]byte{0x5F, 0x60, 0x6F, 0x70, 0xF2, 0x5F, 0x70, 0xFD, 0xB0, 0xBF, 0xC0, 0xD0})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, sub := decodeIdentifyFuzz(data)
		for _, jobs := range [][]trace.JobID{allJobs(tr), sub} {
			got := IdentifyJobs(tr, jobs)
			if err := got.Validate(); err != nil {
				t.Fatalf("jobs %v: %v", jobs, err)
			}
			if want := identifyReference(tr, jobs); !got.Equal(want) {
				t.Fatalf("jobs %v: IdentifyJobs = %+v, reference = %+v", jobs, got.Filecules, want.Filecules)
			}
		}
	})
}

// TestIdentifySparseMemory: 1 000 files spaced 2^21 apart, each alone on its
// page, cost Identify no more than the 35 309 448 bytes the first-seen-slot
// identifier allocated for the same trace, at either end of the ID space.
func TestIdentifySparseMemory(t *testing.T) {
	for _, base := range []int64{0, math.MinInt32} {
		files := make([]trace.FileID, 1000)
		for i := range files {
			files[i] = trace.FileID(base + int64(i)<<21)
		}
		tr := &trace.Trace{Jobs: []trace.Job{{ID: 0, Files: files}, {ID: 1, Files: files[:500]}}}
		var p *Partition
		if got := allocatedBy(func() { p = Identify(tr) }); got > 35309448 {
			t.Errorf("base %d: Identify allocated %d bytes, want <= 35309448", base, got)
		}
		if p.NumFilecules() != 2 || p.NumFiles() != 1000 {
			t.Errorf("base %d: %d filecules over %d files, want 2 over 1000", base, p.NumFilecules(), p.NumFiles())
		}
	}
}

// TestIdentifyWorkersMatchReference: every worker count gives the reference
// partition, whole trace and subsets, with the files spread over many pages —
// a generated trace, and IDs anywhere in the int32 space. IdentifyJobs takes
// a second worker only past a million requests, and never more than
// GOMAXPROCS or two, the most that has been measured.
func TestIdentifyWorkersMatchReference(t *testing.T) {
	most := min(runtime.GOMAXPROCS(0), 2)
	for _, c := range []struct{ requests, want int }{
		{0, 1}, {2*identifyRequestsPerWorker - 1, 1}, {2 * identifyRequestsPerWorker, min(2, most)}, {1 << 30, most},
	} {
		if got := identifyWorkers(c.requests); got != c.want {
			t.Errorf("%d requests: %d workers, want %d", c.requests, got, c.want)
		}
	}
	prev := runtime.GOMAXPROCS(8)
	got := identifyWorkers(1 << 30)
	runtime.GOMAXPROCS(prev)
	if got != 2 {
		t.Errorf("8 Ps, %d requests: %d workers, want the cap of 2", 1<<30, got)
	}
	gen, err := synth.Generate(synth.DZero(1, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	ids := make([]trace.FileID, 3000)
	for i := range ids {
		ids[i] = trace.FileID(rng.Uint32())
	}
	for ti, tr := range []*trace.Trace{gen, catalogless(rng, ids, 4000)} {
		sub := randomSubset(rng, len(tr.Jobs))
		wantAll, wantSub := identifyReference(tr, allJobs(tr)), identifyReference(tr, sub)
		for workers := 1; workers <= 4; workers++ {
			if !identifyJobs(tr, allJobs(tr), workers).Equal(wantAll) {
				t.Errorf("trace %d, %d workers: whole trace differs from the reference", ti, workers)
			}
			if !identifyJobs(tr, sub, workers).Equal(wantSub) {
				t.Errorf("trace %d, %d workers: subset differs from the reference", ti, workers)
			}
		}
	}
}

// TestIdentifyReadsPositions: Identify and IdentifyDomain take every job by
// its position in t.Jobs, whatever its ID field holds — unset, repeated or
// past the end — and agree with the engine.
func TestIdentifyReadsPositions(t *testing.T) {
	for _, ids := range [][]trace.JobID{{0, 0}, {5, 9}} {
		tr := &trace.Trace{
			Sites: []trace.Site{{ID: 0, Name: "s", Domain: ".gov"}},
			Jobs: []trace.Job{
				{ID: ids[0], Files: []trace.FileID{1, 2}},
				{ID: ids[1], Files: []trace.FileID{2, 3}},
			},
		}
		e := NewEngine(0)
		e.ObserveTrace(tr)
		want := e.Snapshot()
		if want.NumFilecules() != 3 {
			t.Fatalf("engine: %d filecules, want 3", want.NumFilecules())
		}
		if got := Identify(tr); !got.Equal(want) {
			t.Errorf("job IDs %v: Identify gives %d filecules, the engine %d", ids, got.NumFilecules(), want.NumFilecules())
		}
		if got := IdentifyDomain(tr, ".gov"); !got.Equal(want) {
			t.Errorf("job IDs %v: IdentifyDomain gives %d filecules, the engine %d", ids, got.NumFilecules(), want.NumFilecules())
		}
	}
}
