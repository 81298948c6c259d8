package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// allocatedBy returns the bytes fn allocates, by the runtime's own count.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// buildAndDrop builds a small trace and lets go of the builder, reporting
// through collected when the collector has reclaimed it. interior is the
// white-box form of the same question: whether the result points into the
// Builder.
//
//go:noinline
func buildAndDrop(collected *atomic.Bool) (tr *Trace, interior bool) {
	b := NewBuilder()
	s := b.Site("s", ".gov", 1)
	u := b.User("u", s)
	b.SimpleJob(u, s, t0, []FileID{b.File("f0", 1, TierRaw), b.File("f1", 2, TierRaw)})
	runtime.SetFinalizer(b, func(*Builder) { collected.Store(true) })
	tr = b.Build()
	return tr, tr == &b.t
}

// TestBuildDoesNotPinBuilder: a built trace must not keep the Builder — and
// through it the three name→ID maps — reachable.
func TestBuildDoesNotPinBuilder(t *testing.T) {
	var collected atomic.Bool
	tr, interior := buildAndDrop(&collected)
	if interior {
		t.Error("Build returned a pointer into the Builder")
	}
	for i := 0; i < 50 && !collected.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // finalizers run on their own goroutine
	}
	if !collected.Load() {
		t.Error("the Builder is still reachable while only its trace is held")
	}
	if len(tr.Files) != 2 || len(tr.Jobs) != 1 {
		t.Errorf("built trace has %d files, %d jobs", len(tr.Files), len(tr.Jobs))
	}
	runtime.KeepAlive(tr)
}

// catalogPayload encodes a catalog of n files (one site, one user) and
// returns its chunk payload.
func catalogPayload(t *testing.T, n int) []byte {
	t.Helper()
	files := make([]File, n)
	for i := range files {
		files[i] = File{ID: FileID(i), Name: fmt.Sprintf("t1-d%d-f%d", i/100, i%100), Size: int64(1+i) << 20, Tier: TierThumbnail}
	}
	var buf bytes.Buffer
	bw, err := NewBinWriter(&buf, files, []User{{Name: "u"}}, []Site{{Name: "s", Domain: ".gov"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	cr := NewChunkReader(bytes.NewReader(buf.Bytes()[len(binMagic):]))
	kind, payload, err := cr.ReadChunk()
	if err != nil || kind != binChunkKindCatalog {
		t.Fatalf("first chunk: kind %q, err %v", kind, err)
	}
	return bytes.Clone(payload)
}

// TestDecodeCatalogAllocatesWhatItKeeps: a catalog whose claimed counts the
// payload can back is allocated once at its size, not grown through appends.
func TestDecodeCatalogAllocatesWhatItKeeps(t *testing.T) {
	const n = 100_000
	payload := catalogPayload(t, n)
	var files []File
	var err error
	got := allocatedBy(func() { files, _, _, err = decodeBinCatalog(payload, nil) })
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != n || cap(files) != n {
		t.Fatalf("decoded %d files into capacity %d, want %d exactly", len(files), cap(files), n)
	}
	kept := uint64(n) * uint64(unsafe.Sizeof(File{}))
	for i := range files {
		kept += uint64(len(files[i].Name))
	}
	if float64(got) > 1.05*float64(kept) {
		t.Errorf("decodeBinCatalog allocated %d bytes to return %d (%.2fx, want <= 1.05x)", got, kept, float64(got)/float64(kept))
	}
}

// TestRecordSizes pins the two record layouts a decoded trace is made of.
// A catalog holds a File per file and a trace a Job per job, millions of
// each at the paper's scale, so a field that re-pads either type costs every
// copy of every trace: place a new field where it fills padding, or move
// this bound deliberately.
func TestRecordSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layouts are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(File{}); got != 32 {
		t.Errorf("unsafe.Sizeof(File{}) = %d, want 32", got)
	}
	if got := unsafe.Sizeof(Job{}); got != 120 {
		t.Errorf("unsafe.Sizeof(Job{}) = %d, want 120", got)
	}
}

// listHeavyTrace builds a trace whose weight is spread over everything a
// decode returns — file records, names, job rows and file-list entries —
// with list lengths that vary from chunk to chunk, as a recorded trace's do.
func listHeavyTrace(t *testing.T) *Trace {
	t.Helper()
	const nFiles, nJobs = 20_000, 4*binChunkJobs + 300
	b := NewBuilder()
	s := b.Site("s", ".gov", 1)
	u := b.User("u", s)
	ids := make([]FileID, nFiles)
	for i := range ids {
		ids[i] = b.File(fmt.Sprintf("t1-d%d-f%d", i/100, i%100), int64(1+i)<<20, Tier(i%NumTiers))
	}
	exec := &Exec{Node: "n", App: "a", Version: "v"}
	for i := 0; i < nJobs; i++ {
		n := 1 + (i*i)%97
		from := (i * 131) % (nFiles - n)
		b.Job(Job{
			User: u, Site: s, Exec: exec,
			Start: t0.Add(time.Duration(i) * time.Minute),
			End:   t0.Add(time.Duration(i)*time.Minute + time.Hour),
			Files: ids[from : from+n],
		})
	}
	return b.Build()
}

// TestReadFileAllocatesWhatItReturns: what a materialised trace keeps alive
// is what it holds — its records, its names and one 4-byte entry per file
// ID in each chunk's list table — not the padding, the pre-size slack or the
// outgrown arenas of the decode that built it. Run on one CPU and on four:
// the mapped fill with one worker and with several.
func TestReadFileAllocatesWhatItReturns(t *testing.T) {
	if !mmapWorks(t) {
		t.Skip("mmap unavailable on this platform")
	}
	path := writeBinFile(t, listHeavyTrace(t))
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			tr, err := ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)

			held := uint64(len(tr.Files))*uint64(unsafe.Sizeof(File{})) +
				uint64(len(tr.Jobs))*uint64(unsafe.Sizeof(Job{}))
			for i := range tr.Files {
				held += uint64(len(tr.Files[i].Name))
			}
			// Jobs of one chunk that read the same list share its entries.
			lists := make(map[*FileID]bool)
			for i := range tr.Jobs {
				for _, l := range [][]FileID{tr.Jobs[i].Files, tr.Jobs[i].Outputs} {
					if len(l) > 0 && !lists[unsafe.SliceData(l)] {
						lists[unsafe.SliceData(l)] = true
						held += 4 * uint64(len(l))
					}
				}
			}
			if float64(retained) > 1.05*float64(held) {
				t.Errorf("the decoded trace retains %d bytes to hold %d (%.3fx, want <= 1.05x)",
					retained, held, float64(retained)/float64(held))
			}
			runtime.KeepAlive(tr)
		})
	}
}

// TestDecodeCatalogRefusesHostileCount: a file count the payload cannot hold
// at three bytes a record is not taken at its word. The decode fails, having
// allocated no more than the pre-size cap.
func TestDecodeCatalogRefusesHostileCount(t *testing.T) {
	const claimed = 3 << 20
	p := []byte{binChunkKindCatalog, 0, 0} // no sites, no users
	p = binary.AppendUvarint(p, claimed)
	p = append(p, bytes.Repeat([]byte{0xff}, claimed)...) // passes the one-byte-per-element check only
	var err error
	got := allocatedBy(func() { _, _, _, err = decodeBinCatalog(p, nil) })
	if err == nil || !strings.Contains(err.Error(), "catalog chunk") {
		t.Fatalf("decodeBinCatalog error = %v, want a catalog chunk error", err)
	}
	if limit := uint64(binPreallocCap)*uint64(unsafe.Sizeof(File{})) + 1<<16; got > limit {
		t.Errorf("a %d-file claim over a %d-byte payload allocated %d bytes, want <= %d", claimed, len(p), got, limit)
	}
}
