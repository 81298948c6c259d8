//go:build slow

package trace

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"
)

// The large differential writes a trace far bigger than any test fixture —
// multi-GiB by default — and verifies the mapped cursor against both the
// streamed decoder and the deterministic generator, job by job, so memory
// stays bounded no matter the file size. MMAP_LARGE_BYTES overrides the
// target size (the knob the nightly workflow and `make mmap-large` turn).
const largeDefaultBytes = 2 << 30

// largeCatalogSize is big enough that per-job file lists rarely collide in
// the chunk list-interning table (so the job stream, not the catalog,
// dominates the file) yet small enough to decode instantly.
const largeCatalogSize = 5000

func largeCatalog() (files []File, users []User, sites []Site) {
	sites = make([]Site, 8)
	for i := range sites {
		sites[i] = Site{ID: SiteID(i), Name: fmt.Sprintf("site-%02d", i), Domain: ".gov", Nodes: 4 + i}
	}
	users = make([]User, 64)
	for i := range users {
		users[i] = User{ID: UserID(i), Name: fmt.Sprintf("user-%03d", i), Site: SiteID(i % len(sites))}
	}
	files = make([]File, largeCatalogSize)
	for i := range files {
		files[i] = File{ID: FileID(i), Name: fmt.Sprintf("/store/data/%05d.root", i),
			Size: int64(1<<20 + i*337), Tier: Tier(i % NumTiers)}
	}
	return
}

// largePools holds the interned-string variety shared by generation and
// verification, built once so the per-job generator never allocates.
type largePools struct {
	nodes, apps, vers []string
}

func newLargePools() *largePools {
	p := &largePools{
		nodes: make([]string, 29),
		apps:  []string{"ana", "reco", "skim", "merge", "mc"},
		vers:  make([]string, 7),
	}
	for i := range p.nodes {
		p.nodes[i] = fmt.Sprintf("node-%02d", i)
	}
	for i := range p.vers {
		p.vers[i] = fmt.Sprintf("v%d.%d", 1+i/3, i%3)
	}
	return p
}

// largeJob deterministically derives job i into dst, reusing dst's slices.
// The same function feeds the writer and re-derives the expected job during
// verification, so the test never materializes the trace on either side.
func largeJob(i int64, p *largePools, dst *Job) {
	h := uint64(i)*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3
	h ^= h >> 31
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27

	nFiles := int(h % 23) // includes empty read lists, a real trace property
	base := int((h >> 8) % uint64(largeCatalogSize-3*23))
	step := 1 + int((h>>32)%3)
	dst.Files = dst.Files[:0]
	for k := 0; k < nFiles; k++ {
		dst.Files = append(dst.Files, FileID(base+k*step))
	}
	dst.Outputs = dst.Outputs[:0]
	if i%37 == 0 {
		dst.Outputs = append(dst.Outputs, FileID(int(h>>16)%largeCatalogSize))
	}

	start := int64(1_050_000_000 + i%600_000 + int64(h%3600))
	dst.ID = JobID(i)
	dst.User = UserID(h % 64)
	dst.Site = SiteID((h >> 6) % 8)
	dst.Node = p.nodes[(h>>12)%uint64(len(p.nodes))]
	dst.Tier = Tier(int(h>>4) % NumTiers)
	dst.Family = AppFamily(int(h>>5) % NumFamilies)
	dst.App = p.apps[(h>>20)%uint64(len(p.apps))]
	dst.Version = p.vers[(h>>24)%uint64(len(p.vers))]
	dst.Start = time.Unix(start, 0).UTC()
	dst.End = time.Unix(start+int64(h%86400), 0).UTC()
}

// largeJobEqual is a hand-rolled comparison: reflect.DeepEqual costs
// microseconds per call, which at tens of millions of jobs would dominate
// the nightly run.
func largeJobEqual(a, b *Job) bool {
	if a.ID != b.ID || a.User != b.User || a.Site != b.Site || a.Node != b.Node ||
		a.Tier != b.Tier || a.Family != b.Family || a.App != b.App || a.Version != b.Version ||
		!a.Start.Equal(b.Start) || !a.End.Equal(b.End) ||
		len(a.Files) != len(b.Files) || len(a.Outputs) != len(b.Outputs) {
		return false
	}
	for i := range a.Files {
		if a.Files[i] != b.Files[i] {
			return false
		}
	}
	for i := range a.Outputs {
		if a.Outputs[i] != b.Outputs[i] {
			return false
		}
	}
	return true
}

// writeLargeBin streams jobs through BinWriter until the file reaches the
// target size, returning the job count. Memory stays O(chunk).
func writeLargeBin(t *testing.T, path string, target int64) int64 {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	files, users, sites := largeCatalog()
	bw, err := NewBinWriter(f, files, users, sites)
	if err != nil {
		t.Fatal(err)
	}
	pools := newLargePools()
	var j Job
	var n int64
	for {
		// Checking the file size every chunk keeps the stat cost off the
		// per-job path; the overshoot is at most one chunk.
		if n%int64(binChunkJobs) == 0 {
			fi, err := f.Stat()
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() >= target {
				break
			}
		}
		largeJob(n, pools, &j)
		if err := bw.WriteJob(&j); err != nil {
			t.Fatalf("WriteJob %d: %v", n, err)
		}
		n++
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestMapLargeDifferential is the scale version of the tentpole
// differential: generate a multi-GiB filecule-bin/v1 trace, then replay it
// through the mapped cursor and the streamed decoder in lockstep, checking
// every job against both the other source and the generator. The lazy CRC
// path is exercised across every chunk in the file, and peak memory stays
// bounded (one chunk per side plus the mapping's virtual pages) — the test
// passes on machines with far less RAM than the trace size.
func TestMapLargeDifferential(t *testing.T) {
	if !mmapWorks(t) {
		t.Skip("mmap unavailable on this platform")
	}
	target := int64(largeDefaultBytes)
	if s := os.Getenv("MMAP_LARGE_BYTES"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil || v <= 0 {
			t.Fatalf("bad MMAP_LARGE_BYTES %q", s)
		}
		target = v
	}
	path := filepath.Join(t.TempDir(), "large.bin")
	wrote := writeLargeBin(t, path, target)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d jobs, %.2f GiB", wrote, float64(fi.Size())/(1<<30))

	mapped, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if !isMapped(mapped) {
		t.Fatalf("Open returned %T, want the mapped cursor", mapped)
	}
	sf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	streamed, err := NewBinSource(sf)
	if err != nil {
		t.Fatal(err)
	}
	defer streamed.Close()

	pools := newLargePools()
	var want Job
	var n int64
	for {
		mj, merr := mapped.Next()
		sj, serr := streamed.Next()
		if (merr == nil) != (serr == nil) {
			t.Fatalf("job %d: mapped err %v, streamed err %v", n, merr, serr)
		}
		if merr == io.EOF {
			break
		}
		if merr != nil {
			t.Fatalf("job %d: %v", n, merr)
		}
		largeJob(n, pools, &want)
		if !largeJobEqual(mj, sj) {
			t.Fatalf("job %d: mapped and streamed decode differ:\n mapped %+v\nstreamed %+v", n, mj, sj)
		}
		if !largeJobEqual(mj, &want) {
			t.Fatalf("job %d: decode differs from generator:\n decoded %+v\n    want %+v", n, mj, &want)
		}
		n++
	}
	if n != wrote {
		t.Fatalf("decoded %d jobs, wrote %d", n, wrote)
	}
}
