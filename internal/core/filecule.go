// Package core implements the paper's primary contribution: the filecule
// abstraction and algorithms to identify filecules from access traces.
//
// A filecule (HPDC'06, Section 3) is a maximal group of files that is always
// used together: files F1..Fn form a filecule G iff for every Fi, Fj in G
// and every job input set G' containing Fi, G' also contains Fj. Filecules
// are therefore the equivalence classes of files under "requested by exactly
// the same set of jobs". Directly from the definition:
//
//  1. any two filecules are disjoint;
//  2. a filecule has at least one file (single-file filecules are the
//     "monatomic" case);
//  3. every file in a filecule has the same request count as the filecule.
//
// The package offers two identification algorithms — batch signature
// grouping (Identify) and online partition refinement (Engine) — which
// produce identical partitions, plus the partial-knowledge identification of
// Section 6 (IdentifyJobs over a subset of jobs, and Coarsens to verify that
// partial knowledge can only merge, never split, true filecules).
package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"filecule/internal/trace"
)

// Filecule is one identified group of files. Files is sorted by FileID.
type Filecule struct {
	// ID is the filecule's dense index within its Partition.
	ID int
	// Files lists the member files in increasing FileID order.
	Files []trace.FileID
	// Requests is the number of jobs whose input set included this
	// filecule. By property 3 it equals the request count of every
	// member file.
	Requests int
}

// NumFiles returns the number of member files.
func (f *Filecule) NumFiles() int { return len(f.Files) }

// Partition is a complete filecule decomposition of the files requested in
// a trace. Files never requested by any job belong to no filecule.
type Partition struct {
	Filecules []Filecule
	shape     *shape
}

// shape is everything a partition derives from membership alone, built
// lazily and at most once. Engine snapshots taken between two membership
// changes differ in request counts only and share one shape, so the first
// lookup, size table or summary any of them pays for serves them all.
type shape struct {
	// nFiles is the covered-file count.
	nFiles int
	// idx is the file → 1+filecule index, built on first lookup, so
	// assembling a partition costs the filecule list, not the file
	// population.
	idx atomic.Pointer[fileIndex]

	// mu guards the per-catalog caches: the byte-size table and the summary
	// computed under catalog.
	mu      sync.Mutex
	catalog trace.Catalog
	sizes   []int64
	summary *Summary
}

// NumFilecules returns the number of filecules.
func (p *Partition) NumFilecules() int { return len(p.Filecules) }

// NewPartition assembles a canonical Partition from filecule groups: sorted
// by smallest member file, IDs assigned in that order, so equal partitions
// compare equal with Equal however they were identified. Each group's Files
// must be non-empty and sorted strictly ascending and the groups must be
// disjoint (Validate checks all three); callers need not set IDs.
func NewPartition(fcs []Filecule) *Partition {
	slices.SortFunc(fcs, func(a, b Filecule) int { return cmp.Compare(a.Files[0], b.Files[0]) })
	return newCanonicalPartition(fcs)
}

// newCanonicalPartition is NewPartition for groups already in canonical
// order.
func newCanonicalPartition(fcs []Filecule) *Partition {
	p := &Partition{Filecules: fcs, shape: new(shape)}
	for i := range fcs {
		fcs[i].ID = i
		p.shape.nFiles += len(fcs[i].Files)
	}
	return p
}

// index returns the file index, building it on first use. Safe for
// concurrent use: racing builders produce identical indexes and one wins the
// CompareAndSwap.
func (p *Partition) index() *fileIndex {
	s := p.shape
	if x := s.idx.Load(); x != nil {
		return x
	}
	x := new(fileIndex)
	for i := range p.Filecules {
		for _, f := range p.Filecules[i].Files {
			*x.cell(f) = int32(i) + 1
		}
	}
	s.idx.CompareAndSwap(nil, x)
	return s.idx.Load()
}

// Of returns the filecule index containing file f, or -1 if f was never
// requested.
func (p *Partition) Of(f trace.FileID) int {
	return int(p.index().get(f)) - 1
}

// FileculeOf returns the filecule containing f, or nil if f was never
// requested.
func (p *Partition) FileculeOf(f trace.FileID) *Filecule {
	i := p.Of(f)
	if i < 0 {
		return nil
	}
	return &p.Filecules[i]
}

// NumFiles returns the total number of files covered by the partition.
func (p *Partition) NumFiles() int { return p.shape.nFiles }

// Size returns the total byte size of filecule i under catalog c. Files
// outside the catalog — possible when a partition merges federated remote
// state whose file space is wider than the local catalog — contribute zero
// rather than faulting.
func (p *Partition) Size(c trace.Catalog, i int) int64 {
	var n int64
	files := c.NumFiles()
	for _, f := range p.Filecules[i].Files {
		if f < 0 || int(f) >= files {
			continue
		}
		n += c.FileSize(f)
	}
	return n
}

// SizeTable returns every filecule's byte size under catalog c, indexed by
// filecule ID. The table is computed once per (shape, catalog) pair and
// cached: published partitions are immutable, so every consumer of the same
// membership — JSON encoding, summaries, granularity construction, the binary
// wire protocol — shares one O(files) pass instead of recomputing sums per
// filecule. Callers must not mutate the returned slice. Safe for concurrent
// use.
func (p *Partition) SizeTable(c trace.Catalog) []int64 {
	s := p.shape
	s.mu.Lock()
	defer s.mu.Unlock()
	s.useCatalog(c)
	return p.sizesLocked()
}

// useCatalog drops what was cached under another catalog. Caller holds mu.
func (s *shape) useCatalog(c trace.Catalog) {
	if s.catalog != c {
		s.catalog, s.sizes, s.summary = c, nil, nil
	}
}

// sizesLocked builds the size table under shape.catalog, shape.mu held.
func (p *Partition) sizesLocked() []int64 {
	s := p.shape
	if s.sizes == nil {
		s.sizes = make([]int64, len(p.Filecules))
		for i := range p.Filecules {
			s.sizes[i] = p.Size(s.catalog, i)
		}
	}
	return s.sizes
}

// Summary is a partition's shape statistics: what /v1/partition/summary and
// the wire protocol's 'S' reply report.
type Summary struct {
	Filecules, Files     int
	Monatomic            int // single-file filecules
	LargestFiles         int // member count of the largest filecule
	MeanFilesPerFilecule float64
	CoveredBytes         int64 // under the catalog; 0 without one
}

// Summary returns the partition's shape statistics, with CoveredBytes summed
// under catalog c when c is non-nil. Like SizeTable it is computed once per
// (shape, catalog) pair. Safe for concurrent use.
func (p *Partition) Summary(c trace.Catalog) Summary {
	s := p.shape
	s.mu.Lock()
	defer s.mu.Unlock()
	s.useCatalog(c)
	if s.summary == nil {
		sum := Summary{Filecules: len(p.Filecules), Files: s.nFiles}
		for i := range p.Filecules {
			n := len(p.Filecules[i].Files)
			if n == 1 {
				sum.Monatomic++
			}
			sum.LargestFiles = max(sum.LargestFiles, n)
		}
		if sum.Filecules > 0 {
			sum.MeanFilesPerFilecule = float64(sum.Files) / float64(sum.Filecules)
		}
		if c != nil {
			for _, b := range p.sizesLocked() {
				sum.CoveredBytes += b
			}
		}
		s.summary = &sum
	}
	return *s.summary
}

// Validate checks the structural invariants of the partition: dense IDs,
// sorted non-empty member lists, disjointness, and file-index consistency.
func (p *Partition) Validate() error {
	idx := p.index()
	covered := 0
	for i := range p.Filecules {
		fc := &p.Filecules[i]
		if fc.ID != i {
			return fmt.Errorf("core: filecule at index %d has ID %d", i, fc.ID)
		}
		if len(fc.Files) == 0 {
			return fmt.Errorf("core: filecule %d is empty", i)
		}
		if fc.Requests < 1 {
			return fmt.Errorf("core: filecule %d has %d requests; must be >= 1", i, fc.Requests)
		}
		for k, f := range fc.Files {
			if k > 0 && fc.Files[k-1] >= f {
				return fmt.Errorf("core: filecule %d files not strictly increasing at %d", i, k)
			}
			// The index holds the last filecule listing f, so a file
			// listed twice fails here at its earlier owner.
			if got := int(idx.get(f)) - 1; got != i {
				return fmt.Errorf("core: file %d in filecules %d and %d", f, i, got)
			}
		}
		covered += len(fc.Files)
	}
	if p.shape.nFiles != covered {
		return fmt.Errorf("core: nFiles = %d, filecules cover %d files", p.shape.nFiles, covered)
	}
	return nil
}

// Equal reports whether two partitions decompose the same file population
// into the same groups with the same request counts.
func (p *Partition) Equal(q *Partition) bool {
	if len(p.Filecules) != len(q.Filecules) {
		return false
	}
	for i := range p.Filecules {
		a, b := &p.Filecules[i], &q.Filecules[i]
		if a.Requests != b.Requests || len(a.Files) != len(b.Files) {
			return false
		}
		for k := range a.Files {
			if a.Files[k] != b.Files[k] {
				return false
			}
		}
	}
	return true
}

// Identify computes the filecule partition of an entire trace using batch
// signature grouping: each file's signature is the exact set of jobs that
// requested it, and files are grouped by equal signatures. Every job counts,
// by its position in t.Jobs; Job.ID is not read. Time is linear in the total
// number of (job, file) request pairs, and memory is O(distinct files +
// requests): per-file state lives in pages addressed by the FileID, so a file
// costs at most one 16 KiB page and a 4 KiB directory wherever its ID lies,
// and a dense catalog 16 B a file.
func Identify(t *trace.Trace) *Partition {
	jobs := make([]trace.JobID, len(t.Jobs))
	for i := range jobs {
		jobs[i] = trace.JobID(i)
	}
	return IdentifyJobs(t, jobs)
}

// IdentifyJobs runs one worker per identifyRequestsPerWorker requests, at
// most maxIdentifyWorkers and GOMAXPROCS. Every worker reads every request,
// and below about a million requests the per-file state stays in cache, so a
// second worker costs more than it saves. The cap is the largest worker count
// that has been measured; a third worker adds another pass over every
// request for a smaller share of the state, and nothing yet shows that pays
// (CHANGES.md, "Generate and identify for less", has the measurements).
const (
	identifyRequestsPerWorker = 512 << 10
	maxIdentifyWorkers        = 2
)

// identifyWorkers is the number of workers IdentifyJobs runs for a job list
// holding the given number of requests.
func identifyWorkers(requests int) int {
	return max(1, min(runtime.GOMAXPROCS(0), maxIdentifyWorkers, requests/identifyRequestsPerWorker))
}

// IdentifyJobs computes the filecule partition induced by only the given
// jobs — the partial-knowledge identification of Section 6. Each JobID is a
// position in t.Jobs, and must be in range; repeats count once. Files
// requested by none of the jobs are not covered. The result is canonical.
//
// Every file's state sits at its FileID in a paged table. A counting pass
// sizes each file's ascending list of distinct requesting jobs; walking the
// touched pages in int32 order lays the lists out in one array (CSR), and a
// second pass fills them. The state pages are dealt out by page number to
// workers sized from the request count and GOMAXPROCS (identifyWorkers),
// each streaming every job but counting and filling only its own files, into
// its own table and list array. Files with equal lists are then grouped by hash, with an
// exact comparison behind every match, walking every worker's files in that
// same ID order: each filecule's members come out ascending and the
// filecules in canonical order, with no sort. Only t.Jobs is read: a trace
// without a file catalog identifies like any other.
func IdentifyJobs(t *trace.Trace, jobs []trace.JobID) *Partition {
	requests := 0
	for _, id := range jobs {
		requests += len(t.Jobs[id].Files)
	}
	return identifyJobs(t, jobs, identifyWorkers(requests))
}

// idShard is one worker's part of IdentifyJobs: the files on the state pages
// whose number is w mod the worker count, their job lists and their count.
type idShard struct {
	st     fileStates
	pages  []statePageAt
	lists  []int32
	nFiles int
}

// build runs both request passes over shard w of workers: every job's list
// is streamed, and files on other workers' pages are skipped.
func (sh *idShard) build(t *trace.Trace, jobs []trace.JobID, w, workers uint32) {
	// Both passes count a job's repeats of a file once: k is 1 + the job's
	// rank, so no mark left by one pass reads as current in the other. A
	// job's files come in dataset runs of nearby IDs, so each pass keeps the
	// last page it touched, nil when another worker owns it.
	const noPage = ^uint32(0) // page numbers have 32-stPageBits bits
	lastP, pg := noPage, (*statePage)(nil)
	st, nFiles := &sh.st, 0
	for i, id := range jobs {
		k := int32(i) + 1
		for _, f := range t.Jobs[id].Files {
			if p := uint32(f) >> stPageBits; p != lastP {
				lastP, pg = p, nil
				if p%workers == w {
					pg = st.page(p)
				}
			}
			if pg == nil {
				continue
			}
			if e := &pg[uint32(f)&(1<<stPageBits-1)]; e.mark != k {
				if e.mark == 0 {
					nFiles++
				}
				e.mark = k
				e.end++
			}
		}
	}
	pages := st.pages()
	total := int32(0)
	for _, at := range pages {
		for o := range at.pg {
			e := &at.pg[o]
			n := e.end
			e.end = total
			total += n
		}
	}
	lists := make([]int32, total)
	lastP = noPage
	for i, id := range jobs {
		k := int32(i) + 1
		for _, f := range t.Jobs[id].Files {
			if p := uint32(f) >> stPageBits; p != lastP {
				lastP, pg = p, nil
				if p%workers == w {
					pg = st.page(p)
				}
			}
			if pg == nil {
				continue
			}
			if e := &pg[uint32(f)&(1<<stPageBits-1)]; e.mark != -k {
				e.mark = -k
				lists[e.end] = k
				e.end++
				e.hash = (e.hash ^ uint64(k)) * 0x100000001b3
			}
		}
	}
	sh.pages, sh.lists, sh.nFiles = pages, lists, nFiles
}

// identifyJobs is IdentifyJobs on the given number of workers; one worker
// runs on the caller alone.
func identifyJobs(t *trace.Trace, jobs []trace.JobID, workers int) *Partition {
	// Ascending distinct jobs: visiting them in order leaves every list
	// sorted, which is what makes equal sets equal sequences.
	jobs = slices.Clone(jobs)
	slices.Sort(jobs)
	jobs = slices.Compact(jobs)

	shards := make([]idShard, workers)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shards[w].build(t, jobs, uint32(w), uint32(workers))
		}()
	}
	shards[0].build(t, jobs, 0, uint32(workers))
	wg.Wait()

	// Every worker's pages, merged in int32 order of the IDs they hold.
	type ownedPage struct {
		statePageAt
		w int
	}
	var pages []ownedPage
	nFiles := 0
	for w := range shards {
		for _, at := range shards[w].pages {
			pages = append(pages, ownedPage{at, w})
		}
		nFiles += shards[w].nFiles
	}
	slices.SortFunc(pages, func(a, b ownedPage) int { return cmp.Compare(a.base, b.base) })

	// Group files with equal lists in ID order: an open-addressing table
	// over groups, at most half full. A file's list starts where the
	// previous touched file of its worker ends, and its mark becomes
	// 1 + its group.
	type group struct {
		hash   uint64
		lo, hi int32 // the first member's list, in its worker's array
		w      int32
		n      int32 // members
	}
	tab := make([]int32, 1<<bits.Len(uint(2*nFiles))) // 1+group
	var groups []group
	los := make([]int32, workers)
	for _, at := range pages {
		lists, lo := shards[at.w].lists, los[at.w]
		for o := range at.pg {
			e := &at.pg[o]
			if e.mark == 0 {
				continue
			}
			hi := e.end
			for h := mix64(e.hash); ; h++ {
				c := &tab[h&uint64(len(tab)-1)]
				if *c == 0 {
					groups = append(groups, group{hash: e.hash, lo: lo, hi: hi, w: int32(at.w)})
					*c = int32(len(groups))
				} else if g := &groups[*c-1]; g.hash != e.hash || !slices.Equal(shards[g.w].lists[g.lo:g.hi], lists[lo:hi]) {
					continue
				}
				e.mark = *c
				groups[*c-1].n++
				break
			}
			lo = hi
		}
		los[at.w] = lo
	}

	// One arena holds every member list, each at its exact size; walking
	// the files in ID order again fills each list ascending.
	fcs := make([]Filecule, len(groups))
	arena := make([]trace.FileID, nFiles)
	off := 0
	for g := range groups {
		n := int(groups[g].n)
		fcs[g] = Filecule{Files: arena[off : off : off+n], Requests: int(groups[g].hi - groups[g].lo)}
		off += n
	}
	for _, at := range pages {
		for o := range at.pg {
			if m := at.pg[o].mark; m != 0 {
				fc := &fcs[m-1]
				fc.Files = append(fc.Files, at.base+trace.FileID(o))
			}
		}
	}
	return newCanonicalPartition(fcs)
}
