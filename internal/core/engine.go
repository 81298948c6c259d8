package core

import (
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"filecule/internal/trace"
)

// Engine is the sharded, allocation-flat online identification engine: the
// same partition refinement the Refiner performs, reorganized for the
// serving hot path. Files are sharded by hashed ID across dense shards;
// each shard refines its own sub-partition over dense integer slots
// (no per-observe map churn), and a deterministic cross-shard merge groups
// sub-blocks that belong to one global filecule.
//
// # Shard layout
//
// Each shard interns its files to compact local slots and keeps the slots of
// every block contiguous in a permutation array (perm, with pos as its
// inverse). Observing a job swaps each requested slot into the moved prefix
// of its block's interval — O(1) per request, including the duplicate check
// the Refiner pays a linear scan for — and then either re-requests a whole
// block (interval untouched) or splits it by slicing the interval in two,
// O(moved) with zero allocation. In steady state (a stable partition under a
// re-requesting workload) an observe allocates nothing.
//
// # Merge determinism
//
// A block's files all share one job set; the engine identifies that set by a
// 128-bit commutative signature: sig(J) = (Σ h1(g), Σ h2(g)) over the jobs
// g in J, with h1, h2 independent 64-bit mixers and sums mod 2^64. The sum
// form makes the signature independent of the order shards apply sub-jobs
// in, so concurrent observes need no cross-shard ordering: blocks in
// different shards belong to the same filecule iff their signatures are
// equal. Distinct job sets collide with probability ~2^-128 per pair (~2^-98
// across a billion blocks) — below any hardware error rate; the differential
// tests replay every trace prefix against batch identification to enforce
// the partitions stay bit-identical in practice.
//
// A lock-striped signature table tracks how many files sit under each
// signature, giving an exact global filecule count that is O(1) to read.
// Signatures are lazy: when a job re-requests a filecule wholly — detected
// by comparing the job's moved file count against the table's count for
// that signature — nothing moves between signatures, so the blocks keep
// their signature and the observe performs no table write at all. This is
// sound because equal signatures still mean equal filecules: the skip fires
// only when every block carrying the signature was wholly covered by the
// job, so the blocks stay equal to each other and to nothing else. Partial
// coverage falls back to moving the touched file counts from the old
// signature to old+g.
//
// # Repeat-job fast path
//
// Real traces re-submit the same input sets: once a job's set has been
// folded in, re-observing it is by definition a whole re-request of the
// filecules it resolved to. The engine caches, per distinct input multiset
// (a commutative 128-bit hash of the raw file list), the blocks the job
// resolved to. A later observe of the same multiset under an unchanged
// partition shape — tracked by a global split epoch that only block splits
// advance — is a lock-free hit: it defers one request-count increment per
// cached block and touches no partition state. Deferred counts are flushed
// into the blocks before anything can change shape (at the start of every
// slow observe) and before any snapshot, so they are never observable as
// missing. A hit is sound because cached refs cover complete filecules
// (slow observes leave every touched block under a signature whose filecule
// is exactly the touched set) and block membership cannot change without a
// split; re-applying such a job slowly would be exactly requests++ on those
// blocks.
//
// A split strands every entry cached before it. Stranded entries are swept
// out — under the write side, where slow observes already are — whenever the
// cache has at least doubled since the last sweep left it (see fillCache), so
// the cache follows the set of jobs that can still hit, not every job seen.
//
// # Concurrency
//
// Fast-path observes run under the read side of a gate RWMutex and are
// otherwise lock-free, so repeat jobs from many submitters proceed in
// parallel. Slow (shape-changing) observes and snapshots take the write
// side: a paper-scale job spans every shard anyway, so fine-grained shard
// locks only add overhead — exclusivity costs nothing and makes signature
// resolution and the pending-count flush trivially atomic. A snapshot never
// sees a half-applied job.
//
// # Copy-on-write snapshots
//
// Snapshot reuses, per signature group, the sorted member list materialized
// by the previous snapshot unless one of the group's blocks changed since —
// so a snapshot costs O(blocks) bookkeeping plus sorting only for changed
// groups, instead of re-sorting and re-copying every file. The returned
// Partition builds its file→filecule index on first lookup.
type Engine struct {
	shards []engineShard
	mask   uint32

	// gate separates the lock-free repeat-job fast path (read side) from
	// shape-changing slow observes and snapshot assembly (write side).
	gate sync.RWMutex

	// jobCache maps jobKey(files) -> *cachedJob for the repeat-job fast
	// path; splitEpoch invalidates every entry at once when a split changes
	// some block's membership. pendJobs registers entries holding deferred
	// request counts, flushed under the gate's write side.
	jobCache   sync.Map
	cacheSize  atomic.Int64
	splitEpoch atomic.Uint64
	pendMu     sync.Mutex
	pendJobs   []*cachedJob
	// Cache reclamation state, touched only under the gate's write side:
	// the size at which the next sweep is due, the epoch the last sweep ran
	// at (nothing is stale until it advances), and the entry cap —
	// maxCachedJobs, a field so that tests can reach it with a few jobs.
	sweepAt    int64
	sweptEpoch uint64
	cacheCap   int64
	sweeps     atomic.Int64

	// slots maps FileID -> 1+shard-local slot (0 = unseen); read and
	// written only under the gate's write side.
	slots fileIndex

	nextGen  atomic.Uint64
	observed atomic.Int64
	// slowJobs and emptyJobs count the observes that did not take the
	// repeat-job fast path, so hits = observed - slowJobs - emptyJobs and
	// the hit path itself counts nothing.
	slowJobs  atomic.Int64
	emptyJobs atomic.Int64
	blocks    atomic.Int64 // raw sub-blocks across shards (>= filecules)
	filecules atomic.Int64 // distinct signatures = exact filecule count
	version   atomic.Uint64

	sigTab sigTable

	scratchPool sync.Pool

	// Snapshot assembly state: the copy-on-write group cache and the last
	// assembled partition, all guarded by snapMu.
	snapMu     sync.Mutex
	snapGroups map[sig128]*snapGroup
	snapCache  atomic.Pointer[snapState]
}

type snapState struct {
	version uint64
	p       *Partition
}

// snapGroup is one materialized filecule: the sorted member files of every
// block sharing a signature, built at most once per change. stamp records
// the engine version the entry was materialized at; an unchanged group keeps
// its stamp across refreshes, so (sig, stamp) identifies the group's bytes —
// the key the durable checkpoint writer caches encoded chunks under.
type snapGroup struct {
	files    []trace.FileID // sorted ascending; immutable once built
	requests int
	blocks   int    // contributing sub-blocks at build time
	stamp    uint64 // engine version at materialization
}

// engineShard holds one shard's sub-partition in dense slot-indexed form.
// Files are interned to compact local slots via the engine-wide page table.
// Shards are mutated only under the gate's write side; they exist to keep
// the slot arrays compact and to give the signature merge its unit of work,
// not as lock domains (a paper-scale job spans every shard, so per-shard
// locks measure as pure overhead).
type engineShard struct {
	file    []trace.FileID // slot -> FileID
	perm    []int32        // slots in block-contiguous order
	pos     []int32        // slot -> index in perm
	blockOf []int32        // slot -> index in blocks, -1 while fresh this job
	blocks  []eblock
}

// eblock is one refinement block: the slots perm[lo:hi], their shared
// request count and job-set signature.
type eblock struct {
	lo, hi   int32
	mark     int32  // split pointer while gen is current
	gen      uint64 // job currently marking this block
	requests int
	sig      sig128
	// gfiles is the filecule's global file count across shards, possibly
	// stale-high for blocks a partial split could not reach (see
	// resolveSigs); never stale-low, which keeps the whole-cover test
	// sound.
	gfiles int32
	dirty  bool // changed since the last snapshot materialization
}

// sig128 is a commutative job-set signature (see Engine doc).
type sig128 struct{ lo, hi uint64 }

// mix64 is the splitmix64 finalizer, a strong 64-bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// sigOf returns the signature of the singleton job set {g}.
func sigOf(g uint64) sig128 {
	return sig128{lo: mix64(g), hi: mix64(g ^ 0x9e3779b97f4a7c15)}
}

// addJob returns the signature of J ∪ {g} given sig(J), g ∉ J.
func (s sig128) addJob(g uint64) sig128 {
	d := sigOf(g)
	return sig128{lo: s.lo + d.lo, hi: s.hi + d.hi}
}

// jobKey is a commutative 128-bit hash of a job's raw input list as a
// multiset: order-independent (the engine ignores ordering) but duplicate
// -sensitive, so it can be computed in one pass with no sorting or
// deduplication on the fast path.
func jobKey(files []trace.FileID) sig128 {
	var k sig128
	for _, f := range files {
		x := uint64(uint32(f))
		k.lo += mix64(x ^ 0xd1b54a32d192ed03)
		k.hi += mix64(x ^ 0x8bb84b93962eacc9)
	}
	return k
}

// maxCachedJobs caps the repeat-job cache's entries, stale and live; a job
// arriving at a cache full of live entries is observed slowly each time.
// minCacheSweep keeps a small cache from sweeping at every other insert.
const (
	maxCachedJobs = 1 << 20
	minCacheSweep = 1024
)

// cacheRef names one block a cached job resolved to.
type cacheRef struct {
	sh uint32
	bi int32
}

// cachedJob is one repeat-job cache entry: the blocks the job's input set
// resolved to, valid while no split has changed any block's membership
// since epoch. pending counts fast-path hits not yet folded into the
// blocks' request counters.
type cachedJob struct {
	epoch   uint64
	refs    []cacheRef
	pending atomic.Int64
}

// sigStripes is the number of refcount-table stripes. Signatures are
// uniformly mixed, so contention spreads evenly.
const sigStripes = 64

type sigTable struct {
	stripes [sigStripes]sigStripe
}

type sigStripe struct {
	mu sync.Mutex
	m  map[sig128]int32
	_  [40]byte
}

func (t *sigTable) stripe(s sig128) *sigStripe {
	return &t.stripes[s.lo&(sigStripes-1)]
}

// files returns how many files currently sit under signature s.
func (t *sigTable) files(s sig128) int32 {
	st := t.stripe(s)
	st.mu.Lock()
	c := st.m[s]
	st.mu.Unlock()
	return c
}

// add credits n files to signature s and reports whether s is new (a
// filecule came into existence).
func (t *sigTable) add(s sig128, n int32) bool {
	st := t.stripe(s)
	st.mu.Lock()
	c := st.m[s]
	st.m[s] = c + n
	st.mu.Unlock()
	return c == 0
}

// sub debits n files from signature s and reports whether s is gone (a
// filecule ceased to exist under that signature).
func (t *sigTable) sub(s sig128, n int32) bool {
	st := t.stripe(s)
	st.mu.Lock()
	c := st.m[s]
	if c <= n {
		delete(st.m, s)
	} else {
		st.m[s] = c - n
	}
	st.mu.Unlock()
	return c == n
}

// sigDelta accumulates one observe's effect on one pre-existing signature:
// how many files whole-touched blocks moved and how many left via splits.
type sigDelta struct {
	sig        sig128
	newSig     sig128
	wholeFiles int32
	splitFiles int32
	gfiles     int32 // filecule file-count hint from the first block seen
	newGfiles  int32 // hint for blocks that moved to newSig
	skip       bool
}

// blockRef remembers a touched block so resolveSigs can rewrite its
// signature or file-count hint once the per-filecule decision is made.
type blockRef struct {
	sh  uint32
	bi  int32
	di  int32 // index into observeScratch.deltas
	rem int32 // split refs only: the remainder block the new one left
}

// idxSlot is one open-addressing cell of the scratch delta index;
// generation stamping makes per-observe reset free.
type idxSlot struct {
	gen uint64
	di  int32
	sig sig128
}

// observeScratch is the reusable per-observe workspace, pooled so a steady
// -state observe allocates nothing.
type observeScratch struct {
	byShard   [][]trace.FileID // per-shard sublists of the job's input set
	shards    []uint32         // touched shard indices, sorted ascending
	deltas    []sigDelta       // per pre-existing signature touched
	wholeRefs []blockRef       // whole-touched blocks, all shards
	splitRefs []blockRef       // split-off new blocks, all shards
	freshRefs []blockRef       // fresh-tail blocks, one per shard at most
	touched   []int32          // touched block indices within one shard
	idx       []idxSlot        // open-addressing index over deltas
	idxGen    uint64
	fresh     int32 // files first seen this observe, all shards
}

// deltaIdx finds or appends the delta entry for signature s — O(1) via the
// generation-stamped open-addressing index (jobs touch dozens of filecules,
// so a linear scan over deltas would go quadratic).
func (sc *observeScratch) deltaIdx(s sig128, gfiles int32) int32 {
	if len(sc.deltas) >= len(sc.idx)/2 {
		sc.growIdx()
	}
	mask := uint64(len(sc.idx) - 1)
	h := s.lo & mask // sig words are already well mixed
	for {
		sl := &sc.idx[h]
		if sl.gen != sc.idxGen {
			sl.gen, sl.sig = sc.idxGen, s
			sc.deltas = append(sc.deltas, sigDelta{sig: s, gfiles: gfiles})
			sl.di = int32(len(sc.deltas) - 1)
			return sl.di
		}
		if sl.sig == s {
			return sl.di
		}
		h = (h + 1) & mask
	}
}

// growIdx doubles the delta index and re-stamps the live entries.
func (sc *observeScratch) growIdx() {
	n := 2 * len(sc.idx)
	if n < 64 {
		n = 64
	}
	sc.idx = make([]idxSlot, n)
	mask := uint64(n - 1)
	for i := range sc.deltas {
		h := sc.deltas[i].sig.lo & mask
		for sc.idx[h].gen == sc.idxGen {
			h = (h + 1) & mask
		}
		sc.idx[h] = idxSlot{gen: sc.idxGen, di: int32(i), sig: sc.deltas[i].sig}
	}
}

// DefaultEngineShards picks the shard count for NewEngine(0): enough
// stripes to keep observes from different submitters off each other's
// locks, clamped to a sane range.
func DefaultEngineShards() int {
	n := 4 * runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	if n > 64 {
		n = 64
	}
	// Round up to a power of two for mask-based shard selection.
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NewEngine returns an empty engine with the given shard count, rounded up
// to a power of two; shards <= 0 selects DefaultEngineShards.
func NewEngine(shards int) *Engine {
	if shards <= 0 {
		shards = DefaultEngineShards()
	}
	p := 1
	for p < shards {
		p <<= 1
	}
	e := &Engine{
		shards:     make([]engineShard, p),
		mask:       uint32(p - 1),
		snapGroups: make(map[sig128]*snapGroup),
		sweepAt:    minCacheSweep,
		cacheCap:   maxCachedJobs,
	}
	for i := range e.sigTab.stripes {
		e.sigTab.stripes[i].m = make(map[sig128]int32)
	}
	e.scratchPool.New = func() any {
		return &observeScratch{
			byShard: make([][]trace.FileID, p),
			shards:  make([]uint32, 0, p),
			touched: make([]int32, 0, 64),
		}
	}
	return e
}

// Shards returns the engine's shard count.
func (e *Engine) Shards() int { return len(e.shards) }

// Observed returns the number of jobs folded in so far.
func (e *Engine) Observed() int64 { return e.observed.Load() }

// NumFilecules returns the exact number of filecules (distinct job-set
// signatures) in O(1), maintained incrementally by the striped refcount
// table.
func (e *Engine) NumFilecules() int { return int(e.filecules.Load()) }

// Blocks returns the raw sub-block count across shards. It exceeds
// NumFilecules when a filecule's files span shards; the gap is a shard
// -layout diagnostic, not a property of the partition.
func (e *Engine) Blocks() int64 { return e.blocks.Load() }

// JobCacheStats describes the repeat-job fast path from outside.
type JobCacheStats struct {
	Entries      int64 // cached input sets, stale ones awaiting a sweep included
	Sweeps       int64 // reclamation passes so far
	FastPathHits int64 // non-empty observes answered from the cache
}

// JobCacheStats reads the cache counters. Hits are derived — observed minus
// slow minus empty — so the lock-free hit path maintains no counter of its
// own; read concurrently with observes the figure can run ahead by the one
// slow observe in flight, never negative.
func (e *Engine) JobCacheStats() JobCacheStats {
	notHits := e.slowJobs.Load() + e.emptyJobs.Load()
	return JobCacheStats{
		Entries:      e.cacheSize.Load(),
		Sweeps:       e.sweeps.Load(),
		FastPathHits: e.observed.Load() - notHits,
	}
}

// Version increments on every observe; snapshot caching keys off it.
func (e *Engine) Version() uint64 { return e.version.Load() }

// shardOf spreads file IDs over shards with a multiplicative hash, so even
// strided ID patterns stay balanced.
func (e *Engine) shardOf(f trace.FileID) uint32 {
	return (uint32(f) * 0x9e3779b1) >> 16 & e.mask
}

// Observe folds one job's input set into the partition. Duplicate file IDs
// within the set are ignored. Safe for concurrent use; repeated input sets
// take a lock-free fast path and proceed in parallel.
func (e *Engine) Observe(files []trace.FileID) {
	if len(files) == 0 {
		e.observed.Add(1)
		e.emptyJobs.Add(1)
		e.version.Add(1)
		return
	}
	key := jobKey(files)
	e.gate.RLock()
	if v, ok := e.jobCache.Load(key); ok {
		cj := v.(*cachedJob)
		if cj.epoch == e.splitEpoch.Load() {
			// Repeat of a known set under an unchanged shape: a whole
			// re-request of exactly the cached blocks. Defer requests++;
			// register the entry once per flush cycle.
			if cj.pending.Add(1) == 1 {
				e.pendMu.Lock()
				e.pendJobs = append(e.pendJobs, cj)
				e.pendMu.Unlock()
			}
			e.observed.Add(1)
			e.version.Add(1)
			e.gate.RUnlock()
			return
		}
	}
	e.gate.RUnlock()

	e.gate.Lock()
	e.flushPending()
	e.observeSlow(files, key)
	e.gate.Unlock()
}

// ObserveBatch folds several jobs' input sets. Each job takes the same
// fast/slow path Observe does.
func (e *Engine) ObserveBatch(jobs [][]trace.FileID) {
	for _, files := range jobs {
		e.Observe(files)
	}
}

// ObserveTrace feeds every job of t in ID order.
func (e *Engine) ObserveTrace(t *trace.Trace) {
	for i := range t.Jobs {
		e.Observe(t.Jobs[i].Files)
	}
}

// ObserveSource drains src, folding every job's input set into the engine,
// and returns the number of jobs observed. Identification is commutative,
// so the resulting partition is independent of stream order; peak memory is
// the source's chunk buffer, not the trace. The error is nil on a clean
// drain (io.EOF is not reported).
func (e *Engine) ObserveSource(src trace.Source) (int64, error) {
	var n int64
	for {
		j, err := src.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		// Observe, not ObserveBatch: the job's Files slice is only
		// valid until the next Next call.
		e.Observe(j.Files)
		n++
	}
}

// flushPending folds deferred fast-path request counts into their blocks.
// Caller holds the gate's write side. Every registered entry's refs are
// still valid here: refs only go stale when a split changes membership,
// and every split is preceded by this flush under the same write hold —
// with fast hits excluded by the gate, no count can slip in between.
func (e *Engine) flushPending() {
	e.pendMu.Lock()
	for i, cj := range e.pendJobs {
		if n := int(cj.pending.Swap(0)); n > 0 {
			for _, r := range cj.refs {
				b := &e.shards[r.sh].blocks[r.bi]
				b.requests += n
				b.dirty = true
			}
		}
		e.pendJobs[i] = nil
	}
	e.pendJobs = e.pendJobs[:0]
	e.pendMu.Unlock()
}

// observeSlow applies one non-empty job under the gate's write side and
// caches the blocks it resolved to for future fast-path hits.
func (e *Engine) observeSlow(files []trace.FileID, key sig128) {
	e.observed.Add(1)
	e.slowJobs.Add(1)
	e.version.Add(1)
	sc := e.scratchPool.Get().(*observeScratch)
	sc.idxGen++
	shards := sc.shards[:0]
	for _, f := range files {
		sh := e.shardOf(f)
		if len(sc.byShard[sh]) == 0 {
			shards = append(shards, sh)
		}
		sc.byShard[sh] = append(sc.byShard[sh], f)
	}
	// Insertion sort: the touched-shard list is short, and a deterministic
	// order keeps shard application reproducible run to run.
	for i := 1; i < len(shards); i++ {
		for k := i; k > 0 && shards[k] < shards[k-1]; k-- {
			shards[k], shards[k-1] = shards[k-1], shards[k]
		}
	}
	g := e.nextGen.Add(1)
	for _, sh := range shards {
		e.observeShard(&e.shards[sh], sh, g, sc.byShard[sh], sc)
		sc.byShard[sh] = sc.byShard[sh][:0]
	}
	e.resolveSigs(g, sc)
	if len(sc.splitRefs) > 0 {
		// Some block's membership changed: every cached ref set may now
		// straddle filecules, so invalidate them all.
		e.splitEpoch.Add(1)
	}
	e.fillCache(key, sc)
	sc.shards = shards[:0]
	sc.deltas = sc.deltas[:0]
	sc.wholeRefs = sc.wholeRefs[:0]
	sc.splitRefs = sc.splitRefs[:0]
	sc.freshRefs = sc.freshRefs[:0]
	sc.fresh = 0
	e.scratchPool.Put(sc)
}

// fillCache records the blocks this observe resolved to, keyed by the job's
// input multiset. Caller holds the gate's write side; the epoch is read
// after any split bump, so the entry is born valid: at this instant the
// job's input set is exactly the union of the ref'd blocks, and each ref'd
// block's whole filecule lies within the refs (resolveSigs left every
// touched block under a signature carried only by touched blocks). Both
// properties survive split-free observes, which move whole signature
// classes at a time — so a later hit is a whole re-request of complete
// filecules: pure requests++.
//
// An insert that finds the cache at twice what the last sweep left (or at the
// cap) sweeps first, unless no split has happened since that sweep — then
// every entry is live and there is nothing to reclaim. Each sweep therefore
// follows at least as many inserts as the entries it walks: O(1) amortised.
func (e *Engine) fillCache(key sig128, sc *observeScratch) {
	n := len(sc.wholeRefs) + len(sc.splitRefs) + len(sc.freshRefs)
	if n == 0 {
		return
	}
	epoch := e.splitEpoch.Load()
	if e.cacheSize.Load() >= min(e.sweepAt, e.cacheCap) && epoch != e.sweptEpoch {
		e.sweepCache(epoch)
	}
	if e.cacheSize.Load() >= e.cacheCap {
		return
	}
	cj := &cachedJob{epoch: epoch, refs: make([]cacheRef, 0, n)}
	for _, r := range sc.wholeRefs {
		cj.refs = append(cj.refs, cacheRef{sh: r.sh, bi: r.bi})
	}
	for _, r := range sc.splitRefs {
		cj.refs = append(cj.refs, cacheRef{sh: r.sh, bi: r.bi})
	}
	for _, r := range sc.freshRefs {
		cj.refs = append(cj.refs, cacheRef{sh: r.sh, bi: r.bi})
	}
	if _, loaded := e.jobCache.Swap(key, cj); !loaded {
		e.cacheSize.Add(1)
	}
}

// sweepCache deletes every entry a split has stranded. Caller holds the
// gate's write side. A stale entry holds no deferred count: hits stop at the
// split that strands it, and that split's observe flushed every pending
// count under the same write hold before it changed any block.
func (e *Engine) sweepCache(epoch uint64) {
	var live int64
	e.jobCache.Range(func(k, v any) bool {
		if v.(*cachedJob).epoch == epoch {
			live++
		} else {
			e.jobCache.Delete(k)
		}
		return true
	})
	e.cacheSize.Store(live)
	e.sweepAt = max(minCacheSweep, 2*live)
	e.sweptEpoch = epoch
	e.sweeps.Add(1)
}

// observeShard applies one job's sub-list to a shard, recording signature
// effects into the scratch for resolveSigs. Caller holds the gate's write
// side.
func (e *Engine) observeShard(s *engineShard, sh uint32, g uint64, files []trace.FileID, sc *observeScratch) {
	touched := sc.touched[:0]
	freshStart := int32(len(s.perm))
	for _, f := range files {
		c := e.slots.cell(f)
		v := *c
		if v == 0 {
			// First sighting ever: append a slot to the tail of perm;
			// the fresh tail becomes one new block below.
			slot := int32(len(s.file))
			*c = slot + 1
			s.file = append(s.file, f)
			s.pos = append(s.pos, int32(len(s.perm)))
			s.perm = append(s.perm, slot)
			s.blockOf = append(s.blockOf, -1)
			continue
		}
		slot := v - 1
		bi := s.blockOf[slot]
		if bi < 0 {
			continue // duplicate of a file first seen in this job
		}
		b := &s.blocks[bi]
		if b.gen != g {
			b.gen = g
			b.mark = b.lo
			touched = append(touched, bi)
		} else if s.pos[slot] < b.mark {
			continue // duplicate within this job: already moved
		}
		// Swap the slot into the moved prefix [lo, mark).
		p, q := s.pos[slot], b.mark
		other := s.perm[q]
		s.perm[q], s.perm[p] = slot, other
		s.pos[slot], s.pos[other] = q, p
		b.mark++
	}

	for _, bi := range touched {
		b := &s.blocks[bi]
		if b.mark == b.hi {
			// Whole block requested again: the job set gains g, but
			// whether the signature must move is a per-filecule decision
			// resolveSigs makes once every shard has reported.
			di := sc.deltaIdx(b.sig, b.gfiles)
			sc.deltas[di].wholeFiles += b.hi - b.lo
			sc.wholeRefs = append(sc.wholeRefs, blockRef{sh: sh, bi: bi, di: di})
			b.requests++
			b.dirty = true
			continue
		}
		// Split: the moved prefix perm[lo:mark] leaves b as a new block
		// with one extra request; b keeps its signature and count.
		di := sc.deltaIdx(b.sig, b.gfiles)
		sc.deltas[di].splitFiles += b.mark - b.lo
		nb := eblock{
			lo:       b.lo,
			hi:       b.mark,
			requests: b.requests + 1,
			sig:      b.sig.addJob(g),
			dirty:    true,
		}
		nbIdx := int32(len(s.blocks))
		for i := nb.lo; i < nb.hi; i++ {
			s.blockOf[s.perm[i]] = nbIdx
		}
		b.lo = b.mark
		b.dirty = true
		// b may dangle after the append; no use of it beyond this point.
		s.blocks = append(s.blocks, nb)
		e.blocks.Add(1)
		sc.splitRefs = append(sc.splitRefs, blockRef{sh: sh, bi: nbIdx, di: di, rem: bi})
	}

	if fresh := int32(len(s.perm)) - freshStart; fresh > 0 {
		nb := eblock{
			lo:       freshStart,
			hi:       int32(len(s.perm)),
			requests: 1,
			sig:      sigOf(g),
			dirty:    true,
		}
		nbIdx := int32(len(s.blocks))
		for i := nb.lo; i < nb.hi; i++ {
			s.blockOf[s.perm[i]] = nbIdx
		}
		s.blocks = append(s.blocks, nb)
		e.blocks.Add(1)
		sc.freshRefs = append(sc.freshRefs, blockRef{sh: sh, bi: nbIdx})
		sc.fresh += fresh
	}
	sc.touched = touched[:0]
}

// resolveSigs turns one observe's per-signature deltas into block-signature
// and table updates. Caller holds the gate's write side.
//
// The whole-cover skip: if no block under signature s split and the job's
// whole-touched blocks account for every file of the filecule (the gfiles
// hint), then every block carrying s anywhere was wholly re-requested by
// this job, and they all stay one filecule — leaving the signature alone
// keeps them equal to each other and to nothing else, and needs no table
// write at all, which is what makes a steady-state observe map-free.
//
// Soundness of the hint: gfiles is exact when written and can only go
// stale-HIGH — a filecule only ever loses files to splits, and a split
// updates only the blocks its observe touched, leaving untouched siblings'
// hints too big. The job's whole-touched files are a subset of the
// filecule's true file count, which is at most the hint; so wholeFiles ==
// hint forces hint == truth — the skip can never fire while a foreign
// block still carries s. A stale-high hint merely misses the skip and
// takes the exact table-backed path below, which also rewrites the hints,
// restoring them.
func (e *Engine) resolveSigs(g uint64, sc *observeScratch) {
	for i := range sc.deltas {
		d := &sc.deltas[i]
		moved := d.wholeFiles + d.splitFiles
		if d.splitFiles == 0 && d.wholeFiles == d.gfiles {
			d.skip = true
			continue
		}
		d.newSig = d.sig.addJob(g)
		d.newGfiles = moved
		if e.sigTab.add(d.newSig, moved) {
			e.filecules.Add(1)
		}
		if e.sigTab.sub(d.sig, moved) {
			e.filecules.Add(-1)
		}
	}
	for _, r := range sc.wholeRefs {
		d := &sc.deltas[r.di]
		if d.skip {
			continue
		}
		b := &e.shards[r.sh].blocks[r.bi]
		b.sig = d.newSig
		b.gfiles = d.newGfiles
	}
	for _, r := range sc.splitRefs {
		d := &sc.deltas[r.di]
		s := &e.shards[r.sh]
		s.blocks[r.bi].gfiles = d.newGfiles
		// The remainder lost the delta's moved files; debiting the
		// original hint keeps remainders stale-high at worst.
		s.blocks[r.rem].gfiles = d.gfiles - d.newGfiles
	}
	if sc.fresh > 0 {
		for _, r := range sc.freshRefs {
			e.shards[r.sh].blocks[r.bi].gfiles = sc.fresh
		}
		if e.sigTab.add(sigOf(g), sc.fresh) {
			e.filecules.Add(1)
		}
	}
}

// refreshGroups brings the copy-on-write group cache up to date and returns
// it along with the engine counters it corresponds to. Caller holds snapMu.
// The returned map and its snapGroup entries are immutable once returned
// (rebuilds allocate fresh entries), so callers may walk them after the
// engine resumes observing.
func (e *Engine) refreshGroups() (map[sig128]*snapGroup, uint64, int64, uint64) {
	// Drain in-flight observes; none can start until the gate drops.
	e.gate.Lock()
	v := e.version.Load()
	observed := e.observed.Load()
	nextGen := e.nextGen.Load()
	// Fold deferred fast-path request counts in before assembling; they
	// mark their blocks dirty so the affected groups re-materialize.
	e.flushPending()

	// Pass 1: group blocks by signature, noting dirtiness, and clear the
	// dirty bits (every group is validated or rebuilt by this refresh).
	type blockRef struct {
		shard int32
		block int32
	}
	type build struct {
		refs  []blockRef
		dirty bool
	}
	groups := make(map[sig128]*build, len(e.snapGroups))
	for si := range e.shards {
		s := &e.shards[si]
		for bi := range s.blocks {
			b := &s.blocks[bi]
			gb := groups[b.sig]
			if gb == nil {
				gb = &build{}
				groups[b.sig] = gb
			}
			gb.refs = append(gb.refs, blockRef{int32(si), int32(bi)})
			if b.dirty {
				gb.dirty = true
				b.dirty = false
			}
		}
	}

	// Pass 2: materialize, reusing the previous refresh's entry whenever
	// no contributing block changed and the group shape is intact.
	next := make(map[sig128]*snapGroup, len(groups))
	for sig, gb := range groups {
		entry := e.snapGroups[sig]
		if gb.dirty || entry == nil || entry.blocks != len(gb.refs) {
			n := 0
			for _, ref := range gb.refs {
				b := &e.shards[ref.shard].blocks[ref.block]
				n += int(b.hi - b.lo)
			}
			files := make([]trace.FileID, 0, n)
			requests := 0
			for _, ref := range gb.refs {
				s := &e.shards[ref.shard]
				b := &s.blocks[ref.block]
				requests = b.requests
				for i := b.lo; i < b.hi; i++ {
					files = append(files, s.file[s.perm[i]])
				}
			}
			sort.Slice(files, func(a, b int) bool { return files[a] < files[b] })
			entry = &snapGroup{files: files, requests: requests, blocks: len(gb.refs), stamp: v}
		}
		next[sig] = entry
	}
	e.snapGroups = next
	e.gate.Unlock()
	return next, v, observed, nextGen
}

// Snapshot returns a consistent canonical Partition of everything observed
// so far. Unchanged state returns the identical *Partition (pointer
// comparison detects change); after observes, only changed signature groups
// are re-materialized.
func (e *Engine) Snapshot() *Partition {
	if c := e.snapCache.Load(); c != nil && c.version == e.version.Load() {
		return c.p
	}
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	if c := e.snapCache.Load(); c != nil && c.version == e.version.Load() {
		return c.p
	}
	groups, v, _, _ := e.refreshGroups()
	fcs := make([]Filecule, 0, len(groups))
	for _, entry := range groups {
		fcs = append(fcs, Filecule{Files: entry.files, Requests: entry.requests})
	}
	p := NewPartition(fcs)
	e.snapCache.Store(&snapState{version: v, p: p})
	return p
}
