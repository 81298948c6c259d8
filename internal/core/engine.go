package core

import (
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"filecule/internal/trace"
)

// Engine is the allocation-flat online identification engine: the partition
// refinement the tests' reference Refiner spells with maps and pointers, laid
// out for the serving hot path as one dense partition in which a block is
// exactly a filecule.
//
// # Layout
//
// Files intern to compact slots through one fileIndex, and the slots of
// every block are contiguous in a permutation array (perm, with pos as its
// inverse). Observing a job swaps each requested slot into the moved prefix
// of its block's interval — O(1) per request, including the duplicate check
// the Refiner pays a linear scan for — and then either re-requests a whole
// block (interval untouched, requests++) or splits it by slicing the interval
// in two, O(moved) with zero allocation. Files seen for the first time form
// one new block at the tail. Blocks are only ever appended — by a split or a
// first sighting — and never emptied, so the block count is both the exact
// filecule count and a monotone membership version: two moments with the
// same count have the same file → filecule map.
//
// # Identity
//
// Every block carries a 128-bit signature as its stable name, which is what
// checkpoints, the federation protocol and ExportState key groups by: sigOf(g)
// for a block born in job generation g, parent.addJob(g) for the half a split
// in generation g moves out, never rewritten after. Two blocks share an
// ancestor up to the split that separated them, where exactly one of them
// took that generation's term, so distinct blocks name distinct generation
// sets and collide with probability ~2^-128 per pair. Generations are never
// reused, across restarts included (EngineState.NextGen), so a signature is
// never reissued.
//
// # Repeat-job fast path
//
// Real traces re-submit the same input sets: once a job's set has been
// folded in, re-observing it is by definition a whole re-request of the
// filecules it resolved to. The engine caches, per distinct input multiset
// (a commutative 128-bit hash of the raw file list), the blocks the job
// resolved to. A later observe of the same multiset under an unchanged
// partition shape — tracked by a split epoch that only block splits
// advance — is a lock-free hit: it defers one request-count increment per
// cached block and touches no partition state. Deferred counts are flushed
// into the blocks before anything can change shape (at the start of every
// slow observe) and before any snapshot, so they are never observable as
// missing. A hit is sound because a slow observe leaves the job's input set
// equal to the union of the blocks it touched, and block membership cannot
// change without a split; re-applying such a job slowly would be exactly
// requests++ on those blocks.
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
// parallel. Slow (shape-changing) observes and snapshot refreshes take the
// write side. A snapshot never sees a half-applied job.
//
// # Snapshots follow membership
//
// The snapshot side keeps, per block, its sorted member list (rebuilt only
// when the block has split since), its request count and a change stamp, and
// the canonical order of the blocks (recomputed only when the block count
// moved). A Snapshot at an unchanged block count therefore copies the
// previous filecule list, refreshes the request counts, and shares the
// previous partition's file index, size table and summary; only a membership
// change assembles a partition from scratch, re-sorting only split blocks.
type Engine struct {
	// gate separates the lock-free repeat-job fast path (read side) from
	// shape-changing slow observes and snapshot refreshes (write side).
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

	// The partition, read and written only under the gate's write side.
	slots   fileIndex      // FileID -> 1+slot (0 = unseen)
	file    []trace.FileID // slot -> FileID
	perm    []int32        // slots in block-contiguous order
	pos     []int32        // slot -> index in perm
	blockOf []int32        // slot -> index in blocks, -1 while fresh this job
	blocks  []eblock
	dirty   []int32 // blocks whose count or membership changed since the last refresh
	touched []int32 // observeSlow's workspace: the blocks the job resolved to
	nextGen uint64  // job generations issued so far

	observed atomic.Int64
	// slowJobs and emptyJobs count the observes that did not take the
	// repeat-job fast path, so hits = observed - slowJobs - emptyJobs and
	// the hit path itself counts nothing.
	slowJobs  atomic.Int64
	emptyJobs atomic.Int64
	nblocks   atomic.Int64 // len(blocks), published for lock-free readers
	version   atomic.Uint64

	// Snapshot side, guarded by snapMu: groups mirrors blocks as of the last
	// refresh, order lists block indexes by smallest member file and is
	// current while len(order) == len(groups).
	snapMu    sync.Mutex
	groups    []snapGroup
	order     []int32
	refreshed refreshPoint // what groups is current for
	snapCache atomic.Pointer[snapState]
	// How many snapshots shared the previous one's shape and how many were
	// assembled from scratch; bumped under snapMu.
	sharedSnaps  atomic.Int64
	rebuiltSnaps atomic.Int64
}

type snapState struct {
	version uint64
	p       *Partition
}

// refreshPoint is the engine counters of the last refresh.
type refreshPoint struct {
	valid    bool
	version  uint64
	observed int64
	nextGen  uint64
}

// snapGroup is the snapshot side of one block. stamp records the engine
// version of the refresh that last saw the block's count or membership
// change, so (sig, stamp) identifies the group's bytes — the key the durable
// checkpoint writer caches encoded chunks under, and what federation deltas
// select by.
type snapGroup struct {
	files    []trace.FileID // sorted ascending; immutable, replaced when the block splits
	requests int
	sig      sig128
	stamp    uint64
}

// eblock is one refinement block — one filecule: the slots perm[lo:hi],
// their shared request count and the block's identity.
type eblock struct {
	lo, hi   int32
	mark     int32  // split pointer while gen is current
	dirty    bool   // on Engine.dirty
	gen      uint64 // job currently marking this block
	requests int
	sig      sig128
}

// sig128 is a block's identity: a commutative sum over job generations (see
// Engine doc).
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

// sigOf returns the signature of a block born in generation g.
func sigOf(g uint64) sig128 {
	return sig128{lo: mix64(g), hi: mix64(g ^ 0x9e3779b97f4a7c15)}
}

// addJob returns the signature of the half a split in generation g moves out
// of a block named s.
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

// cachedJob is one repeat-job cache entry: the blocks the job's input set
// resolved to, valid while no split has changed any block's membership
// since epoch. pending counts fast-path hits not yet folded into the
// blocks' request counters.
type cachedJob struct {
	epoch   uint64
	refs    []int32 // block indexes
	pending atomic.Int64
}

// NewEngine returns an empty engine. The argument is ignored: it was the
// shard count while the engine hashed files over shards, and the signature
// stays only because the end-to-end benchmark (bench/e2e), which a change to
// the program may not edit, calls NewEngine(0).
func NewEngine(int) *Engine {
	return &Engine{sweepAt: minCacheSweep, cacheCap: maxCachedJobs}
}

// Observed returns the number of jobs folded in so far.
func (e *Engine) Observed() int64 { return e.observed.Load() }

// NumFilecules returns the exact number of filecules in O(1): the block
// count. Blocks are only ever appended, and every membership change appends
// one, so the count doubles as a membership version — a Partition with as
// many filecules as the engine reports now has the engine's current file →
// filecule map, whatever request counts have moved since.
func (e *Engine) NumFilecules() int { return int(e.nblocks.Load()) }

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

// SnapshotStats counts the partitions Snapshot has assembled: Shared ones
// reused the previous snapshot's shape (no membership change in between),
// Rebuilt ones did not.
type SnapshotStats struct {
	Shared, Rebuilt int64
}

// SnapshotStats reads the snapshot counters.
func (e *Engine) SnapshotStats() SnapshotStats {
	return SnapshotStats{Shared: e.sharedSnaps.Load(), Rebuilt: e.rebuiltSnaps.Load()}
}

// Membership returns a partition with the engine's current membership: the
// latest snapshot while no file has changed filecule since it was taken — its
// request counts may then be stale — and a fresh Snapshot otherwise. It is
// what readers of membership alone (cache advice, summaries, file lookups)
// should hold: between membership changes it costs two atomic loads however
// many jobs are re-requested in the meantime.
func (e *Engine) Membership() *Partition {
	if c := e.snapCache.Load(); c != nil && len(c.p.Filecules) == e.NumFilecules() {
		return c.p
	}
	return e.Snapshot()
}

// Lookup returns the filecule containing f exactly as Snapshot().FileculeOf(f)
// would report it, request count included, and a partition of the same
// membership to size it by; ok is false if f was never requested. While only
// request counts have moved since the last snapshot it reads the one count it
// needs instead of assembling a partition of all of them.
func (e *Engine) Lookup(f trace.FileID) (p *Partition, fc Filecule, ok bool) {
	p = e.Membership()
	i := p.Of(f)
	if i < 0 {
		return p, fc, false
	}
	fc = p.Filecules[i]
	if c := e.snapCache.Load(); c.p == p && c.version == e.version.Load() {
		return p, fc, true // p is the exact snapshot
	}
	e.snapMu.Lock()
	e.refresh()
	current := len(e.groups) == len(p.Filecules)
	if current {
		fc.Requests = e.groups[e.canonical()[i]].requests
	}
	e.snapMu.Unlock()
	if !current {
		// A file changed filecule underneath p; a covered file stays covered.
		p = e.Snapshot()
		fc = *p.FileculeOf(f)
	}
	return p, fc, true
}

// Version increments on every observe; snapshot caching keys off it.
func (e *Engine) Version() uint64 { return e.version.Load() }

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
			for _, bi := range cj.refs {
				e.blocks[bi].requests += n
				e.markDirty(bi)
			}
		}
		e.pendJobs[i] = nil
	}
	e.pendJobs = e.pendJobs[:0]
	e.pendMu.Unlock()
}

// markDirty queues block bi for the next refresh. Caller holds the gate's
// write side.
func (e *Engine) markDirty(bi int32) {
	if b := &e.blocks[bi]; !b.dirty {
		b.dirty = true
		e.dirty = append(e.dirty, bi)
	}
}

// addBlock appends nb as the block of the slots perm[nb.lo:nb.hi] and returns
// its index. Caller holds the gate's write side.
func (e *Engine) addBlock(nb eblock) int32 {
	bi := int32(len(e.blocks))
	for _, slot := range e.perm[nb.lo:nb.hi] {
		e.blockOf[slot] = bi
	}
	nb.dirty = true
	e.blocks = append(e.blocks, nb)
	e.dirty = append(e.dirty, bi)
	return bi
}

// observeSlow applies one non-empty job under the gate's write side and
// caches the blocks it resolved to for future fast-path hits.
func (e *Engine) observeSlow(files []trace.FileID, key sig128) {
	e.observed.Add(1)
	e.slowJobs.Add(1)
	e.version.Add(1)
	e.nextGen++
	g := e.nextGen
	touched := e.touched[:0]
	freshStart := int32(len(e.perm))
	for _, f := range files {
		c := e.slots.cell(f)
		v := *c
		if v == 0 {
			// First sighting ever: append a slot to the tail of perm; the
			// fresh tail becomes one new block below.
			slot := int32(len(e.file))
			*c = slot + 1
			e.file = append(e.file, f)
			e.pos = append(e.pos, slot)
			e.perm = append(e.perm, slot)
			e.blockOf = append(e.blockOf, -1)
			continue
		}
		slot := v - 1
		bi := e.blockOf[slot]
		if bi < 0 {
			continue // duplicate of a file first seen in this job
		}
		b := &e.blocks[bi]
		if b.gen != g {
			b.gen = g
			b.mark = b.lo
			touched = append(touched, bi)
		} else if e.pos[slot] < b.mark {
			continue // duplicate within this job: already moved
		}
		// Swap the slot into the moved prefix [lo, mark).
		p, q := e.pos[slot], b.mark
		other := e.perm[q]
		e.perm[q], e.perm[p] = slot, other
		e.pos[slot], e.pos[other] = q, p
		b.mark++
	}

	// touched becomes the blocks the job's input set is now the union of: a
	// wholly requested block stays, a split block gives way to its moved half.
	split := false
	for i, bi := range touched {
		e.markDirty(bi)
		b := &e.blocks[bi]
		if b.mark == b.hi {
			b.requests++
			continue
		}
		// Split: the moved prefix perm[lo:mark] leaves b as a new block with
		// one extra request; b keeps its identity and count.
		nb := eblock{lo: b.lo, hi: b.mark, requests: b.requests + 1, sig: b.sig.addJob(g)}
		b.lo = b.mark
		touched[i] = e.addBlock(nb) // b may dangle from here on
		split = true
	}
	if n := int32(len(e.perm)); n > freshStart {
		touched = append(touched, e.addBlock(eblock{lo: freshStart, hi: n, requests: 1, sig: sigOf(g)}))
	}
	e.nblocks.Store(int64(len(e.blocks)))
	if split {
		// Some block's membership changed: every cached ref set may now
		// straddle filecules, so invalidate them all.
		e.splitEpoch.Add(1)
	}
	e.fillCache(key, touched)
	e.touched = touched[:0]
}

// fillCache records the blocks this observe resolved to, keyed by the job's
// input multiset. Caller holds the gate's write side; the epoch is read
// after any split bump, so the entry is born valid: at this instant the
// job's input set is exactly the union of the ref'd blocks, which holds until
// one of them splits — so a later hit is a whole re-request of complete
// filecules: pure requests++.
//
// An insert that finds the cache at twice what the last sweep left (or at the
// cap) sweeps first, unless no split has happened since that sweep — then
// every entry is live and there is nothing to reclaim. Each sweep therefore
// follows at least as many inserts as the entries it walks: O(1) amortised.
func (e *Engine) fillCache(key sig128, refs []int32) {
	epoch := e.splitEpoch.Load()
	if e.cacheSize.Load() >= min(e.sweepAt, e.cacheCap) && epoch != e.sweptEpoch {
		e.sweepCache(epoch)
	}
	if e.cacheSize.Load() >= e.cacheCap {
		return
	}
	cj := &cachedJob{epoch: epoch, refs: slices.Clone(refs)}
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

// refresh folds everything observed so far into the snapshot side and
// returns the engine counters that state corresponds to. Caller holds snapMu.
// Member lists are immutable once built (a split block gets a fresh one), so
// partitions and exports handed out earlier may keep theirs.
func (e *Engine) refresh() (version uint64, observed int64, nextGen uint64) {
	// Every observe advances version, so an unchanged version is an
	// unchanged engine: a settled service's reads stay off the gate.
	if at := &e.refreshed; at.valid && at.version == e.version.Load() {
		return at.version, at.observed, at.nextGen
	}
	// Drain in-flight observes; none can start until the gate drops.
	e.gate.Lock()
	defer e.gate.Unlock()
	version, observed, nextGen = e.version.Load(), e.observed.Load(), e.nextGen
	e.flushPending()
	for bi := len(e.groups); bi < len(e.blocks); bi++ {
		e.groups = append(e.groups, snapGroup{sig: e.blocks[bi].sig})
	}
	for _, bi := range e.dirty {
		b, g := &e.blocks[bi], &e.groups[bi]
		b.dirty = false
		g.requests, g.stamp = b.requests, version
		// A block's membership changes only by losing files to a split, so
		// a list of the block's length is the block's list.
		if n := int(b.hi - b.lo); len(g.files) != n {
			files := make([]trace.FileID, n)
			for i, slot := range e.perm[b.lo:b.hi] {
				files[i] = e.file[slot]
			}
			slices.Sort(files)
			g.files = files
		}
	}
	e.dirty = e.dirty[:0]
	e.refreshed = refreshPoint{true, version, observed, nextGen}
	return version, observed, nextGen
}

// canonical returns the refreshed groups' block indexes ordered by smallest
// member file — position i is filecule ID i. Caller holds snapMu. The order
// can only move when a block is appended (a split may also change its
// remainder's smallest file), so it is recomputed only then.
func (e *Engine) canonical() []int32 {
	if len(e.order) == len(e.groups) {
		return e.order
	}
	// Groups are disjoint, so the smallest files are distinct and one sort of
	// (sign-flipped smallest file, block index) words is the order.
	keys := make([]uint64, len(e.groups))
	for bi := range e.groups {
		keys[bi] = uint64(uint32(e.groups[bi].files[0])^1<<31)<<32 | uint64(bi)
	}
	slices.Sort(keys)
	e.order = slices.Grow(e.order[:0], len(keys))
	for _, k := range keys {
		e.order = append(e.order, int32(uint32(k)))
	}
	return e.order
}

// Snapshot returns a consistent canonical Partition of everything observed
// so far. Unchanged state returns the identical *Partition (pointer
// comparison detects change). After observes that changed no membership the
// new partition shares the previous one's member lists, file index, size
// table and summary, and differs from it in request counts only.
func (e *Engine) Snapshot() *Partition {
	if c := e.snapCache.Load(); c != nil && c.version == e.version.Load() {
		return c.p
	}
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	prev := e.snapCache.Load()
	if prev != nil && prev.version == e.version.Load() {
		return prev.p
	}
	v, _, _ := e.refresh()
	order := e.canonical()
	var p *Partition
	if prev != nil && len(prev.p.Filecules) == len(order) {
		fcs := slices.Clone(prev.p.Filecules)
		for id, bi := range order {
			fcs[id].Requests = e.groups[bi].requests
		}
		p = &Partition{Filecules: fcs, shape: prev.p.shape}
		e.sharedSnaps.Add(1)
	} else {
		fcs := make([]Filecule, len(order))
		for id, bi := range order {
			g := &e.groups[bi]
			fcs[id] = Filecule{Files: g.files, Requests: g.requests}
		}
		p = newCanonicalPartition(fcs)
		e.rebuiltSnaps.Add(1)
	}
	e.snapCache.Store(&snapState{version: v, p: p})
	return p
}
