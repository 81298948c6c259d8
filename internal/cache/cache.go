// Package cache is a trace-driven storage-cache simulator. It reproduces
// the paper's Section 4 experiment — LRU replacement at file granularity vs
// filecule granularity over cache sizes from 1 TB to 100 TB — and the
// policies the ablation compares it with (ARC, GreedyDual-Size, GDSF, LFUDA,
// bundle-aware eviction over any of them, and offline Belady OPT as the
// lower bound). It is the reference the single-pass sweep engine
// (internal/sim) is held to cell for cell, and the stepping simulator the
// prefetcher and grid experiments drive one access at a time.
//
// The simulator operates on replacement units. A granularity maps each
// requested file to its unit: at file granularity the unit is the file; at
// filecule granularity it is the whole filecule, so a miss loads every
// member file and eviction discards whole filecules, exactly the semantics
// of the paper ("we load the entire filecule of which a requested file is
// member and evict the least recently used filecules to make room for it").
//
// A unit larger than the entire cache cannot be loaded; the simulator then
// caches just the requested file as a degenerate unit (documented deviation;
// see DESIGN.md).
package cache

import (
	"fmt"

	"filecule/internal/trace"
)

// UnitID identifies a replacement unit. Degenerate single-file units (for
// oversized filecules) are encoded above degenerateBase.
type UnitID int64

const degenerateBase UnitID = 1 << 32

// degenerate returns the degenerate unit for a single file.
func degenerate(f trace.FileID) UnitID { return degenerateBase + UnitID(f) }

// Granularity maps files to replacement units.
type Granularity interface {
	// Name labels result rows ("file", "filecule").
	Name() string
	// UnitOf returns the replacement unit for a file.
	UnitOf(f trace.FileID) UnitID
	// SizeOf returns a unit's total byte size.
	SizeOf(u UnitID) int64
}

// Metrics accumulates cache performance counters over a replay.
type Metrics struct {
	Requests int64 // file requests replayed
	Hits     int64 // requests whose file was resident
	Misses   int64 // requests whose file was absent

	BytesRequested int64 // sum of requested file sizes
	BytesMissed    int64 // requested file bytes not resident at request time
	BytesLoaded    int64 // bytes fetched into the cache (includes prefetch)

	Evictions    int64 // units discarded
	BytesEvicted int64
	Bypasses     int64 // misses where the unit exceeded the cache and only the file was cached

	PrefetchLoads int64 // units loaded speculatively by a Prefetcher
	PrefetchBytes int64 // bytes loaded speculatively
}

// MissRate returns Misses/Requests — the paper's Figure 10 metric.
func (m Metrics) MissRate() float64 {
	if m.Requests == 0 {
		return 0
	}
	return float64(m.Misses) / float64(m.Requests)
}

// ByteMissRate returns BytesMissed/BytesRequested.
func (m Metrics) ByteMissRate() float64 {
	if m.BytesRequested == 0 {
		return 0
	}
	return float64(m.BytesMissed) / float64(m.BytesRequested)
}

// Prefetcher predicts related files worth loading alongside a request —
// the interface behind the Related Work baselines (successor groups,
// probability graphs, working sets) and filecule prefetching. Suggest is
// consulted before Record so predictions use only past accesses.
type Prefetcher interface {
	Name() string
	// Suggest returns files worth prefetching given that job j is about
	// to read f.
	Suggest(j trace.JobID, f trace.FileID) []trace.FileID
	// Record observes the access after Suggest.
	Record(j trace.JobID, f trace.FileID)
}

// Policy decides which resident unit to evict next. The simulator calls the
// methods with a logical clock (the request index). Implementations track
// only resident units: Admit inserts, Remove deletes, Touch signals a hit,
// and Victim picks the unit to evict (without removing it).
type Policy interface {
	Name() string
	Admit(u UnitID, size int64, now int64)
	Touch(u UnitID, now int64)
	Victim() UnitID
	Remove(u UnitID)
	// Len returns the number of tracked units (for invariant checks).
	Len() int
}

// Sim replays a request stream against one policy and one granularity.
type Sim struct {
	capacity int64
	used     int64
	gran     Granularity
	policy   Policy
	catalog  []trace.File
	resident map[UnitID]int64 // unit -> size
	metrics  Metrics
	// prefetcher, when set, is consulted on every access.
	prefetcher Prefetcher
}

// NewSim builds a simulator. Capacity must be positive.
func NewSim(t *trace.Trace, g Granularity, p Policy, capacity int64) *Sim {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: capacity %d must be > 0", capacity))
	}
	return &Sim{
		capacity: capacity,
		gran:     g,
		policy:   p,
		catalog:  t.Files,
		resident: make(map[UnitID]int64),
	}
}

// Used returns the currently resident bytes.
func (s *Sim) Used() int64 { return s.used }

// Metrics returns the counters accumulated so far.
func (s *Sim) Metrics() Metrics { return s.metrics }

// SetPrefetcher attaches a prefetcher consulted on every access.
func (s *Sim) SetPrefetcher(p Prefetcher) { s.prefetcher = p }

// Replay processes the requests in order and returns the final metrics.
func (s *Sim) Replay(reqs []trace.Request) Metrics {
	for i, r := range reqs {
		s.AccessJob(r.Job, r.File, int64(i))
	}
	return s.metrics
}

// Access processes a single file request at logical time now, with no job
// attribution (prefetchers that track per-job streams see job -1).
func (s *Sim) Access(f trace.FileID, now int64) { s.AccessJob(-1, f, now) }

// AccessJob processes a single file request issued by job j at logical time
// now.
func (s *Sim) AccessJob(j trace.JobID, f trace.FileID, now int64) {
	var suggested []trace.FileID
	if s.prefetcher != nil {
		suggested = s.prefetcher.Suggest(j, f)
		s.prefetcher.Record(j, f)
	}
	s.serve(f, now)
	for _, g := range suggested {
		if g != f {
			s.prefetch(g, now)
		}
	}
}

// serve handles the demand access itself.
func (s *Sim) serve(f trace.FileID, now int64) {
	fileSize := s.catalog[f].Size
	s.metrics.Requests++
	s.metrics.BytesRequested += fileSize

	unit := s.gran.UnitOf(f)
	if _, ok := s.resident[unit]; ok {
		s.policy.Touch(unit, now)
		s.metrics.Hits++
		return
	}
	// The file may be resident as a degenerate unit from an earlier
	// bypass.
	if _, ok := s.resident[degenerate(f)]; ok {
		s.policy.Touch(degenerate(f), now)
		s.metrics.Hits++
		return
	}

	s.metrics.Misses++
	s.metrics.BytesMissed += fileSize

	size := s.gran.SizeOf(unit)
	if size > s.capacity {
		// Whole unit cannot fit; cache just the requested file.
		s.metrics.Bypasses++
		unit = degenerate(f)
		size = fileSize
		if size > s.capacity {
			return // pathological: single file larger than the cache
		}
	}
	s.load(unit, size, now)
	s.metrics.BytesLoaded += size
}

// prefetch speculatively loads the unit containing g, charging the
// prefetch counters instead of the demand-miss ones. Oversized units are
// skipped (speculation never bypasses).
func (s *Sim) prefetch(g trace.FileID, now int64) {
	unit := s.gran.UnitOf(g)
	if _, ok := s.resident[unit]; ok {
		return
	}
	if _, ok := s.resident[degenerate(g)]; ok {
		return
	}
	size := s.gran.SizeOf(unit)
	if size > s.capacity {
		return
	}
	s.load(unit, size, now)
	s.metrics.PrefetchLoads++
	s.metrics.PrefetchBytes += size
	s.metrics.BytesLoaded += size
}

// load evicts until size fits, counting the evictions, then admits unit.
func (s *Sim) load(unit UnitID, size, now int64) {
	n, bytes := s.evictFor(size)
	s.metrics.Evictions += n
	s.metrics.BytesEvicted += bytes
	s.resident[unit] = size
	s.used += size
	s.policy.Admit(unit, size, now)
}

// evictFor frees space until size fits and returns the units and bytes it
// discarded.
func (s *Sim) evictFor(size int64) (units, bytes int64) {
	for s.used+size > s.capacity {
		v := s.policy.Victim()
		vsize, ok := s.resident[v]
		if !ok {
			panic(fmt.Sprintf("cache: policy chose non-resident victim %d", v))
		}
		s.policy.Remove(v)
		delete(s.resident, v)
		s.used -= vsize
		units++
		bytes += vsize
	}
	return units, bytes
}

// Preload inserts the unit containing f (evicting as needed) without
// touching the metrics. It models cache warming and replica placement. The
// logical time stamps the unit's recency for the policy.
func (s *Sim) Preload(f trace.FileID, now int64) {
	unit := s.gran.UnitOf(f)
	if _, ok := s.resident[unit]; ok {
		s.policy.Touch(unit, now)
		return
	}
	if _, ok := s.resident[degenerate(f)]; ok {
		s.policy.Touch(degenerate(f), now)
		return
	}
	size := s.gran.SizeOf(unit)
	if size > s.capacity {
		unit = degenerate(f)
		size = s.catalog[f].Size
		if size > s.capacity {
			return
		}
	}
	s.evictFor(size)
	s.resident[unit] = size
	s.used += size
	s.policy.Admit(unit, size, now)
}

// Contains reports whether file f would hit right now.
func (s *Sim) Contains(f trace.FileID) bool {
	if _, ok := s.resident[s.gran.UnitOf(f)]; ok {
		return true
	}
	_, ok := s.resident[degenerate(f)]
	return ok
}
