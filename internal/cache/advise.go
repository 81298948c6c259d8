package cache

import (
	"cmp"
	"fmt"
	"slices"

	"filecule/internal/trace"
)

// This file implements stateless cache advice: given a remote cache's
// reported state and the files it is about to serve, compute which filecules
// to admit and which resident units to evict. It is the decision kernel
// behind the serving layer's /v1/cache/advise endpoint — the deployment
// Section 6 of the paper sketches, where a central identification service
// advises distributed site caches on filecule-granularity staging.
//
// Advise places each file with the same locate and fit as Sim, but leaves
// the state on the client: the server never tracks remote residency, so any
// number of caches can consult one service. Whenever the job's hit and
// loaded units fit the capacity, the plan is what a filecule-LRU Sim holding
// the reported residency does when it first touches the job's resident units
// and then serves the job's files in order: the same hits, loads (in order),
// bypasses and evictions (FuzzAdviseMatchesSim).

// ResidentUnit is one replacement unit a client cache reports as resident.
// LastAccess is the client's own logical or wall clock; Advise only
// compares values, so any monotone stamp works.
type ResidentUnit struct {
	Unit       UnitID `json:"unit"`
	LastAccess int64  `json:"lastAccess"`
}

// AdviceRequest describes a client cache and the files it must serve next.
type AdviceRequest struct {
	// Capacity is the client cache size in bytes. Must be positive.
	Capacity int64 `json:"capacityBytes"`
	// Files are the files about to be requested (a job's input set, or a
	// prefix of it). Duplicates are allowed and deduplicated.
	Files []trace.FileID `json:"files"`
	// Resident lists the units currently held by the client. Unit sizes
	// are not trusted from the client; they are recomputed from the
	// server's catalog.
	Resident []ResidentUnit `json:"resident"`
}

// LoadUnit is one unit the advice says to fetch.
type LoadUnit struct {
	Unit UnitID `json:"unit"`
	// Files are the unit's member files to stage (the whole filecule at
	// filecule granularity; just the requested file for degenerate
	// units).
	Files []trace.FileID `json:"files"`
	Bytes int64          `json:"bytes"`
}

// Advice is the admission/eviction plan for one AdviceRequest.
type Advice struct {
	// Hits are requested units already resident — touch them.
	Hits []UnitID `json:"hits,omitempty"`
	// Load are the units to fetch, in first-request order.
	Load []LoadUnit `json:"load,omitempty"`
	// Evict are the resident victims to discard before loading,
	// least-recently-used first.
	Evict []UnitID `json:"evict,omitempty"`
	// Bypassed lists requested files whose enclosing unit exceeds the
	// whole cache; the advice degrades to caching just the file, the
	// simulator's documented deviation.
	Bypassed []trace.FileID `json:"bypassed,omitempty"`
	// BytesToLoad and BytesToEvict total the plan's traffic.
	BytesToLoad  int64 `json:"bytesToLoad"`
	BytesToEvict int64 `json:"bytesToEvict"`
}

// ValidUnit reports whether u denotes an existing replacement unit.
func (g *FileculeGranularity) ValidUnit(u UnitID) bool {
	if u >= degenerateBase {
		f := u - degenerateBase
		return f >= 0 && int(f) < g.catalog.NumFiles()
	}
	return u >= 0 && int(u) < len(g.sizes)
}

// Advise computes the admission/eviction plan for req under granularity g.
// It never mutates state: the client applies (or ignores) the plan and
// reports its new residency on the next call.
//
// Advise allocates a fresh plan per call; loops that issue many advice
// requests (the binary wire protocol's per-connection handler) should hold a
// Planner instead, which reuses its scratch state and produces identical
// plans.
func Advise(g *FileculeGranularity, req AdviceRequest) (*Advice, error) {
	return NewPlanner(g).Advise(req)
}

// Planner computes admission/eviction plans under one granularity, reusing
// its scratch maps and result slices across calls: the steady-state advise
// path allocates nothing. The Advice returned by Advise (and every slice it
// carries) is valid only until the next call. Not safe for concurrent use;
// give each connection or goroutine its own Planner.
type Planner struct {
	g *FileculeGranularity

	resident map[UnitID]int64
	planned  map[UnitID]bool
	hit      map[UnitID]bool
	victims  []ResidentUnit
	// singles backs the one-file member lists of degenerate load units. It
	// is grown to its high-water mark before planning so appends never
	// reallocate out from under earlier slices.
	singles []trace.FileID
	adv     Advice
}

// NewPlanner returns a Planner over g.
func NewPlanner(g *FileculeGranularity) *Planner {
	return &Planner{g: g}
}

// Reset rebinds the planner to a new granularity (typically after the
// underlying partition snapshot changed), keeping its scratch allocations.
func (pl *Planner) Reset(g *FileculeGranularity) { pl.g = g }

// Granularity returns the granularity the planner is bound to, so callers
// caching a Planner can detect snapshot changes by identity.
func (pl *Planner) Granularity() *FileculeGranularity { return pl.g }

// Advise computes the admission/eviction plan for req. It is the single
// implementation behind the package-level Advise: a fresh Planner and a
// reused one produce identical plans for identical inputs.
func (pl *Planner) Advise(req AdviceRequest) (*Advice, error) {
	if req.Capacity <= 0 {
		return nil, fmt.Errorf("cache: advise capacity %d must be > 0", req.Capacity)
	}
	g := pl.g
	if pl.resident == nil {
		pl.resident = make(map[UnitID]int64, len(req.Resident))
		pl.planned = make(map[UnitID]bool, len(req.Files))
		pl.hit = make(map[UnitID]bool)
	} else {
		clear(pl.resident)
		clear(pl.planned)
		clear(pl.hit)
	}
	if cap(pl.singles) < len(req.Files) {
		pl.singles = make([]trace.FileID, 0, len(req.Files))
	}
	pl.singles = pl.singles[:0]
	adv := &pl.adv
	*adv = Advice{
		Hits:     adv.Hits[:0],
		Load:     adv.Load[:0],
		Evict:    adv.Evict[:0],
		Bypassed: adv.Bypassed[:0],
	}

	// Recompute resident sizes from the catalog; reject unknown units and
	// duplicates.
	resident := pl.resident
	var used int64
	for _, r := range req.Resident {
		if !g.ValidUnit(r.Unit) {
			return nil, fmt.Errorf("cache: advise: unknown resident unit %d", r.Unit)
		}
		if _, dup := resident[r.Unit]; dup {
			return nil, fmt.Errorf("cache: advise: duplicate resident unit %d", r.Unit)
		}
		sz := g.SizeOf(r.Unit)
		resident[r.Unit] = sz
		used += sz
	}

	planned, hit := pl.planned, pl.hit
	for _, f := range req.Files {
		if !g.ValidUnit(degenerate(f)) {
			return nil, fmt.Errorf("cache: advise: unknown file %d", f)
		}
		unit, held := locate(resident, g.UnitOf(f), f)
		if held {
			if !hit[unit] {
				hit[unit] = true
				adv.Hits = append(adv.Hits, unit)
			}
			continue
		}
		if planned[unit] {
			continue
		}
		load, size, bypass, fits := fit(g, unit, f, req.Capacity)
		if bypass {
			if planned[load] {
				continue
			}
			adv.Bypassed = append(adv.Bypassed, f)
		}
		if !fits {
			continue
		}
		planned[load] = true
		var files []trace.FileID
		if load < degenerateBase {
			files = g.part.Filecules[load].Files
		} else {
			pl.singles = append(pl.singles, f)
			files = pl.singles[len(pl.singles)-1 : len(pl.singles) : len(pl.singles)]
		}
		adv.Load = append(adv.Load, LoadUnit{Unit: load, Files: files, Bytes: size})
		adv.BytesToLoad += size
	}

	// Evict LRU victims until the plan fits, never evicting a unit the
	// plan just touched or loads. Ties on LastAccess break by unit ID for
	// determinism.
	if used+adv.BytesToLoad > req.Capacity {
		victims := pl.victims[:0]
		for _, r := range req.Resident {
			if hit[r.Unit] || planned[r.Unit] {
				continue
			}
			victims = append(victims, r)
		}
		pl.victims = victims
		slices.SortFunc(victims, func(a, b ResidentUnit) int {
			if c := cmp.Compare(a.LastAccess, b.LastAccess); c != 0 {
				return c
			}
			return cmp.Compare(a.Unit, b.Unit)
		})
		for _, v := range victims {
			if used+adv.BytesToLoad <= req.Capacity {
				break
			}
			adv.Evict = append(adv.Evict, v.Unit)
			sz := resident[v.Unit]
			adv.BytesToEvict += sz
			used -= sz
		}
	}
	return adv, nil
}
