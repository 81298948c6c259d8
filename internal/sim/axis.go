package sim

import (
	"math"

	"filecule/internal/core"
	"filecule/internal/trace"
)

// The sweep engine avoids interface dispatch and map lookups on its hot path
// by resolving each request once per *axis* (a granularity's unit space) into
// a dense, slot-indexed form shared by every cell on that axis.
//
// Slot spaces cover what the request stream can reach, not the catalog:
//
//	file axis:     [0,R) the R requested files; no degenerate slots
//	filecule axis: [0,K) filecules, then one degenerate slot per requested
//	               file that is uncovered or whose filecule is larger than
//	               the grid's smallest capacity
//	bundle keys:   [0,K) filecules, then one singleton per uncovered
//	               requested file
//
// A file's degenerate slot is unreachable on the file axis (a file too big
// for the cache is as big as its own degenerate unit, so cellCore.place never
// returns it) and for a filecule no cache is too small for; there the
// degenerate slot is the unit slot. Each range is in catalog order, so slot
// order is cache.UnitID order: real units sort below degenerate units and
// both sort by ID, and policies whose tie-breaking inspects unit order (ARC's
// ghost trimming) behave byte-identically to their cache-package
// counterparts.

// axisKind indexes the resolved streams carried by each batch. The bundle
// granularity shares the file axis stream (its replacement units are files);
// only its eviction keys differ.
type axisKind int

const (
	axisFile axisKind = iota
	axisFilecule
	numAxes
)

// never is the next-use index of a request whose slot is not requested again.
// Sweep refuses streams long enough for a request index to reach it.
const never = math.MaxInt32

// resolved is one request after unit resolution: the replacement-unit slot,
// the degenerate fallback slot, and the two sizes Sim.serve needs. 24 bytes,
// filled sequentially into pooled batch buffers.
type resolved struct {
	unit     int32
	deg      int32
	size     int64
	fileSize int64
}

// axisData is the static, read-only shape of one axis, shared by all cells
// and all workers. The catalog-indexed tables are only read for requested
// files; every per-cell array is sized by nSlots.
type axisData struct {
	nSlots   int32
	sizes    []int64 // byte size per slot, len nSlots
	fileSize []int64 // catalog file sizes, shared by both axes
	slotOf   []int32 // catalog file -> unit slot
	degOf    []int32 // catalog file -> degenerate slot (slotOf where unreachable)
}

// catalogSizes copies the catalog's file sizes into the flat table both axes
// resolve through.
func catalogSizes(t *trace.Trace) []int64 {
	sizes := make([]int64, len(t.Files))
	for i := range t.Files {
		sizes[i] = t.Files[i].Size
	}
	return sizes
}

// requestedFiles marks the catalog files the stream names and counts them.
func requestedFiles(nFiles int, files []trace.FileID) ([]bool, int) {
	requested := make([]bool, nFiles)
	n := 0
	for _, f := range files {
		if !requested[f] {
			requested[f] = true
			n++
		}
	}
	return requested, n
}

// newFileAxis builds the file-granularity axis: one slot per requested file.
func newFileAxis(fileSize []int64, requested []bool, nRequested int) *axisData {
	sizes := make([]int64, 0, nRequested)
	slot := make([]int32, len(fileSize))
	for f, req := range requested {
		slot[f] = -1
		if req {
			slot[f] = int32(len(sizes))
			sizes = append(sizes, fileSize[f])
		}
	}
	return &axisData{nSlots: int32(len(sizes)), sizes: sizes, fileSize: fileSize, slotOf: slot, degOf: slot}
}

// newFileculeAxis builds the filecule-granularity axis. A requested file the
// partition does not cover (never requested during identification) maps to
// its degenerate slot, exactly like cache.FileculeGranularity; a covered one
// gets a degenerate slot only if its filecule is larger than minCapacity, the
// smallest cache a cell on the axis simulates.
func newFileculeAxis(t *trace.Trace, p *core.Partition, fileSize []int64, requested []bool, minCapacity int64) *axisData {
	k := p.NumFilecules()
	sizes := make([]int64, k)
	for i := range sizes {
		sizes[i] = p.Size(t, i)
	}
	slot := make([]int32, len(fileSize))
	deg := make([]int32, len(fileSize))
	for f, req := range requested {
		fc := int32(p.Of(trace.FileID(f)))
		slot[f], deg[f] = fc, fc
		if !req {
			continue
		}
		if fc < 0 || sizes[fc] > minCapacity {
			deg[f] = int32(len(sizes))
			sizes = append(sizes, fileSize[f])
			if fc < 0 {
				slot[f] = deg[f]
			}
		}
	}
	return &axisData{nSlots: int32(len(sizes)), sizes: sizes, fileSize: fileSize, slotOf: slot, degOf: deg}
}

// resolve fills out with the axis view of chunk. out must have len(chunk).
func (a *axisData) resolve(chunk []trace.FileID, out []resolved) {
	for i, f := range chunk {
		u := a.slotOf[f]
		out[i] = resolved{unit: u, deg: a.degOf[f], size: a.sizes[u], fileSize: a.fileSize[f]}
	}
}

// nextUseBySlot computes the per-request next-use chain over an arbitrary
// per-file slot mapping (axis units, or bundle keys), densely. It orders
// requests exactly as cache.NextUse does over the axis's granularity (over
// the filecule granularity for bundle keys), with never in place of
// cache.Never, and is shared by every OPT cell of the axis — one backward
// pass instead of one per cell.
func nextUseBySlot(slotOf []int32, nSlots int32, files []trace.FileID) []int32 {
	next := make([]int32, len(files))
	last := make([]int32, nSlots)
	for i := range last {
		last[i] = never
	}
	for i := len(files) - 1; i >= 0; i-- {
		s := slotOf[files[i]]
		next[i] = last[s]
		last[s] = int32(i)
	}
	return next
}

// bundleKeys numbers the bundles — the K filecules, then one singleton per
// uncovered requested file in catalog order, as
// cache.FileculeGranularity.UnitOf orders them — and returns each requested
// file's bundle twice: indexed by catalog file (for next-use over the
// stream) and by file-axis slot (for the cells).
func bundleKeys(p *core.Partition, fileAx *axisData) (byFile, bySlot []int32, nBundles int32) {
	nBundles = int32(p.NumFilecules())
	byFile = make([]int32, len(fileAx.slotOf))
	bySlot = make([]int32, fileAx.nSlots)
	for f, s := range fileAx.slotOf {
		if s < 0 {
			byFile[f] = -1
			continue
		}
		key := int32(p.Of(trace.FileID(f)))
		if key < 0 {
			key = nBundles
			nBundles++
		}
		byFile[f], bySlot[s] = key, key
	}
	return byFile, bySlot, nBundles
}
