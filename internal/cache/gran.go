package cache

import (
	"filecule/internal/core"
	"filecule/internal/trace"
)

// FileGranularity treats every file as its own replacement unit — the
// traditional single-file data management the paper compares against.
type FileGranularity struct {
	files []trace.File
}

// NewFileGranularity builds the file-level granularity over a trace's
// catalog.
func NewFileGranularity(t *trace.Trace) *FileGranularity {
	return &FileGranularity{files: t.Files}
}

// UnitOf implements Granularity: the unit is the file itself.
func (g *FileGranularity) UnitOf(f trace.FileID) UnitID { return UnitID(f) }

// SizeOf implements Granularity.
func (g *FileGranularity) SizeOf(u UnitID) int64 {
	if u >= degenerateBase {
		u -= degenerateBase
	}
	return g.files[u].Size
}

// FileculeGranularity maps each file to its filecule: a miss loads the whole
// filecule and eviction discards whole filecules.
type FileculeGranularity struct {
	catalog trace.Catalog
	part    *core.Partition
	sizes   []int64 // per filecule
}

// NewFileculeGranularity builds the filecule-level granularity from an
// identified partition, weighing files by catalog c, which it keeps rather
// than copies. Files outside the partition (never requested in the
// identification trace) fall back to degenerate single-file units.
func NewFileculeGranularity(c trace.Catalog, p *core.Partition) *FileculeGranularity {
	return &FileculeGranularity{catalog: c, part: p, sizes: p.SizeTable(c)}
}

// UnitOf implements Granularity: the enclosing filecule, or a degenerate
// unit for files the partition does not cover.
func (g *FileculeGranularity) UnitOf(f trace.FileID) UnitID {
	if i := g.part.Of(f); i >= 0 {
		return UnitID(i)
	}
	return degenerate(f)
}

// SizeOf implements Granularity.
func (g *FileculeGranularity) SizeOf(u UnitID) int64 {
	if u >= degenerateBase {
		return g.catalog.FileSize(trace.FileID(u - degenerateBase))
	}
	return g.sizes[u]
}

// Partition exposes the underlying filecule partition.
func (g *FileculeGranularity) Partition() *core.Partition { return g.part }
