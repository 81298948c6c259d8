package core

import (
	"sort"

	"filecule/internal/trace"
)

// Refiner is the reference online identifier — pointer blocks and a map,
// the first implementation of the partition refinement Engine performs
// densely. It ships in no program; the differential, prefix and fuzz tests
// hold Engine to it after every observe.
//
// The algorithm maintains the current filecule partition. Each observed job
// with (deduplicated) input set S splits every overlapping block B into
// B∩S (whose files have now been seen together one more time) and B\S
// (which have not); files never seen before form one fresh block. After any
// prefix of the job stream the partition equals the batch identification
// over that prefix, which property tests verify.
//
// The amortized cost per request is O(1) map work plus block-splitting
// proportional to the files actually moved.
type Refiner struct {
	blocks  []*block
	byFile  map[trace.FileID]*block
	nextGen uint64
}

type block struct {
	files    []trace.FileID
	requests int
	// touched and gen implement per-job mark-and-split without an
	// auxiliary map: seeing the block during job g sets gen=g and counts
	// touched members.
	touched int
	gen     uint64
	moved   []trace.FileID
}

// NewRefiner returns an empty Refiner.
func NewRefiner() *Refiner {
	return &Refiner{byFile: make(map[trace.FileID]*block)}
}

// NumFilecules returns the current number of blocks.
func (r *Refiner) NumFilecules() int { return len(r.blocks) }

// Observe feeds one job's input set to the refiner. Duplicate file IDs
// within the set are ignored.
func (r *Refiner) Observe(files []trace.FileID) {
	if len(files) == 0 {
		return
	}
	r.nextGen++
	gen := r.nextGen

	var fresh []trace.FileID
	var touchedBlocks []*block
	for _, f := range files {
		b, ok := r.byFile[f]
		if !ok {
			// Not yet seen; mark via nil so duplicates in this job
			// don't create two entries.
			r.byFile[f] = nil
			fresh = append(fresh, f)
			continue
		}
		if b == nil {
			continue // duplicate of a fresh file within this job
		}
		if b.gen != gen {
			b.gen = gen
			b.touched = 0
			b.moved = b.moved[:0]
			touchedBlocks = append(touchedBlocks, b)
		} else if contains(b.moved, f) {
			continue // duplicate within this job
		}
		b.touched++
		b.moved = append(b.moved, f)
	}

	for _, b := range touchedBlocks {
		if b.touched == len(b.files) {
			// Whole block requested again: stays one filecule.
			b.requests++
			continue
		}
		// Split: moved files leave b and form a new block with one
		// extra request.
		nb := &block{
			files:    append([]trace.FileID(nil), b.moved...),
			requests: b.requests + 1,
		}
		for _, f := range nb.files {
			r.byFile[f] = nb
		}
		b.files = removeAll(b.files, nb.files)
		r.blocks = append(r.blocks, nb)
	}

	if len(fresh) > 0 {
		nb := &block{files: fresh, requests: 1}
		for _, f := range fresh {
			r.byFile[f] = nb
		}
		r.blocks = append(r.blocks, nb)
	}
}

// contains reports whether fs (small, per-job) contains f. The moved list is
// short in practice; linear scan avoids allocation.
func contains(fs []trace.FileID, f trace.FileID) bool {
	for _, x := range fs {
		if x == f {
			return true
		}
	}
	return false
}

// removeAll deletes every element of del from fs in place, preserving
// order, and returns the shortened slice. del elements are guaranteed to be
// present.
func removeAll(fs, del []trace.FileID) []trace.FileID {
	inDel := make(map[trace.FileID]struct{}, len(del))
	for _, f := range del {
		inDel[f] = struct{}{}
	}
	out := fs[:0]
	for _, f := range fs {
		if _, drop := inDel[f]; !drop {
			out = append(out, f)
		}
	}
	return out
}

// ObserveTrace feeds every job of t in ID order.
func (r *Refiner) ObserveTrace(t *trace.Trace) {
	for i := range t.Jobs {
		r.Observe(t.Jobs[i].Files)
	}
}

// Partition snapshots the current blocks as a canonical Partition. The
// refiner remains usable afterwards.
func (r *Refiner) Partition() *Partition {
	fcs := make([]Filecule, 0, len(r.blocks))
	for _, b := range r.blocks {
		files := append([]trace.FileID(nil), b.files...)
		sort.Slice(files, func(a, c int) bool { return files[a] < files[c] })
		fcs = append(fcs, Filecule{Files: files, Requests: b.requests})
	}
	return NewPartition(fcs)
}
