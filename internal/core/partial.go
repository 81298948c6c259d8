package core

import (
	"sort"

	"filecule/internal/trace"
)

// This file implements the partial-knowledge analysis of Section 6: when
// filecule identification runs at a single site (seeing only that site's job
// submissions), the identified filecules "can only be larger than the
// filecules detected using global knowledge", and the more jobs a site
// submits the closer its view is to the truth.

// IdentifyDomain identifies filecules from only the jobs submitted by sites
// in the given domain.
func IdentifyDomain(t *trace.Trace, domain string) *Partition {
	var jobs []trace.JobID
	for i := range t.Jobs {
		if t.Sites[t.Jobs[i].Site].Domain == domain {
			jobs = append(jobs, t.Jobs[i].ID)
		}
	}
	return IdentifyJobs(t, jobs)
}

// Coarsens reports whether coarse is a coarsening of fine over the files
// coarse covers: every filecule of fine must lie entirely inside a single
// filecule of coarse, for the files both partitions cover. This is the
// paper's claim that partial knowledge can only merge true filecules, never
// split them.
func Coarsens(coarse, fine *Partition) bool {
	for i := range fine.Filecules {
		fc := &fine.Filecules[i]
		target := -2 // unset
		for _, f := range fc.Files {
			c := coarse.Of(f)
			if c < 0 {
				continue // coarse view never saw this file
			}
			if target == -2 {
				target = c
			} else if c != target {
				return false
			}
		}
	}
	return true
}

// CoarsenessStats quantifies how inflated a partial-knowledge partition is
// relative to the global one, the measurement behind Section 6's
// "larger filecules are identified when only a part of the jobs ... are
// considered".
type CoarsenessStats struct {
	// CoveredFiles is how many files the partial view saw at all.
	CoveredFiles int
	// Filecules is the number of filecules in the partial view.
	Filecules int
	// ExactFilecules counts partial filecules that exactly equal a
	// global filecule (correct identifications).
	ExactFilecules int
	// MeanInflation is the mean, over covered global filecules, of
	// (size of enclosing partial filecule) / (size of global filecule),
	// in file counts. 1.0 means perfect identification.
	MeanInflation float64
	// MaxInflation is the worst such ratio.
	MaxInflation float64
}

// CompareToGlobal measures partial against the global partition. It panics
// if partial does not coarsen global (which would indicate a bug: partial
// knowledge can never split a true filecule).
func CompareToGlobal(global, partial *Partition) CoarsenessStats {
	if !Coarsens(partial, global) {
		panic("core: partial partition splits a global filecule")
	}
	st := CoarsenessStats{
		CoveredFiles: partial.NumFiles(),
		Filecules:    partial.NumFilecules(),
	}
	// Count exact matches: a partial filecule equal to a global one.
	// Filecules are disjoint, so a partial filecule can only equal the
	// global filecule containing its first member — compare member lists
	// directly instead of building per-filecule string keys (which
	// allocated one key per filecule per call).
	for i := range partial.Filecules {
		pf := &partial.Filecules[i]
		if g := global.FileculeOf(pf.Files[0]); g != nil && sameFiles(g.Files, pf.Files) {
			st.ExactFilecules++
		}
	}
	// Inflation per covered global filecule.
	var sum float64
	n := 0
	for i := range global.Filecules {
		g := &global.Filecules[i]
		enclosing := -1
		covered := 0
		for _, f := range g.Files {
			if c := partial.Of(f); c >= 0 {
				enclosing = c
				covered++
			}
		}
		if enclosing < 0 {
			continue // partial view never saw this filecule
		}
		ratio := float64(partial.Filecules[enclosing].NumFiles()) / float64(covered)
		sum += ratio
		n++
		if ratio > st.MaxInflation {
			st.MaxInflation = ratio
		}
	}
	if n > 0 {
		st.MeanInflation = sum / float64(n)
	}
	return st
}

// sameFiles reports whether two sorted member lists are identical.
func sameFiles(a, b []trace.FileID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Combine computes the common refinement of two partitions: files grouped
// together only if both views group them together, with request counts
// summed. This models sites pooling their observations — more information
// can only refine the partition, bringing it closer to the global truth.
// Files covered by only one view keep that view's grouping.
func Combine(a, b *Partition) *Partition {
	type key struct{ ia, ib int }
	groups := make(map[key][]trace.FileID)
	reqs := make(map[key]int)
	seen := make(map[trace.FileID]struct{})

	add := func(f trace.FileID, ia, ib int, r int) {
		if _, dup := seen[f]; dup {
			return
		}
		seen[f] = struct{}{}
		k := key{ia, ib}
		groups[k] = append(groups[k], f)
		reqs[k] = r
	}

	for i := range a.Filecules {
		for _, f := range a.Filecules[i].Files {
			ib := b.Of(f)
			r := a.Filecules[i].Requests
			if ib >= 0 {
				r += b.Filecules[ib].Requests
			}
			add(f, i, ib, r)
		}
	}
	for i := range b.Filecules {
		for _, f := range b.Filecules[i].Files {
			if a.Of(f) < 0 {
				add(f, -1, i, b.Filecules[i].Requests)
			}
		}
	}

	fcs := make([]Filecule, 0, len(groups))
	for k, files := range groups {
		sort.Slice(files, func(x, y int) bool { return files[x] < files[y] })
		fcs = append(fcs, Filecule{Files: files, Requests: reqs[k]})
	}
	return NewPartition(fcs)
}
