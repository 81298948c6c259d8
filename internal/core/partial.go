package core

import "filecule/internal/trace"

// This file implements the partial-knowledge analysis of Section 6: when
// filecule identification runs at a single site (seeing only that site's job
// submissions), the identified filecules "can only be larger than the
// filecules detected using global knowledge", and the more jobs a site
// submits the closer its view is to the truth.

// IdentifyDomain identifies filecules from only the jobs submitted by sites
// in the given domain, by their positions in t.Jobs. A job whose Site lies
// outside t.Sites — every job of a trace without a site catalog — belongs to
// no domain.
func IdentifyDomain(t *trace.Trace, domain string) *Partition {
	var jobs []trace.JobID
	for i := range t.Jobs {
		if s := t.Jobs[i].Site; s >= 0 && int(s) < len(t.Sites) && t.Sites[s].Domain == domain {
			jobs = append(jobs, trace.JobID(i))
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
//
// One walk over both views' file indexes in ID order keys every covered file
// by its pair of filecules: groups are born in order of their smallest member
// and fill ascending, so the result is canonical with no sort.
func Combine(a, b *Partition) *Partition {
	xa, xb := a.index(), b.index()
	type key struct{ ia, ib int32 } // 1 + filecule in a and in b, 0 if none
	group := make(map[key]int32)
	var fcs []Filecule
	n := len(xa.top)
	for i := range n {
		t := (i + n/2) & (n - 1) // negative IDs first
		if xa.top[t] == nil && xb.top[t] == nil {
			continue
		}
		for d := range 1 << idxDirBits {
			pa, pb := xa.pageAt(t, d), xb.pageAt(t, d)
			if pa == &zeroPage && pb == &zeroPage {
				continue
			}
			base := trace.FileID(t<<(idxDirBits+idxPageBits) | d<<idxPageBits)
			for o := range pa {
				k := key{pa[o], pb[o]}
				if k == (key{}) {
					continue
				}
				g, ok := group[k]
				if !ok {
					g = int32(len(fcs))
					group[k] = g
					fcs = append(fcs, Filecule{Requests: requestsOf(a, k.ia) + requestsOf(b, k.ib)})
				}
				fcs[g].Files = append(fcs[g].Files, base+trace.FileID(o))
			}
		}
	}
	return newCanonicalPartition(fcs)
}

// requestsOf is the request count of filecule i-1 of p, 0 for i = 0.
func requestsOf(p *Partition, i int32) int {
	if i == 0 {
		return 0
	}
	return p.Filecules[i-1].Requests
}
