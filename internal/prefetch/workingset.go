package prefetch

import (
	"filecule/internal/trace"
)

// WorkingSet implements a Tait & Duchamp-style working-set predictor: it
// stores the input sequences of previously observed jobs ("working trees")
// and, for each active job, matches the accesses seen so far against the
// store. Prefetching is deferred until the prefix matches exactly one
// stored sequence; the remainder of that sequence is then prefetched in one
// burst. Sequences are learned online as jobs complete (detected lazily
// when a new access for the job arrives after Flush, or via Train on a
// history trace).
type WorkingSet struct {
	// MaxStored bounds the sequence store (oldest evicted first);
	// 0 means unlimited.
	MaxStored int

	sequences [][]trace.FileID
	// byFirst indexes stored sequences by their first file.
	byFirst map[trace.FileID][]int

	active map[trace.JobID]*wsJob
}

type wsJob struct {
	seen []trace.FileID
	// candidates are indices into sequences still matching the prefix;
	// nil before the first access.
	candidates []int
	fired      bool
}

// NewWorkingSet returns an empty working-set predictor.
func NewWorkingSet() *WorkingSet {
	return &WorkingSet{
		byFirst: make(map[trace.FileID][]int),
		active:  make(map[trace.JobID]*wsJob),
	}
}

// Train stores every job input sequence of a history trace — the offline
// "working tree" construction of the original system.
func (p *WorkingSet) Train(t *trace.Trace) {
	for i := range t.Jobs {
		if len(t.Jobs[i].Files) > 0 {
			p.store(t.Jobs[i].Files)
		}
	}
}

func (p *WorkingSet) store(seq []trace.FileID) {
	if p.MaxStored > 0 && len(p.sequences) >= p.MaxStored {
		// Drop the oldest sequence; rebuild its first-file index entry.
		old := p.sequences[0]
		p.sequences = p.sequences[1:]
		idx := p.byFirst[old[0]]
		for k, si := range idx {
			if si == 0 {
				p.byFirst[old[0]] = append(idx[:k], idx[k+1:]...)
				break
			}
		}
		// Reindex: all stored indices shift down by one.
		for f, list := range p.byFirst {
			for k := range list {
				list[k]--
			}
			p.byFirst[f] = list
		}
	}
	cp := append([]trace.FileID(nil), seq...)
	p.sequences = append(p.sequences, cp)
	p.byFirst[cp[0]] = append(p.byFirst[cp[0]], len(p.sequences)-1)
}

// Suggest implements cache.Prefetcher: once the active job's prefix matches
// exactly one stored sequence (of length > prefix), return its remainder.
func (p *WorkingSet) Suggest(j trace.JobID, f trace.FileID) []trace.FileID {
	st := p.active[j]
	var candidates []int
	var matched int
	if st == nil || len(st.seen) == 0 {
		candidates = p.byFirst[f]
		matched = 0 // the current access will become position 0
	} else {
		if st.fired {
			return nil
		}
		matched = len(st.seen)
		for _, si := range st.candidates {
			seq := p.sequences[si]
			if matched < len(seq) && seq[matched] == f {
				candidates = append(candidates, si)
			}
		}
	}
	if len(candidates) == 1 && matched >= 1 {
		seq := p.sequences[candidates[0]]
		if matched+1 < len(seq) {
			if st != nil {
				st.fired = true
			}
			return append([]trace.FileID(nil), seq[matched+1:]...)
		}
	}
	return nil
}

// Record implements cache.Prefetcher: extend the job's prefix and filter
// the candidate set.
func (p *WorkingSet) Record(j trace.JobID, f trace.FileID) {
	st := p.active[j]
	if st == nil {
		st = &wsJob{candidates: p.byFirst[f]}
		p.active[j] = st
		st.seen = append(st.seen, f)
		return
	}
	matched := len(st.seen)
	var next []int
	for _, si := range st.candidates {
		seq := p.sequences[si]
		if matched < len(seq) && seq[matched] == f {
			next = append(next, si)
		}
	}
	st.candidates = next
	st.seen = append(st.seen, f)
}

// Flush finalizes a job: its observed sequence joins the store for future
// matching. Callers that replay a trace job-by-job should Flush after each
// job; the experiments' replay wrapper does this automatically.
func (p *WorkingSet) Flush(j trace.JobID) {
	st := p.active[j]
	if st == nil {
		return
	}
	delete(p.active, j)
	if len(st.seen) > 1 {
		p.store(st.seen)
	}
}

// NumStored returns the number of stored sequences.
func (p *WorkingSet) NumStored() int { return len(p.sequences) }
