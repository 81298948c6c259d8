// Package prefetch implements the file-relationship predictors the paper
// surveys in Related Work (Section 7) as baselines for the filecule
// abstraction:
//
//   - Successor — per-file most-likely-successor chains, after Amer, Long
//     and Burns, "Group-based management of distributed file caches"
//     (ICDCS 2002).
//   - ProbGraph — files are related if accessed within a lookahead window,
//     after Griffioen and Appleton, "Reducing file system latency using a
//     predictive approach" (USENIX Summer 1994).
//   - WorkingSet — stored per-job access sequences matched by prefix;
//     prefetching is deferred until exactly one stored sequence matches,
//     after Tait and Duchamp, "Detection and exploitation of file working
//     sets" (ICDCS 1991).
//   - Filecules — prefetch the remainder of the enclosing filecule, the
//     paper's own abstraction expressed as a predictor (file-granularity
//     eviction, filecule-granularity fetch).
//
// All predictors train online from the access stream they observe (the
// WorkingSet additionally supports offline training from a history trace),
// and plug into cache.Sim via SetPrefetcher. The differences the paper
// highlights are directly visible here: successor and window groupings
// depend on intermediate accesses and access order, while filecules do not.
package prefetch

import (
	"cmp"
	"slices"

	"filecule/internal/core"
	"filecule/internal/trace"
)

// Successor predicts the most frequent successor of each file within a
// job's stream and prefetches a chain of them.
type Successor struct {
	// Depth is the successor-chain length to prefetch (default 1).
	Depth int
	// counts[f] tallies observed successors of f.
	counts map[trace.FileID]map[trace.FileID]int
	// best[f] caches the current argmax of counts[f].
	best      map[trace.FileID]trace.FileID
	lastByJob map[trace.JobID]trace.FileID
}

// NewSuccessor returns a successor predictor prefetching chains of depth.
func NewSuccessor(depth int) *Successor {
	if depth < 1 {
		depth = 1
	}
	return &Successor{
		Depth:     depth,
		counts:    make(map[trace.FileID]map[trace.FileID]int),
		best:      make(map[trace.FileID]trace.FileID),
		lastByJob: make(map[trace.JobID]trace.FileID),
	}
}

// Suggest implements cache.Prefetcher: follow the best-successor chain.
func (p *Successor) Suggest(_ trace.JobID, f trace.FileID) []trace.FileID {
	var out []trace.FileID
	seen := map[trace.FileID]struct{}{f: {}}
	cur := f
	for i := 0; i < p.Depth; i++ {
		next, ok := p.best[cur]
		if !ok {
			break
		}
		if _, dup := seen[next]; dup {
			break
		}
		seen[next] = struct{}{}
		out = append(out, next)
		cur = next
	}
	return out
}

// Record implements cache.Prefetcher: count f as the successor of the job's
// previous access.
func (p *Successor) Record(j trace.JobID, f trace.FileID) {
	if last, ok := p.lastByJob[j]; ok && last != f {
		m := p.counts[last]
		if m == nil {
			m = make(map[trace.FileID]int)
			p.counts[last] = m
		}
		m[f]++
		if cur, ok := p.best[last]; !ok || m[f] > m[cur] || (m[f] == m[cur] && f < cur) {
			p.best[last] = f
		}
	}
	p.lastByJob[j] = f
}

// ProbGraph relates files accessed within a lookahead window of each other
// and prefetches neighbors whose conditional access probability exceeds
// MinChance.
type ProbGraph struct {
	// Window is the lookahead distance in accesses (per job).
	Window int
	// MinChance is the minimum P(neighbor | f) to prefetch (default 0.3).
	MinChance float64
	// MaxSuggest bounds suggestions per access (default 4).
	MaxSuggest int

	edges  map[trace.FileID]map[trace.FileID]int
	visits map[trace.FileID]int
	recent map[trace.JobID][]trace.FileID
}

// NewProbGraph returns a probability-graph predictor.
func NewProbGraph(window int, minChance float64) *ProbGraph {
	if window < 1 {
		window = 2
	}
	if minChance <= 0 {
		minChance = 0.3
	}
	return &ProbGraph{
		Window:     window,
		MinChance:  minChance,
		MaxSuggest: 4,
		edges:      make(map[trace.FileID]map[trace.FileID]int),
		visits:     make(map[trace.FileID]int),
		recent:     make(map[trace.JobID][]trace.FileID),
	}
}

// Suggest implements cache.Prefetcher.
func (p *ProbGraph) Suggest(_ trace.JobID, f trace.FileID) []trace.FileID {
	n := p.visits[f]
	if n == 0 {
		return nil
	}
	edges := p.edges[f]
	var out []trace.FileID
	for g, c := range edges {
		if float64(c)/float64(n) >= p.MinChance {
			out = append(out, g)
		}
	}
	// Strongest edges first, ties by file ID: the order is what gets
	// prefetched (and in which order), so it may not follow map iteration.
	slices.SortFunc(out, func(a, b trace.FileID) int {
		if c := cmp.Compare(edges[b], edges[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	if len(out) > p.MaxSuggest {
		out = out[:p.MaxSuggest]
	}
	return out
}

// Record implements cache.Prefetcher: add one directional arc from every
// distinct file in the job's recent window to f — Griffioen & Appleton's
// probability-graph construction, where P(f | g) is estimated as
// count(g -> f) / visits(g).
func (p *ProbGraph) Record(j trace.JobID, f trace.FileID) {
	p.visits[f]++
	recent := p.recent[j]
	seen := make(map[trace.FileID]struct{}, len(recent))
	for _, g := range recent {
		if g == f {
			continue
		}
		if _, dup := seen[g]; dup {
			continue
		}
		seen[g] = struct{}{}
		p.addEdge(g, f)
	}
	recent = append(recent, f)
	if len(recent) > p.Window {
		recent = recent[len(recent)-p.Window:]
	}
	p.recent[j] = recent
}

func (p *ProbGraph) addEdge(from, to trace.FileID) {
	m := p.edges[from]
	if m == nil {
		m = make(map[trace.FileID]int)
		p.edges[from] = m
	}
	m[to]++
}

// Filecules prefetches the remaining members of the enclosing filecule — a
// perfect-knowledge predictor given an identified partition. Combined with
// file-granularity eviction it isolates the fetch-side half of the
// filecule-LRU design.
type Filecules struct {
	part *core.Partition
}

// NewFilecules returns the filecule predictor.
func NewFilecules(p *core.Partition) *Filecules {
	return &Filecules{part: p}
}

// Suggest implements cache.Prefetcher.
func (p *Filecules) Suggest(_ trace.JobID, f trace.FileID) []trace.FileID {
	fc := p.part.FileculeOf(f)
	if fc == nil {
		return nil
	}
	out := make([]trace.FileID, 0, len(fc.Files)-1)
	for _, g := range fc.Files {
		if g != f {
			out = append(out, g)
		}
	}
	return out
}

// Record implements cache.Prefetcher (the partition is static).
func (p *Filecules) Record(trace.JobID, trace.FileID) {}
