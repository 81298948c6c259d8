// Package replica implements the proactive data-replication strategies
// sketched in Section 6 of the paper. The question "What files to
// replicate?" is answered from a history window, per destination site,
// under a storage budget; strategies differ in their placement granularity:
//
//   - PopularFiles replicates individual files by popularity-per-byte, the
//     traditional single-file approach. It freely splits filecules at the
//     budget boundary, leaving partially-replicated groups.
//   - PopularFilecules replicates whole filecules by popularity-per-byte,
//     never leaving a group partially replicated ("membership to filecules
//     and the status of the filecule ... on the destination storage").
//
// Evaluate replays the future window through the grid substrate and
// compares WAN traffic, stalled jobs and stage latency.
package replica

import (
	"fmt"
	"sort"

	"filecule/internal/core"
	"filecule/internal/grid"
	"filecule/internal/trace"
)

// Strategy plans per-site replica placement from a history trace.
type Strategy interface {
	Name() string
	// Plan returns the files to pre-place at each site, within the given
	// per-site byte budget. The filecule partition was identified from
	// the same history window.
	Plan(history *trace.Trace, p *core.Partition, budget int64) map[trace.SiteID][]trace.FileID
}

// sitePopularity counts per-site file request counts in the history.
func sitePopularity(t *trace.Trace) map[trace.SiteID]map[trace.FileID]int {
	out := make(map[trace.SiteID]map[trace.FileID]int)
	for i := range t.Jobs {
		j := &t.Jobs[i]
		m := out[j.Site]
		if m == nil {
			m = make(map[trace.FileID]int)
			out[j.Site] = m
		}
		for _, f := range j.Files {
			m[f]++
		}
	}
	return out
}

// NoReplication is the baseline: nothing is pre-placed.
type NoReplication struct{}

// Name implements Strategy.
func (NoReplication) Name() string { return "none" }

// Plan implements Strategy.
func (NoReplication) Plan(*trace.Trace, *core.Partition, int64) map[trace.SiteID][]trace.FileID {
	return nil
}

// PopularFiles places individual files by per-site popularity per byte.
type PopularFiles struct{}

// Name implements Strategy.
func (PopularFiles) Name() string { return "popular-files" }

// Plan implements Strategy.
func (PopularFiles) Plan(h *trace.Trace, _ *core.Partition, budget int64) map[trace.SiteID][]trace.FileID {
	if budget <= 0 {
		panic(fmt.Sprintf("replica: budget %d must be > 0", budget))
	}
	plan := make(map[trace.SiteID][]trace.FileID)
	for site, pop := range sitePopularity(h) {
		files := make([]trace.FileID, 0, len(pop))
		for f := range pop {
			files = append(files, f)
		}
		// Rank by popularity per byte, descending; ties by file ID for
		// determinism.
		sort.Slice(files, func(a, b int) bool {
			fa, fb := files[a], files[b]
			va := float64(pop[fa]) / float64(h.Files[fa].Size)
			vb := float64(pop[fb]) / float64(h.Files[fb].Size)
			if va != vb {
				return va > vb
			}
			return fa < fb
		})
		var used int64
		var placed []trace.FileID
		for _, f := range files {
			sz := h.Files[f].Size
			if used+sz > budget {
				continue // skip and keep trying smaller files
			}
			used += sz
			placed = append(placed, f)
		}
		plan[site] = placed
	}
	return plan
}

// PopularFilecules places whole filecules by per-site popularity per byte.
type PopularFilecules struct{}

// Name implements Strategy.
func (PopularFilecules) Name() string { return "popular-filecules" }

// Plan implements Strategy.
func (PopularFilecules) Plan(h *trace.Trace, p *core.Partition, budget int64) map[trace.SiteID][]trace.FileID {
	if budget <= 0 {
		panic(fmt.Sprintf("replica: budget %d must be > 0", budget))
	}
	sizes := p.SizeTable(h)
	plan := make(map[trace.SiteID][]trace.FileID)
	for site, pop := range sitePopularity(h) {
		// Per-site filecule popularity: requests from this site for any
		// member (members share counts by the filecule property, so any
		// member's count is the group's).
		fcPop := make(map[int]int)
		for f, n := range pop {
			if fc := p.Of(f); fc >= 0 {
				if n > fcPop[fc] {
					fcPop[fc] = n
				}
			}
		}
		fcs := make([]int, 0, len(fcPop))
		for fc := range fcPop {
			fcs = append(fcs, fc)
		}
		sort.Slice(fcs, func(a, b int) bool {
			va := float64(fcPop[fcs[a]]) / float64(sizes[fcs[a]])
			vb := float64(fcPop[fcs[b]]) / float64(sizes[fcs[b]])
			if va != vb {
				return va > vb
			}
			return fcs[a] < fcs[b]
		})
		var used int64
		var placed []trace.FileID
		for _, fc := range fcs {
			if used+sizes[fc] > budget {
				continue
			}
			used += sizes[fc]
			placed = append(placed, p.Filecules[fc].Files...)
		}
		plan[site] = placed
	}
	return plan
}

// Outcome is one strategy's result over the evaluation window.
type Outcome struct {
	Strategy    string
	PlacedBytes int64
	Grid        grid.Metrics
}

// Evaluate plans placement with each strategy from the history window and
// its partition p, and replays the future window through a fresh grid with
// the same configuration for every strategy.
func Evaluate(history, future *trace.Trace, p *core.Partition, budget int64, gcfg grid.Config, strategies ...Strategy) ([]Outcome, error) {
	out := make([]Outcome, 0, len(strategies))
	for _, s := range strategies {
		sys, err := grid.New(future, gcfg)
		if err != nil {
			return nil, err
		}
		var placed int64
		for site, files := range s.Plan(history, p, budget) {
			sys.Warm(site, files)
			for _, f := range files {
				placed += history.Files[f].Size
			}
		}
		out = append(out, Outcome{
			Strategy:    s.Name(),
			PlacedBytes: placed,
			Grid:        sys.Replay(),
		})
	}
	return out, nil
}

// CompleteFilecules is the second-round strategy Section 6 motivates: when
// the destination already holds *partial* filecules (e.g. from an earlier
// file-granularity round), spend new budget completing them first — a
// partially replicated filecule still stalls every job that needs the
// group, so completion buys whole-group locality at the missing-bytes
// price. Remaining budget goes to whole unplaced filecules by popularity
// per byte.
type CompleteFilecules struct {
	// Existing is the current placement per site (files already placed).
	Existing map[trace.SiteID][]trace.FileID
}

// Name implements Strategy.
func (CompleteFilecules) Name() string { return "complete-filecules" }

// Plan implements Strategy: it returns only the *additional* files to
// place.
func (c CompleteFilecules) Plan(h *trace.Trace, p *core.Partition, budget int64) map[trace.SiteID][]trace.FileID {
	if budget <= 0 {
		panic(fmt.Sprintf("replica: budget %d must be > 0", budget))
	}
	plan := make(map[trace.SiteID][]trace.FileID)
	for site, pop := range sitePopularity(h) {
		have := make(map[trace.FileID]struct{})
		for _, f := range c.Existing[site] {
			have[f] = struct{}{}
		}
		// Partition candidate filecules into partial and absent.
		type cand struct {
			fc           int
			missingBytes int64
			requests     int
			partial      bool
		}
		fcSeen := make(map[int]*cand)
		for f, n := range pop {
			fc := p.Of(f)
			if fc < 0 {
				continue
			}
			cd := fcSeen[fc]
			if cd == nil {
				cd = &cand{fc: fc}
				fcSeen[fc] = cd
				for _, m := range p.Filecules[fc].Files {
					if _, ok := have[m]; ok {
						cd.partial = true
					} else {
						cd.missingBytes += h.Files[m].Size
					}
				}
			}
			if n > cd.requests {
				cd.requests = n
			}
		}
		cands := make([]*cand, 0, len(fcSeen))
		for _, cd := range fcSeen {
			if cd.missingBytes > 0 {
				cands = append(cands, cd)
			}
		}
		// Partials first, then by completion value per missing byte.
		sort.Slice(cands, func(a, b int) bool {
			ca, cb := cands[a], cands[b]
			if ca.partial != cb.partial {
				return ca.partial
			}
			va := float64(ca.requests) / float64(ca.missingBytes)
			vb := float64(cb.requests) / float64(cb.missingBytes)
			if va != vb {
				return va > vb
			}
			return ca.fc < cb.fc
		})
		var used int64
		var placed []trace.FileID
		for _, cd := range cands {
			if used+cd.missingBytes > budget {
				continue
			}
			used += cd.missingBytes
			for _, m := range p.Filecules[cd.fc].Files {
				if _, ok := have[m]; !ok {
					placed = append(placed, m)
				}
			}
		}
		plan[site] = placed
	}
	return plan
}
