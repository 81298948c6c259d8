package core

import (
	"filecule/internal/trace"
)

// Characterization metrics over an identified partition: the quantities
// plotted in Figures 4–9 of the paper.

// FileculesPerJob returns, for each job, the number of distinct filecules
// its input set spans (Figure 5).
func FileculesPerJob(t *trace.Trace, p *Partition) []int {
	out := make([]int, len(t.Jobs))
	seen := make(map[int]struct{}, 16)
	for i := range t.Jobs {
		clear(seen)
		for _, f := range t.Jobs[i].Files {
			if fc := p.Of(f); fc >= 0 {
				seen[fc] = struct{}{}
			}
		}
		out[i] = len(seen)
	}
	return out
}

// UsersPerFilecule returns, for each filecule, the number of distinct users
// that requested it (Figure 4).
func UsersPerFilecule(t *trace.Trace, p *Partition) []int {
	users := make([]map[trace.UserID]struct{}, p.NumFilecules())
	for i := range t.Jobs {
		j := &t.Jobs[i]
		for _, f := range j.Files {
			fc := p.Of(f)
			if fc < 0 {
				continue
			}
			if users[fc] == nil {
				users[fc] = make(map[trace.UserID]struct{}, 4)
			}
			users[fc][j.User] = struct{}{}
		}
	}
	out := make([]int, len(users))
	for i, m := range users {
		out[i] = len(m)
	}
	return out
}

// SitesPerFilecule returns, for each filecule, the number of distinct sites
// whose jobs requested it (used by the Section 5 BitTorrent analysis).
func SitesPerFilecule(t *trace.Trace, p *Partition) []int {
	sites := make([]map[trace.SiteID]struct{}, p.NumFilecules())
	for i := range t.Jobs {
		j := &t.Jobs[i]
		for _, f := range j.Files {
			fc := p.Of(f)
			if fc < 0 {
				continue
			}
			if sites[fc] == nil {
				sites[fc] = make(map[trace.SiteID]struct{}, 2)
			}
			sites[fc][j.Site] = struct{}{}
		}
	}
	out := make([]int, len(sites))
	for i, m := range sites {
		out[i] = len(m)
	}
	return out
}

// SizesBytes returns each filecule's total size in bytes (Figure 6).
func SizesBytes(t *trace.Trace, p *Partition) []int64 {
	out := make([]int64, p.NumFilecules())
	for i := range p.Filecules {
		out[i] = p.Size(t, i)
	}
	return out
}

// RequestsPer returns each filecule's request count (Figures 8 and 9).
func RequestsPer(p *Partition) []int {
	out := make([]int, p.NumFilecules())
	for i := range p.Filecules {
		out[i] = p.Filecules[i].Requests
	}
	return out
}

// Tier returns the tier of filecule i: the tier of its member files, which
// agree in DZero because datasets are built within a tier. If members
// disagree (possible in arbitrary traces) the majority tier wins, ties
// broken by lower tier value.
func (p *Partition) Tier(t *trace.Trace, i int) trace.Tier {
	var counts [trace.NumTiers]int
	for _, f := range p.Filecules[i].Files {
		counts[t.Files[f].Tier]++
	}
	best := trace.Tier(0)
	for tier := trace.Tier(1); tier < trace.Tier(trace.NumTiers); tier++ {
		if counts[tier] > counts[best] {
			best = tier
		}
	}
	return best
}

// ByTier partitions filecule indices by tier.
func (p *Partition) ByTier(t *trace.Trace) map[trace.Tier][]int {
	out := make(map[trace.Tier][]int)
	for i := range p.Filecules {
		tier := p.Tier(t, i)
		out[tier] = append(out[tier], i)
	}
	return out
}

// CheckPopularityEquality verifies property 3 of the filecule definition
// against the raw trace: every file's request count must equal its
// filecule's request count. It returns the first violating file, or -1 if
// the property holds. Duplicate file entries within one job count once,
// matching the identification algorithms.
func CheckPopularityEquality(t *trace.Trace, p *Partition) trace.FileID {
	counts := make(map[trace.FileID]int, p.NumFiles())
	seen := make(map[trace.FileID]struct{}, 16)
	for i := range t.Jobs {
		clear(seen)
		for _, f := range t.Jobs[i].Files {
			if _, dup := seen[f]; dup {
				continue
			}
			seen[f] = struct{}{}
			counts[f]++
		}
	}
	for i := range p.Filecules {
		fc := &p.Filecules[i]
		for _, f := range fc.Files {
			if counts[f] != fc.Requests {
				return f
			}
		}
	}
	return -1
}
