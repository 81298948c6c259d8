// Package swarm answers the paper's Section 5 question: given the observed
// access patterns, would a BitTorrent-like swarming transfer pay off? It
// provides the access-interval analyses behind Figures 11 and 12 (the spans
// between first and last request of a filecule per site and per user) and a
// fluid-model swarm simulator that quantifies the download-time gain of
// peer-assisted transfer over client-server at the observed concurrency.
package swarm

import (
	"sort"
	"time"

	"filecule/internal/core"
	"filecule/internal/trace"
)

// Interval is the usage span of one entity (site or user): the window
// between its first and last request of a filecule, as plotted in Figures
// 11 and 12. The paper's optimistic assumption — that the entity holds the
// data for the whole window — is retained.
type Interval struct {
	Entity string
	First  time.Time
	Last   time.Time
	Jobs   int // requests by this entity in the window
}

// Duration returns the interval length.
func (iv Interval) Duration() time.Duration { return iv.Last.Sub(iv.First) }

// SiteIntervals computes every filecule's per-site access intervals
// (Figure 11): out[fc] holds one interval per site whose jobs requested
// filecule fc, labelled by the site's name and ordered by first access.
func SiteIntervals(t *trace.Trace, p *core.Partition) [][]Interval {
	return intervals(t, p, func(j *trace.Job) (int, string) {
		return int(j.Site), t.Sites[j.Site].Name
	})
}

// UserIntervals computes every filecule's per-user access intervals
// (Figure 12), indexed and ordered as SiteIntervals'.
func UserIntervals(t *trace.Trace, p *core.Partition) [][]Interval {
	return intervals(t, p, func(j *trace.Job) (int, string) {
		return int(j.User), t.Users[j.User].Name
	})
}

// intervals makes one pass over the jobs. A job counts once against each
// filecule it touches, under the entity key returns; an entity's interval
// is placed where the entity first appears in job order, and the stable
// sort by first access keeps that order among ties.
func intervals(t *trace.Trace, p *core.Partition, key func(*trace.Job) (int, string)) [][]Interval {
	type slot struct{ fc, entity int }
	out := make([][]Interval, p.NumFilecules())
	at := make(map[slot]int)                 // -> index into out[fc]
	counted := make([]int, p.NumFilecules()) // 1 + the last job counted against each filecule
	for i := range t.Jobs {
		j := &t.Jobs[i]
		entity, name := key(j)
		for _, f := range j.Files {
			fc := p.Of(f)
			if fc < 0 || counted[fc] == i+1 {
				continue
			}
			counted[fc] = i + 1
			k, ok := at[slot{fc, entity}]
			if !ok {
				at[slot{fc, entity}] = len(out[fc])
				out[fc] = append(out[fc], Interval{Entity: name, First: j.Start, Last: j.End, Jobs: 1})
				continue
			}
			iv := &out[fc][k]
			iv.Jobs++
			if j.Start.Before(iv.First) {
				iv.First = j.Start
			}
			if j.End.After(iv.Last) {
				iv.Last = j.End
			}
		}
	}
	for _, ivs := range out {
		sort.SliceStable(ivs, func(a, b int) bool { return ivs[a].First.Before(ivs[b].First) })
	}
	return out
}

// HottestFilecule returns the filecule with the most distinct users —
// the paper's selection criterion for the Section 5 case study ("we focus
// on a small set of filecules with larger numbers of users"). Ties break
// toward more requests. It panics on an empty partition.
func HottestFilecule(t *trace.Trace, p *core.Partition) int {
	if p.NumFilecules() == 0 {
		panic("swarm: empty partition")
	}
	users := core.UsersPerFilecule(t, p)
	best := 0
	for i := 1; i < len(users); i++ {
		if users[i] > users[best] ||
			(users[i] == users[best] && p.Filecules[i].Requests > p.Filecules[best].Requests) {
			best = i
		}
	}
	return best
}

// Concurrency describes how many entities hold (optimistically) the data at
// once.
type Concurrency struct {
	Max  int
	Mean float64 // time-averaged over the union of intervals
}

// MeasureConcurrency sweeps the intervals and reports the maximum and
// time-averaged number of simultaneously active entities. An interval holds
// from its First up to its Last, so touching intervals do not overlap; a
// zero-length one holds at its one instant, beside every interval open
// there.
func MeasureConcurrency(ivs []Interval) Concurrency {
	if len(ivs) == 0 {
		return Concurrency{}
	}
	type edge struct {
		at    time.Time
		delta int // +1 opens, -1 closes, 0 is a zero-length interval
	}
	var edges []edge
	for _, iv := range ivs {
		if iv.Last.Equal(iv.First) {
			edges = append(edges, edge{iv.First, 0})
			continue
		}
		edges = append(edges, edge{iv.First, +1}, edge{iv.Last, -1})
	}
	sort.Slice(edges, func(a, b int) bool { return edges[a].at.Before(edges[b].at) })
	var c Concurrency
	active := 0
	var weighted float64
	var total time.Duration
	last := edges[0].at
	for i := 0; i < len(edges); {
		at := edges[i].at
		if span := at.Sub(last); active > 0 {
			weighted += float64(active) * span.Seconds()
			total += span
		}
		last = at
		// Every edge at one instant applies before the count is read, so a
		// close and an open there net out and the count never goes negative.
		points := 0
		for ; i < len(edges) && edges[i].at.Equal(at); i++ {
			if edges[i].delta == 0 {
				points++
			}
			active += edges[i].delta
		}
		c.Max = max(c.Max, active+points)
	}
	if total > 0 {
		c.Mean = weighted / total.Seconds()
	}
	return c
}
