package cache

import (
	"container/heap"
	"fmt"

	"filecule/internal/trace"
)

// Never is the next-use index assigned to requests whose unit is never
// requested again (far beyond any valid request index).
const Never = int64(1) << 62

// NextUse returns, for each request index i, the index of the next request
// mapping to the same replacement unit under g, or Never. It is the offline
// pre-pass behind Belady's OPT; computing it once and sharing it across all
// cache capacities of a granularity is one of the sweep engine's savings.
func NextUse(g Granularity, reqs []trace.Request) []int64 {
	next := make([]int64, len(reqs))
	lastSeen := make(map[UnitID]int64, 1024)
	for i := len(reqs) - 1; i >= 0; i-- {
		u := g.UnitOf(reqs[i].File)
		if j, ok := lastSeen[u]; ok {
			next[i] = j
		} else {
			next[i] = Never
		}
		lastSeen[u] = int64(i)
	}
	return next
}

// OPTPolicy is Belady's offline-optimal replacement expressed as a Policy,
// so that OPT cells compose with Sim, with granularities, and with the
// BundlePolicy wrapper exactly like the online policies. It requires the
// per-request next-use chain (NextUse over the units it ranks: a
// BundlePolicy base ranks the filecule granularity's) computed over the same
// request stream the simulator replays, and it relies on the Sim contract
// that Admit/Touch are called with now = the current request index.
//
// Driven through Sim at file or filecule granularity it reproduces the
// independently coded SimulateOPT oracle exactly (see
// TestOPTPolicyMatchesSimulateOPT).
type OPTPolicy struct {
	next    []int64
	entries map[UnitID]*optEntry
	pq      optHeap
}

// NewOPTPolicy builds the policy over a next-use chain.
func NewOPTPolicy(next []int64) *OPTPolicy {
	return &OPTPolicy{next: next, entries: make(map[UnitID]*optEntry)}
}

// Name implements Policy.
func (p *OPTPolicy) Name() string { return "opt" }

// Admit implements Policy.
func (p *OPTPolicy) Admit(u UnitID, size, now int64) {
	if _, dup := p.entries[u]; dup {
		panic(fmt.Sprintf("cache: opt double admit of unit %d", u))
	}
	e := &optEntry{unit: u, size: size, next: p.next[now]}
	p.entries[u] = e
	heap.Push(&p.pq, e)
}

// Touch implements Policy: the unit's priority becomes its next use after
// the current request.
func (p *OPTPolicy) Touch(u UnitID, now int64) {
	e := p.entries[u]
	e.next = p.next[now]
	heap.Fix(&p.pq, e.index)
}

// Victim implements Policy: the resident unit used farthest in the future.
func (p *OPTPolicy) Victim() UnitID {
	if len(p.pq) == 0 {
		panic("cache: opt victim requested from empty cache")
	}
	return p.pq[0].unit
}

// Remove implements Policy.
func (p *OPTPolicy) Remove(u UnitID) {
	e := p.entries[u]
	heap.Remove(&p.pq, e.index)
	delete(p.entries, u)
}

type optEntry struct {
	unit  UnitID
	size  int64
	next  int64
	index int
}

// optHeap is a max-heap on next use: the farthest-future unit is the root.
type optHeap []*optEntry

func (h optHeap) Len() int            { return len(h) }
func (h optHeap) Less(i, j int) bool  { return h[i].next > h[j].next }
func (h optHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *optHeap) Push(x interface{}) { e := x.(*optEntry); e.index = len(*h); *h = append(*h, e) }
func (h *optHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}
