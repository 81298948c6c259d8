package cache

import (
	"container/heap"
	"fmt"
)

// GreedyDual implements the GreedyDual-Size family (Cao & Irani) with the
// standard inflation-value formulation:
//
//	H(u) = L + freq(u)^f * cost(u) / size(u)
//
// where L is the global inflation value, set to the priority of each evicted
// unit. With f=0 and cost=1 this is classic GDS(1); with f=1 it is GDSF, and
// with f=1 and cost=size it is LFUDA. The sweep engine's dense gdsState
// evaluates priority's float64 expression operation for operation.
type GreedyDual struct {
	name     string
	cost     func(u UnitID, size int64) float64
	freqMode bool

	entries map[UnitID]*gdEntry
	pq      gdHeap
	l       float64
}

type gdEntry struct {
	unit  UnitID
	size  int64
	freq  int64
	h     float64
	index int // heap index, -1 when popped
}

// NewGDS returns GreedyDual-Size with uniform miss cost (cost = 1).
func NewGDS() *GreedyDual {
	return &GreedyDual{
		name: "gds",
		cost: func(UnitID, int64) float64 { return 1 },
	}
}

// NewGDSF returns GDS-Frequency: priorities scale with hit counts.
func NewGDSF() *GreedyDual {
	return &GreedyDual{
		name:     "gdsf",
		cost:     func(UnitID, int64) float64 { return 1 },
		freqMode: true,
	}
}

// NewLFUDA returns LFU with Dynamic Aging: priority L + freq, the classic
// web-cache policy that fixes LFU's cache pollution via the same inflation
// mechanism as GreedyDual.
func NewLFUDA() *GreedyDual {
	return &GreedyDual{
		name:     "lfuda",
		cost:     func(_ UnitID, size int64) float64 { return float64(size) },
		freqMode: true,
	}
}

// Name implements Policy.
func (p *GreedyDual) Name() string { return p.name }

func (p *GreedyDual) priority(e *gdEntry) float64 {
	c := p.cost(e.unit, e.size)
	if p.freqMode {
		c *= float64(e.freq)
	}
	return p.l + c/float64(e.size)
}

func (p *GreedyDual) ensureInit() {
	if p.entries == nil {
		p.entries = make(map[UnitID]*gdEntry)
	}
}

// Admit implements Policy.
func (p *GreedyDual) Admit(u UnitID, size, now int64) {
	p.ensureInit()
	if _, dup := p.entries[u]; dup {
		panic(fmt.Sprintf("cache: %s double admit of unit %d", p.name, u))
	}
	e := &gdEntry{unit: u, size: size, freq: 1}
	e.h = p.priority(e)
	p.entries[u] = e
	heap.Push(&p.pq, e)
}

// Touch implements Policy: refresh the unit's priority.
func (p *GreedyDual) Touch(u UnitID, now int64) {
	e := p.entries[u]
	e.freq++
	e.h = p.priority(e)
	heap.Fix(&p.pq, e.index)
}

// Victim implements Policy: the minimum-priority unit; L advances to its
// priority on removal.
func (p *GreedyDual) Victim() UnitID {
	if len(p.pq) == 0 {
		panic(fmt.Sprintf("cache: %s victim requested from empty cache", p.name))
	}
	return p.pq[0].unit
}

// Remove implements Policy.
func (p *GreedyDual) Remove(u UnitID) {
	e := p.entries[u]
	if e.index == 0 {
		// Evicting the current victim advances the inflation value:
		// this is the "aging" that lets newer units displace stale
		// high-priority ones.
		p.l = e.h
	}
	heap.Remove(&p.pq, e.index)
	delete(p.entries, u)
}

// Len implements Policy.
func (p *GreedyDual) Len() int { return len(p.entries) }

// gdHeap is a min-heap on priority h.
type gdHeap []*gdEntry

func (h gdHeap) Len() int            { return len(h) }
func (h gdHeap) Less(i, j int) bool  { return h[i].h < h[j].h }
func (h gdHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *gdHeap) Push(x interface{}) { e := x.(*gdEntry); e.index = len(*h); *h = append(*h, e) }
func (h *gdHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}
