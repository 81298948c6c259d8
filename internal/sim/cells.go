package sim

import (
	"fmt"

	"filecule/internal/cache"
	"filecule/internal/trace"
)

// This file holds the dense grid-cell simulator: one cell type whose run
// loop replays the file-ID stream through an axis with the exact branch and
// counter order of cache.Sim.serve, and the policy states it drives through
// denseBase: LRU, ARC, GreedyDual (gds, gdsf, lfuda), OPT, and the bundle
// wrapper over any of them. A cell allocates nothing in steady state and
// makes one interface call per policy operation. The differential test
// (sweep_test.go) pins every cell to struct equality with the cache package.
//
// The heap-backed policies (GreedyDual, OPT) share one slotHeap, which
// replicates container/heap's up/down/Fix/Remove algorithms verbatim so its
// sift sequences — and hence later victim choices — match the reference
// implementations step for step.

// cellSpec identifies one grid cell.
type cellSpec struct {
	Policy      string
	Granularity string
	CacheTB     float64
	Capacity    int64
	axis        axisKind
}

// cell is one grid cell's simulator: the policy-independent cache state and
// the policy state that ranks its slots.
type cell struct {
	capacity int64
	used     int64
	resident []bool
	ax       *axisData
	st       denseBase
	m        cache.Metrics
}

func newCell(sp cellSpec, ax *axisData, st denseBase) *cell {
	return &cell{capacity: sp.Capacity, resident: make([]bool, ax.nSlots), ax: ax, st: st}
}

// place is the dense statement of the bypass rule (cache.Sim.serve holds the
// reference one): a missed request loads its whole unit, unless the unit is
// larger than the cache, in which case only the requested file is cached, as
// the degenerate slot. ok is false when even that file cannot fit. It must
// stay small enough to inline.
func (c *cell) place(unit, deg int32, fileSize int64) (slot int32, size int64, ok bool) {
	if size := c.ax.sizes[unit]; size <= c.capacity {
		return unit, size, true
	}
	c.m.Bypasses++
	return deg, fileSize, fileSize <= c.capacity
}

// run replays the whole stream in order; a request's index is its time.
func (c *cell) run(files []trace.FileID) {
	ax, m := c.ax, &c.m
	for i, f := range files {
		now := int64(i)
		unit, fileSize := ax.slotOf[f], ax.fileSize[f]
		m.Requests++
		m.BytesRequested += fileSize
		if c.resident[unit] {
			c.st.touch(unit, now)
			m.Hits++
			continue
		}
		// The file may be resident as a degenerate unit from an earlier
		// bypass. On the file axis deg == unit, so this never fires there.
		deg := ax.degOf[f]
		if deg != unit && c.resident[deg] {
			c.st.touch(deg, now)
			m.Hits++
			continue
		}
		m.Misses++
		m.BytesMissed += fileSize
		slot, size, ok := c.place(unit, deg, fileSize)
		if !ok {
			continue
		}
		for c.used+size > c.capacity {
			v := c.st.victim()
			vs := ax.sizes[v]
			c.st.remove(v)
			c.resident[v] = false
			c.used -= vs
			m.Evictions++
			m.BytesEvicted += vs
		}
		c.resident[slot] = true
		c.used += size
		c.st.admit(slot, size, now)
		m.BytesLoaded += size
	}
}

// denseBase is the slot-level policy contract, mirroring cache.Policy. Every
// dense policy state implements it.
type denseBase interface {
	admit(v int32, size, now int64)
	touch(v int32, now int64)
	victim() int32
	remove(v int32)
}

// ---------------------------------------------------------------- lists

// slotList holds intrusive doubly-linked lists over slots, MRU at the
// front. Each list is headed by a sentinel slot numbered above the member
// slots; an empty list's sentinel links to itself.
type slotList struct {
	prev, next []int32
}

// newSlotList makes room for nSlots members and heads at nSlots..n-1.
func newSlotList(nSlots, n int32) slotList {
	l := slotList{prev: make([]int32, n), next: make([]int32, n)}
	for h := nSlots; h < n; h++ {
		l.prev[h], l.next[h] = h, h
	}
	return l
}

func (l *slotList) pushFront(head, v int32) {
	h := l.next[head]
	l.prev[v], l.next[v] = head, h
	l.next[head], l.prev[h] = v, v
}

func (l *slotList) unlink(v int32) {
	p, n := l.prev[v], l.next[v]
	l.next[p], l.prev[n] = n, p
}

// back returns the list's least recently pushed member, or head when the
// list is empty.
func (l *slotList) back(head int32) int32 { return l.prev[head] }

// ---------------------------------------------------------------- LRU

// lruState is one slotList, headed at nSlots.
type lruState struct {
	slotList
	head int32
}

func newLRUState(nSlots int32) *lruState {
	return &lruState{slotList: newSlotList(nSlots, nSlots+1), head: nSlots}
}

func (s *lruState) admit(v int32, size, now int64) { s.pushFront(s.head, v) }
func (s *lruState) touch(v int32, now int64)       { s.unlink(v); s.pushFront(s.head, v) }
func (s *lruState) remove(v int32)                 { s.unlink(v) }

func (s *lruState) victim() int32 {
	v := s.back(s.head)
	if v == s.head {
		panic("sim: LRU victim requested from empty cache")
	}
	return v
}

// ---------------------------------------------------------------- ARC

// ARC's four lists. A slot is in at most one; arcState.in holds which.
const (
	arcNone uint8 = iota
	arcT1
	arcT2
	arcB1 // ghosts evicted from T1
	arcB2 // ghosts evicted from T2
)

// arcState is the dense byte-aware ARC: T1, T2 and the ghost lists B1, B2
// are four recency lists on one slotList (list l headed at nSlots+l-1), each
// with its byte and member totals. Ghosts are trimmed from the cold end of
// their list, as in cache.ARC.
type arcState struct {
	slotList
	nSlots   int32
	capacity int64
	in       []uint8
	size     []int64 // last admit size per slot; doubles as the ghost size
	bytes    [5]int64
	count    [5]int64
	p        int64
}

func newARCState(nSlots int32, capacity int64) *arcState {
	return &arcState{
		slotList: newSlotList(nSlots, nSlots+4),
		nSlots:   nSlots,
		capacity: capacity,
		in:       make([]uint8, nSlots),
		size:     make([]int64, nSlots),
	}
}

func (s *arcState) head(l uint8) int32 { return s.nSlots + int32(l) - 1 }

// move takes v out of its list, if any, and to the front of list to, unless
// to is arcNone.
func (s *arcState) move(v int32, to uint8) {
	if from := s.in[v]; from != arcNone {
		s.unlink(v)
		s.bytes[from] -= s.size[v]
		s.count[from]--
	}
	s.in[v] = to
	if to != arcNone {
		s.pushFront(s.head(to), v)
		s.bytes[to] += s.size[v]
		s.count[to]++
	}
}

func (s *arcState) admit(v int32, size, now int64) {
	to := arcT1
	switch s.in[v] {
	case arcB1: // recency ghost hit: grow p proportionally to the miss
		gs := s.size[v]
		s.move(v, arcNone)
		s.p = min(s.capacity, s.p+max(gs, s.bytes[arcB2]/max(1, s.count[arcB1]+1)))
		to = arcT2
	case arcB2:
		gs := s.size[v]
		s.move(v, arcNone)
		s.p = max(0, s.p-max(gs, s.bytes[arcB1]/max(1, s.count[arcB2]+1)))
		to = arcT2
	}
	s.size[v] = size
	s.move(v, to)
}

// touch promotes to (or refreshes in) T2.
func (s *arcState) touch(v int32, now int64) { s.move(v, arcT2) }

func (s *arcState) victim() int32 {
	l := arcT1
	if s.bytes[arcT1] <= s.p && s.count[arcT2] > 0 {
		l = arcT2
	}
	v := s.back(s.head(l))
	if v == s.head(l) {
		panic("sim: ARC victim requested from empty cache")
	}
	return v
}

// remove turns v into a ghost of the list it leaves (T1 to B1, T2 to B2) and
// trims both ghost lists to the capacity in bytes, least recently evicted
// first.
func (s *arcState) remove(v int32) {
	s.move(v, s.in[v]+2)
	for _, b := range [2]uint8{arcB1, arcB2} {
		for s.bytes[b] > s.capacity {
			s.move(s.back(s.head(b)), arcNone)
		}
	}
}

// ---------------------------------------------------------------- heaps

// slotHeap is an indexed binary min-heap of slots on a per-slot float64 key,
// with container/heap's exact algorithms (slot positions tracked in pos, -1
// when absent). GreedyDual keys a slot by its H value, OPT by its negated
// next use.
type slotHeap struct {
	key  []float64
	pos  []int32
	heap []int32
}

func newSlotHeap(nSlots int32) slotHeap {
	h := slotHeap{key: make([]float64, nSlots), pos: make([]int32, nSlots)}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

func (h *slotHeap) less(i, j int) bool { return h.key[h.heap[i]] < h.key[h.heap[j]] }

func (h *slotHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]], h.pos[h.heap[j]] = int32(i), int32(j)
}

func (h *slotHeap) up(j int) {
	for {
		i := (j - 1) / 2
		if i == j || !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

func (h *slotHeap) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}

func (h *slotHeap) push(v int32) {
	h.heap = append(h.heap, v)
	h.pos[v] = int32(len(h.heap) - 1)
	h.up(len(h.heap) - 1)
}

// fix restores the heap after slot v's key changed.
func (h *slotHeap) fix(v int32) {
	i := int(h.pos[v])
	if !h.down(i, len(h.heap)) {
		h.up(i)
	}
}

func (h *slotHeap) remove(v int32) {
	i, n := int(h.pos[v]), len(h.heap)-1
	if n != i {
		h.swap(i, n)
		if !h.down(i, n) {
			h.up(i)
		}
	}
	h.pos[h.heap[n]] = -1
	h.heap = h.heap[:n]
}

func (h *slotHeap) victim() int32 {
	if len(h.heap) == 0 {
		panic("sim: heap victim requested from empty cache")
	}
	return h.heap[0]
}

// gdsState is dense GreedyDual-Size with uniform cost: H = L + 1/size, the
// slot heap's key. gdsfState adds the frequency term on top of it.
type gdsState struct {
	slotHeap
	sizeOf []int64
	l      float64
}

func newGDSState(nSlots int32) *gdsState {
	return &gdsState{slotHeap: newSlotHeap(nSlots), sizeOf: make([]int64, nSlots)}
}

func (s *gdsState) admit(v int32, size, now int64) {
	s.sizeOf[v] = size
	s.key[v] = s.l + 1/float64(size)
	s.push(v)
}

func (s *gdsState) touch(v int32, now int64) {
	s.key[v] = s.l + 1/float64(s.sizeOf[v])
	s.fix(v)
}

func (s *gdsState) remove(v int32) {
	if s.pos[v] == 0 {
		// Evicting the current victim advances the inflation value.
		s.l = s.key[v]
	}
	s.slotHeap.remove(v)
}

// gdsfState is GreedyDual with frequency: H = L + freq×cost/size, where cost
// is 1 (GDSF) or the unit's size (LFUDA). priority evaluates
// cache.GreedyDual.priority's float64 expression operation for operation,
// and frequency starts at 1 on admit and grows before the priority on touch,
// so every sift matches the reference step for step.
type gdsfState struct {
	gdsState
	freq     []int64
	byteCost bool
}

func newGDSFState(nSlots int32, byteCost bool) *gdsfState {
	return &gdsfState{gdsState: *newGDSState(nSlots), freq: make([]int64, nSlots), byteCost: byteCost}
}

func (s *gdsfState) priority(v int32) float64 {
	size := s.sizeOf[v]
	c := 1.0
	if s.byteCost {
		c = float64(size)
	}
	c *= float64(s.freq[v])
	return s.l + c/float64(size)
}

func (s *gdsfState) admit(v int32, size, now int64) {
	s.sizeOf[v] = size
	s.freq[v] = 1
	s.key[v] = s.priority(v)
	s.push(v)
}

func (s *gdsfState) touch(v int32, now int64) {
	s.freq[v]++
	s.key[v] = s.priority(v)
	s.fix(v)
}

// optState is dense Belady: the slot heap keyed by each resident slot's
// negated next use, so its minimum is the slot used furthest ahead. Next uses
// are below 2³¹, so the negation is exact in a float64 and ties fall as in a
// max-heap on the uses themselves. The per-request chain is the axis's,
// shared by all its OPT cells.
type optState struct {
	slotHeap
	nu []int32
}

func newOPTState(nSlots int32, nextUse []int32) *optState {
	return &optState{slotHeap: newSlotHeap(nSlots), nu: nextUse}
}

func (s *optState) admit(v int32, size, now int64) {
	s.key[v] = -float64(s.nu[now])
	s.push(v)
}

func (s *optState) touch(v int32, now int64) {
	s.key[v] = -float64(s.nu[now])
	s.fix(v)
}

// ---------------------------------------------------------------- bundles

// bundleState runs on the file axis but lets a base state rank bundles
// (filecules, or per-file singletons), evicting the least recently used
// resident member of the base's victim bundle — the dense mirror of
// cache.BundlePolicy. Each bundle's resident members are a slotList headed
// at nSlots+bundle, MRU first; an empty list is an inactive bundle.
type bundleState struct {
	base     denseBase
	bundleOf []int32 // file slot -> bundle slot, shared across cells
	members  slotList
	nSlots   int32
}

func newBundleState(base denseBase, bundleOf []int32, nSlots, nBundles int32) *bundleState {
	return &bundleState{base: base, bundleOf: bundleOf, members: newSlotList(nSlots, nSlots+nBundles), nSlots: nSlots}
}

func (s *bundleState) admit(v int32, size, now int64) {
	b := s.bundleOf[v]
	head := s.nSlots + b
	if s.members.back(head) == head {
		s.base.admit(b, size, now)
	} else {
		s.base.touch(b, now)
	}
	s.members.pushFront(head, v)
}

func (s *bundleState) touch(v int32, now int64) {
	b := s.bundleOf[v]
	s.members.unlink(v)
	s.members.pushFront(s.nSlots+b, v)
	s.base.touch(b, now)
}

func (s *bundleState) victim() int32 {
	b := s.base.victim()
	head := s.nSlots + b
	v := s.members.back(head)
	if v == head {
		panic(fmt.Sprintf("sim: bundle base chose inactive bundle %d", b))
	}
	return v
}

// remove drops the file; its bundle leaves the base with its last member.
func (s *bundleState) remove(v int32) {
	b := s.bundleOf[v]
	s.members.unlink(v)
	if head := s.nSlots + b; s.members.back(head) == head {
		s.base.remove(b)
	}
}
