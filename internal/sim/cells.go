package sim

import (
	"fmt"

	"filecule/internal/cache"
)

// This file holds the dense grid-cell simulators: five policy states over
// slot-indexed arrays and the two loops that drive them (policyCell,
// bundleCell). A cell replays the resolved request stream with the exact
// branch and counter order of cache.Sim.serve, with zero steady-state
// allocation and one interface call per policy operation. The differential
// test (sweep_test.go) pins every cell to struct equality with the cache
// package.
//
// The heap-backed policies (GreedyDual, OPT) replicate container/heap's
// up/down/Fix/Remove algorithms verbatim so their sift sequences — and hence
// later victim choices — match the reference implementations step for step.

// cellSpec identifies one grid cell.
type cellSpec struct {
	Policy      string
	Granularity string
	CacheTB     float64
	Capacity    int64
	axis        axisKind
}

// cell is one grid cell's simulator. run consumes a resolved batch whose
// first request has global index base; batches arrive in stream order.
type cell interface {
	run(rs []resolved, base int64)
	metrics() cache.Metrics
	spec() cellSpec
}

// cellCore carries the policy-independent simulator state.
type cellCore struct {
	sp       cellSpec
	capacity int64
	used     int64
	resident []bool
	ax       *axisData
	m        cache.Metrics
}

func newCellCore(sp cellSpec, ax *axisData) cellCore {
	return cellCore{sp: sp, capacity: sp.Capacity, resident: make([]bool, ax.nSlots), ax: ax}
}

func (c *cellCore) metrics() cache.Metrics { return c.m }
func (c *cellCore) spec() cellSpec         { return c.sp }

// place is the dense statement of the bypass rule (cache.Sim.serve holds the
// reference one): a missed request loads its whole unit, unless the unit is
// larger than the cache, in which case only the requested file is cached, as
// the degenerate slot. ok is false when even that file cannot fit. Both run
// loops call it; it must stay small enough to inline.
func (c *cellCore) place(r *resolved) (slot int32, size int64, ok bool) {
	if r.size <= c.capacity {
		return r.unit, r.size, true
	}
	c.m.Bypasses++
	return r.deg, r.fileSize, r.fileSize <= c.capacity
}

// denseBase is the slot-level policy contract, mirroring cache.Policy. All
// five dense policy states implement it; both cells drive theirs through it.
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

// ghostHeap is a plain binary min-heap of slot numbers, used to find the
// minimum-ID member of a ghost list without scanning. Entries go stale when
// a slot leaves its ghost list; popGhost discards them lazily. Every current
// ghost has at least one live entry, so the first valid pop is the true
// minimum — matching the reference ARC's minKey map scan.
type ghostHeap []int32

func (h *ghostHeap) push(v int32) {
	*h = append(*h, v)
	a := *h
	j := len(a) - 1
	for j > 0 {
		i := (j - 1) / 2
		if a[i] <= a[j] {
			break
		}
		a[i], a[j] = a[j], a[i]
		j = i
	}
}

func (h *ghostHeap) pop() int32 {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	*h = a[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && a[r] < a[l] {
			l = r
		}
		if a[i] <= a[l] {
			break
		}
		a[i], a[l] = a[l], a[i]
		i = l
	}
	return top
}

// arcState is the dense byte-aware ARC: T1/T2 as two slotLists sharing one
// link array (heads at nSlots and nSlots+1), ghost membership as a per-slot
// state byte with byte/count totals, and lazy min-heaps standing in for the
// reference implementation's minKey scans.
type arcState struct {
	slotList
	capacity  int64
	t1s, t2s  int32
	inT2      []bool
	admitSize []int64 // last admit size per slot; doubles as the ghost size
	ghost     []uint8 // 0 none, 1 in B1, 2 in B2
	g1, g2    ghostHeap

	t1Bytes, t2Bytes int64
	b1Bytes, b2Bytes int64
	b1Count, b2Count int64
	p                int64
}

func newARCState(nSlots int32, capacity int64) *arcState {
	return &arcState{
		slotList:  newSlotList(nSlots, nSlots+2),
		capacity:  capacity,
		t1s:       nSlots,
		t2s:       nSlots + 1,
		inT2:      make([]bool, nSlots),
		admitSize: make([]int64, nSlots),
		ghost:     make([]uint8, nSlots),
	}
}

func (s *arcState) admit(v int32, size, now int64) {
	inT2 := false
	switch s.ghost[v] {
	case 1: // recency ghost hit: grow p proportionally to the miss
		gs := s.admitSize[v]
		s.ghost[v] = 0
		s.b1Bytes -= gs
		s.b1Count--
		s.p = min(s.capacity, s.p+max(gs, s.b2Bytes/max(1, s.b1Count+1)))
		inT2 = true
	case 2:
		gs := s.admitSize[v]
		s.ghost[v] = 0
		s.b2Bytes -= gs
		s.b2Count--
		s.p = max(0, s.p-max(gs, s.b1Bytes/max(1, s.b2Count+1)))
		inT2 = true
	}
	s.admitSize[v] = size
	s.inT2[v] = inT2
	if inT2 {
		s.pushFront(s.t2s, v)
		s.t2Bytes += size
	} else {
		s.pushFront(s.t1s, v)
		s.t1Bytes += size
	}
	s.trimGhosts()
}

func (s *arcState) touch(v int32, now int64) {
	if s.inT2[v] {
		s.unlink(v)
		s.pushFront(s.t2s, v)
		return
	}
	s.unlink(v)
	s.t1Bytes -= s.admitSize[v]
	s.inT2[v] = true
	s.pushFront(s.t2s, v)
	s.t2Bytes += s.admitSize[v]
}

func (s *arcState) victim() int32 {
	var v int32
	if s.t1Bytes > s.p || s.back(s.t2s) == s.t2s {
		v = s.back(s.t1s)
		if v == s.t1s {
			panic("sim: ARC victim requested from empty cache")
		}
	} else {
		v = s.back(s.t2s)
	}
	return v
}

func (s *arcState) remove(v int32) {
	size := s.admitSize[v]
	s.unlink(v)
	if s.inT2[v] {
		s.t2Bytes -= size
		s.ghost[v] = 2
		s.b2Bytes += size
		s.b2Count++
		s.g2.push(v)
	} else {
		s.t1Bytes -= size
		s.ghost[v] = 1
		s.b1Bytes += size
		s.b1Count++
		s.g1.push(v)
	}
	s.trimGhosts()
}

func (s *arcState) trimGhosts() {
	for s.b1Bytes > s.capacity {
		v := s.popGhost(&s.g1, 1)
		s.b1Bytes -= s.admitSize[v]
		s.ghost[v] = 0
		s.b1Count--
	}
	for s.b2Bytes > s.capacity {
		v := s.popGhost(&s.g2, 2)
		s.b2Bytes -= s.admitSize[v]
		s.ghost[v] = 0
		s.b2Count--
	}
}

func (s *arcState) popGhost(h *ghostHeap, want uint8) int32 {
	for len(*h) > 0 {
		v := h.pop()
		if s.ghost[v] == want {
			return v
		}
	}
	panic("sim: ARC ghost accounting out of sync")
}

// ---------------------------------------------------------------- indexed heaps

// gdsState is dense GreedyDual-Size with uniform cost: H = L + 1/size, a
// min-heap on H maintained with container/heap's exact algorithms (slot
// positions tracked in pos, -1 when absent). gdsfState adds the frequency
// term on top of it.
type gdsState struct {
	hVal   []float64
	sizeOf []int64
	pos    []int32
	heap   []int32
	l      float64
}

func newGDSState(nSlots int32) *gdsState {
	s := &gdsState{
		hVal:   make([]float64, nSlots),
		sizeOf: make([]int64, nSlots),
		pos:    make([]int32, nSlots),
	}
	for i := range s.pos {
		s.pos[i] = -1
	}
	return s
}

func (s *gdsState) less(i, j int) bool { return s.hVal[s.heap[i]] < s.hVal[s.heap[j]] }

func (s *gdsState) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.pos[s.heap[i]], s.pos[s.heap[j]] = int32(i), int32(j)
}

func (s *gdsState) up(j int) {
	for {
		i := (j - 1) / 2
		if i == j || !s.less(j, i) {
			break
		}
		s.swap(i, j)
		j = i
	}
}

func (s *gdsState) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && s.less(j2, j1) {
			j = j2
		}
		if !s.less(j, i) {
			break
		}
		s.swap(i, j)
		i = j
	}
	return i > i0
}

func (s *gdsState) push(v int32) {
	s.heap = append(s.heap, v)
	s.pos[v] = int32(len(s.heap) - 1)
	s.up(len(s.heap) - 1)
}

func (s *gdsState) fix(i int) {
	if !s.down(i, len(s.heap)) {
		s.up(i)
	}
}

func (s *gdsState) removeAt(i int) {
	n := len(s.heap) - 1
	if n != i {
		s.swap(i, n)
		if !s.down(i, n) {
			s.up(i)
		}
	}
	s.pos[s.heap[n]] = -1
	s.heap = s.heap[:n]
}

func (s *gdsState) admit(v int32, size, now int64) {
	s.sizeOf[v] = size
	s.hVal[v] = s.l + 1/float64(size)
	s.push(v)
}

func (s *gdsState) touch(v int32, now int64) {
	s.hVal[v] = s.l + 1/float64(s.sizeOf[v])
	s.fix(int(s.pos[v]))
}

func (s *gdsState) victim() int32 {
	if len(s.heap) == 0 {
		panic("sim: gds victim requested from empty cache")
	}
	return s.heap[0]
}

func (s *gdsState) remove(v int32) {
	i := int(s.pos[v])
	if i == 0 {
		// Evicting the current victim advances the inflation value.
		s.l = s.hVal[v]
	}
	s.removeAt(i)
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
	s.hVal[v] = s.priority(v)
	s.push(v)
}

func (s *gdsfState) touch(v int32, now int64) {
	s.freq[v]++
	s.hVal[v] = s.priority(v)
	s.fix(int(s.pos[v]))
}

// optState is dense Belady: a max-heap on each resident slot's next use,
// fed by the axis's shared per-request next-use chain.
type optState struct {
	nu   []int32 // per-request next use, shared across OPT cells of the axis
	key  []int32 // per-slot next use while resident
	pos  []int32
	heap []int32
}

func newOPTState(nSlots int32, nextUse []int32) *optState {
	s := &optState{
		nu:  nextUse,
		key: make([]int32, nSlots),
		pos: make([]int32, nSlots),
	}
	for i := range s.pos {
		s.pos[i] = -1
	}
	return s
}

func (s *optState) less(i, j int) bool { return s.key[s.heap[i]] > s.key[s.heap[j]] }

func (s *optState) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.pos[s.heap[i]], s.pos[s.heap[j]] = int32(i), int32(j)
}

func (s *optState) up(j int) {
	for {
		i := (j - 1) / 2
		if i == j || !s.less(j, i) {
			break
		}
		s.swap(i, j)
		j = i
	}
}

func (s *optState) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && s.less(j2, j1) {
			j = j2
		}
		if !s.less(j, i) {
			break
		}
		s.swap(i, j)
		i = j
	}
	return i > i0
}

func (s *optState) push(v int32) {
	s.heap = append(s.heap, v)
	s.pos[v] = int32(len(s.heap) - 1)
	s.up(len(s.heap) - 1)
}

func (s *optState) fix(i int) {
	if !s.down(i, len(s.heap)) {
		s.up(i)
	}
}

func (s *optState) removeAt(i int) {
	n := len(s.heap) - 1
	if n != i {
		s.swap(i, n)
		if !s.down(i, n) {
			s.up(i)
		}
	}
	s.pos[s.heap[n]] = -1
	s.heap = s.heap[:n]
}

func (s *optState) admit(v int32, size, now int64) {
	s.key[v] = s.nu[now]
	s.push(v)
}

func (s *optState) touch(v int32, now int64) {
	s.key[v] = s.nu[now]
	s.fix(int(s.pos[v]))
}

func (s *optState) victim() int32 {
	if len(s.heap) == 0 {
		panic("sim: opt victim requested from empty cache")
	}
	return s.heap[0]
}

func (s *optState) remove(v int32) { s.removeAt(int(s.pos[v])) }

// ---------------------------------------------------------------- cells

// policyCell is a cell whose replacement units are the axis's own slots:
// every policy at file or filecule granularity. One loop serves all five
// policy states through denseBase; the four copies with direct calls it
// replaced measured 0-3 % faster, inside their own run-to-run spread
// (CHANGES.md, "one replay skeleton per engine", has the runs).
type policyCell struct {
	cellCore
	st denseBase
}

func (c *policyCell) run(rs []resolved, base int64) {
	m := &c.m
	for k := range rs {
		r := &rs[k]
		now := base + int64(k)
		m.Requests++
		m.BytesRequested += r.fileSize
		if c.resident[r.unit] {
			c.st.touch(r.unit, now)
			m.Hits++
			continue
		}
		// The file may be resident as a degenerate unit from an earlier
		// bypass.
		if r.deg != r.unit && c.resident[r.deg] {
			c.st.touch(r.deg, now)
			m.Hits++
			continue
		}
		m.Misses++
		m.BytesMissed += r.fileSize
		slot, size, ok := c.place(r)
		if !ok {
			continue
		}
		for c.used+size > c.capacity {
			v := c.st.victim()
			vs := c.ax.sizes[v]
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

// bundleCell runs on the file axis but lets a base policy rank bundles
// (filecules, or per-file singletons), evicting the least recently used
// resident member of the base's victim bundle — the dense mirror of
// cache.BundlePolicy. Each bundle's resident members are a slotList headed
// at nSlots+bundle, MRU first; an empty list is an inactive bundle.
type bundleCell struct {
	cellCore
	bundleOf []int32 // file slot -> bundle slot, shared across cells
	members  slotList
	base     denseBase
}

func newBundleCell(sp cellSpec, ax *axisData, bundleOf []int32, nBundles int32, base denseBase) *bundleCell {
	return &bundleCell{
		cellCore: newCellCore(sp, ax),
		bundleOf: bundleOf,
		members:  newSlotList(ax.nSlots, ax.nSlots+nBundles),
		base:     base,
	}
}

func (c *bundleCell) run(rs []resolved, base int64) {
	m := &c.m
	for k := range rs {
		r := &rs[k]
		now := base + int64(k)
		m.Requests++
		m.BytesRequested += r.fileSize
		if c.resident[r.unit] {
			b := c.bundleOf[r.unit]
			c.members.unlink(r.unit)
			c.members.pushFront(c.ax.nSlots+b, r.unit)
			c.base.touch(b, now)
			m.Hits++
			continue
		}
		// The file axis has no degenerate slots (a bypassed file is itself
		// oversized, so place never loads one), hence no fallback hit check.
		m.Misses++
		m.BytesMissed += r.fileSize
		slot, size, ok := c.place(r)
		if !ok {
			continue
		}
		for c.used+size > c.capacity {
			vb := c.base.victim()
			head := c.ax.nSlots + vb
			v := c.members.back(head)
			if v == head {
				panic(fmt.Sprintf("sim: bundle base chose inactive bundle %d", vb))
			}
			vs := c.ax.sizes[v]
			c.members.unlink(v)
			if c.members.back(head) == head {
				c.base.remove(vb)
			}
			c.resident[v] = false
			c.used -= vs
			m.Evictions++
			m.BytesEvicted += vs
		}
		b := c.bundleOf[slot]
		head := c.ax.nSlots + b
		if c.members.back(head) == head {
			c.base.admit(b, size, now)
		} else {
			c.base.touch(b, now)
		}
		c.resident[slot] = true
		c.used += size
		c.members.pushFront(head, slot)
		m.BytesLoaded += size
	}
}
