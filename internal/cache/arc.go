package cache

import "fmt"

// ARC is a byte-aware adaptation of Megiddo & Modha's Adaptive Replacement
// Cache. Resident units live in two LRU lists — T1 (seen once) and T2 (seen
// at least twice) — and evicted units leave byte-sized ghosts in B1/B2. A
// ghost hit on re-admission steers the adaptation target p (the byte share
// of the cache earmarked for T1): B1 hits grow p (recency was undervalued),
// B2 hits shrink it (frequency was undervalued). The victim comes from T1
// when T1 exceeds p, else from T2.
//
// It extends the ablation's policy zoo with a modern adaptive baseline the
// 2006 paper predates.
type ARC struct {
	capacity int64 // advisory: ghost lists are bounded to this many bytes

	t1, t2 list
	b1, b2 map[UnitID]int64 // ghost -> size
	nodes  map[UnitID]*arcNode

	t1Bytes, t2Bytes int64
	b1Bytes, b2Bytes int64
	p                int64 // target T1 bytes
}

type arcNode struct {
	lruNode
	inT2 bool
}

// NewARC returns an ARC policy. The capacity (bytes) bounds the ghost
// lists and scales the adaptation steps; it should match the simulator's.
func NewARC(capacity int64) *ARC {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: ARC capacity %d must be > 0", capacity))
	}
	a := &ARC{
		capacity: capacity,
		b1:       make(map[UnitID]int64),
		b2:       make(map[UnitID]int64),
		nodes:    make(map[UnitID]*arcNode),
	}
	a.t1.init()
	a.t2.init()
	return a
}

// Name implements Policy.
func (a *ARC) Name() string { return "arc" }

// Admit implements Policy.
func (a *ARC) Admit(u UnitID, size, now int64) {
	if _, dup := a.nodes[u]; dup {
		panic(fmt.Sprintf("cache: ARC double admit of unit %d", u))
	}
	n := &arcNode{}
	n.unit = u
	n.size = size

	if ghost, ok := a.b1[u]; ok {
		// Recency ghost hit: grow p proportionally to the miss.
		delete(a.b1, u)
		a.b1Bytes -= ghost
		a.p = minI64(a.capacity, a.p+maxI64(ghost, a.b2Bytes/maxI64(1, int64(len(a.b1)+1))))
		n.inT2 = true
	} else if ghost, ok := a.b2[u]; ok {
		delete(a.b2, u)
		a.b2Bytes -= ghost
		a.p = maxI64(0, a.p-maxI64(ghost, a.b1Bytes/maxI64(1, int64(len(a.b2)+1))))
		n.inT2 = true
	}

	a.nodes[u] = n
	if n.inT2 {
		a.t2.pushFront(&n.lruNode)
		a.t2Bytes += size
	} else {
		a.t1.pushFront(&n.lruNode)
		a.t1Bytes += size
	}
	a.trimGhosts()
}

// Touch implements Policy: a second access promotes to T2.
func (a *ARC) Touch(u UnitID, now int64) {
	n := a.nodes[u]
	if n.inT2 {
		a.t2.remove(&n.lruNode)
		a.t2.pushFront(&n.lruNode)
		return
	}
	a.t1.remove(&n.lruNode)
	a.t1Bytes -= n.size
	n.inT2 = true
	a.t2.pushFront(&n.lruNode)
	a.t2Bytes += n.size
}

// Victim implements Policy.
func (a *ARC) Victim() UnitID {
	var n *lruNode
	if a.t1Bytes > a.p || a.t2.back() == nil {
		n = a.t1.back()
	} else {
		n = a.t2.back()
	}
	if n == nil {
		panic("cache: ARC victim requested from empty cache")
	}
	return n.unit
}

// Remove implements Policy: the departing unit becomes a ghost.
func (a *ARC) Remove(u UnitID) {
	n := a.nodes[u]
	delete(a.nodes, u)
	if n.inT2 {
		a.t2.remove(&n.lruNode)
		a.t2Bytes -= n.size
		a.b2[u] = n.size
		a.b2Bytes += n.size
	} else {
		a.t1.remove(&n.lruNode)
		a.t1Bytes -= n.size
		a.b1[u] = n.size
		a.b1Bytes += n.size
	}
	a.trimGhosts()
}

// Len implements Policy.
func (a *ARC) Len() int { return len(a.nodes) }

// trimGhosts bounds each ghost list to the cache capacity in bytes,
// dropping arbitrary (map-order-independent: smallest unit ID) entries.
// Ghost eviction order does not affect correctness, only adaptation
// fidelity; dropping the smallest ID keeps runs deterministic.
func (a *ARC) trimGhosts() {
	for a.b1Bytes > a.capacity {
		u := minKey(a.b1)
		a.b1Bytes -= a.b1[u]
		delete(a.b1, u)
	}
	for a.b2Bytes > a.capacity {
		u := minKey(a.b2)
		a.b2Bytes -= a.b2[u]
		delete(a.b2, u)
	}
}

func minKey(m map[UnitID]int64) UnitID {
	first := true
	var min UnitID
	for u := range m {
		if first || u < min {
			min = u
			first = false
		}
	}
	return min
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
