package cache

import "fmt"

// ARC is a byte-aware adaptation of Megiddo & Modha's Adaptive Replacement
// Cache. Resident units live in two LRU lists — T1 (seen once) and T2 (seen
// at least twice) — and evicted units leave byte-sized ghosts in B1/B2,
// recency lists that each hold at most capacity bytes and drop their least
// recently evicted ghost first, so no outcome depends on unit IDs. A ghost
// hit on re-admission steers the adaptation target p (the byte share
// of the cache earmarked for T1): B1 hits grow p (recency was undervalued),
// B2 hits shrink it (frequency was undervalued). The victim comes from T1
// when T1 exceeds p, else from T2.
//
// It extends the ablation's policy zoo with a modern adaptive baseline the
// 2006 paper predates.
type ARC struct {
	capacity int64 // advisory: ghost lists are bounded to this many bytes

	t1, t2 list
	b1, b2 ghosts
	nodes  map[UnitID]*arcNode // resident units

	t1Bytes, t2Bytes int64
	p                int64 // target T1 bytes
}

type arcNode struct {
	lruNode
	inT2 bool
}

// ghosts is one ghost list: evicted units with their sizes, most recently
// evicted first.
type ghosts struct {
	list
	of    map[UnitID]*lruNode
	bytes int64
}

func (g *ghosts) add(n *lruNode) {
	g.pushFront(n)
	g.of[n.unit] = n
	g.bytes += n.size
}

func (g *ghosts) drop(n *lruNode) {
	g.remove(n)
	delete(g.of, n.unit)
	g.bytes -= n.size
}

// NewARC returns an ARC policy. The capacity (bytes) bounds the ghost
// lists and scales the adaptation steps; it should match the simulator's.
func NewARC(capacity int64) *ARC {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: ARC capacity %d must be > 0", capacity))
	}
	a := &ARC{
		capacity: capacity,
		b1:       ghosts{of: make(map[UnitID]*lruNode)},
		b2:       ghosts{of: make(map[UnitID]*lruNode)},
		nodes:    make(map[UnitID]*arcNode),
	}
	a.t1.init()
	a.t2.init()
	a.b1.init()
	a.b2.init()
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

	if g, ok := a.b1.of[u]; ok {
		// Recency ghost hit: grow p proportionally to the miss.
		a.b1.drop(g)
		a.p = min(a.capacity, a.p+max(g.size, a.b2.bytes/max(1, int64(len(a.b1.of)+1))))
		n.inT2 = true
	} else if g, ok := a.b2.of[u]; ok {
		a.b2.drop(g)
		a.p = max(0, a.p-max(g.size, a.b1.bytes/max(1, int64(len(a.b2.of)+1))))
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
		a.b2.add(&n.lruNode)
	} else {
		a.t1.remove(&n.lruNode)
		a.t1Bytes -= n.size
		a.b1.add(&n.lruNode)
	}
	a.trimGhosts()
}

// trimGhosts bounds each ghost list to the cache capacity in bytes, dropping
// the least recently evicted ghosts first, as Megiddo & Modha's ARC does. A
// ghost list only grows in Remove, so only Remove trims.
func (a *ARC) trimGhosts() {
	for _, g := range [2]*ghosts{&a.b1, &a.b2} {
		for g.bytes > a.capacity {
			g.drop(g.back())
		}
	}
}
