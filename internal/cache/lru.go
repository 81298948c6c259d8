package cache

import "fmt"

// This file implements LRU, the paper's Section 4 algorithm ("the file with
// the oldest timestamp ... is evicted", chosen "because of its simplicity and
// because of its use at FermiLab"), and the intrusive list it and ARC share.

// lruNode is an intrusive doubly-linked list node.
type lruNode struct {
	unit       UnitID
	prev, next *lruNode
	size       int64 // ARC's byte accounting
}

// list is a sentinel-based doubly-linked list; front = most recent.
type list struct{ root lruNode }

func (l *list) init() {
	l.root.prev = &l.root
	l.root.next = &l.root
}

func (l *list) pushFront(n *lruNode) {
	n.prev = &l.root
	n.next = l.root.next
	n.prev.next = n
	n.next.prev = n
}

func (l *list) remove(n *lruNode) {
	n.prev.next = n.next
	n.next.prev = n.prev
	n.prev, n.next = nil, nil
}

func (l *list) back() *lruNode {
	if l.root.prev == &l.root {
		return nil
	}
	return l.root.prev
}

// LRU evicts the least recently used unit.
type LRU struct {
	nodes map[UnitID]*lruNode
	order list
}

// NewLRU returns an empty LRU policy.
func NewLRU() *LRU {
	p := &LRU{nodes: make(map[UnitID]*lruNode)}
	p.order.init()
	return p
}

// Name implements Policy.
func (p *LRU) Name() string { return "lru" }

// Admit implements Policy.
func (p *LRU) Admit(u UnitID, size, now int64) {
	if _, dup := p.nodes[u]; dup {
		panic(fmt.Sprintf("cache: LRU double admit of unit %d", u))
	}
	n := &lruNode{unit: u}
	p.nodes[u] = n
	p.order.pushFront(n)
}

// Touch implements Policy: move to front.
func (p *LRU) Touch(u UnitID, now int64) {
	n := p.nodes[u]
	p.order.remove(n)
	p.order.pushFront(n)
}

// Victim implements Policy: the back of the list.
func (p *LRU) Victim() UnitID {
	n := p.order.back()
	if n == nil {
		panic("cache: LRU victim requested from empty cache")
	}
	return n.unit
}

// Remove implements Policy.
func (p *LRU) Remove(u UnitID) {
	n := p.nodes[u]
	p.order.remove(n)
	delete(p.nodes, u)
}

// Len implements Policy.
func (p *LRU) Len() int { return len(p.nodes) }
