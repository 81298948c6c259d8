package cache

import (
	"fmt"

	"filecule/internal/core"
	"filecule/internal/trace"
)

// BundlePolicy is bundle-coherent eviction over any base policy, inspired by
// the file-bundle caching of Otoo et al. (the paper's Section 7): files are
// loaded individually (file granularity, no whole-filecule fetch), but the
// base policy ranks *bundles* (filecules, or per-file singletons for
// uncovered files), and the victim is the least recently used resident file
// of whichever bundle the base policy would evict. Touching any member
// refreshes the whole bundle under the base policy, which protects
// partially-resident filecules that are still in active use.
//
// The base policy sees one unit per resident bundle, admitted with the size
// of the member that created it; growing a bundle refreshes it (Touch)
// rather than re-admitting. With an LRU base this is the ablation's
// "bundle-lru": it isolates one half of the filecule-LRU advantage (eviction
// coherence) from the other half (prefetching). With ARC, GreedyDual or
// OPTPolicy bases it yields the bundle-aware variants of the sweep grid's
// "bundle" granularity axis.
type BundlePolicy struct {
	base Policy
	part *core.Partition

	bundles map[int64]*policyBundle
	byUnit  map[UnitID]*policyBundleFile
	count   int
}

type policyBundle struct {
	key   int64
	files list // resident member files, MRU first
}

type policyBundleFile struct {
	node lruNode
	b    *policyBundle
}

// NewBundlePolicy wraps base with bundle-aware eviction over the partition.
func NewBundlePolicy(base Policy, p *core.Partition) *BundlePolicy {
	return &BundlePolicy{
		base:    base,
		part:    p,
		bundles: make(map[int64]*policyBundle),
		byUnit:  make(map[UnitID]*policyBundleFile),
	}
}

// Name implements Policy.
func (p *BundlePolicy) Name() string { return "bundle-" + p.base.Name() }

// KeyOf maps a file to its bundle key: the enclosing filecule, or a unique
// per-file key when the partition does not cover the file.
func (p *BundlePolicy) KeyOf(f trace.FileID) int64 {
	if i := p.part.Of(f); i >= 0 {
		return int64(i)
	}
	return int64(degenerateBase) + int64(f)
}

// keyOfUnit maps a (possibly degenerate) file unit to its bundle key.
func (p *BundlePolicy) keyOfUnit(u UnitID) int64 {
	f := trace.FileID(u)
	if u >= degenerateBase {
		f = trace.FileID(u - degenerateBase)
	}
	return p.KeyOf(f)
}

// Admit implements Policy.
func (p *BundlePolicy) Admit(u UnitID, size, now int64) {
	key := p.keyOfUnit(u)
	b := p.bundles[key]
	if b == nil {
		b = &policyBundle{key: key}
		b.files.init()
		p.bundles[key] = b
		p.base.Admit(UnitID(key), size, now)
	} else {
		p.base.Touch(UnitID(key), now)
	}
	bf := &policyBundleFile{b: b}
	bf.node.unit = u
	b.files.pushFront(&bf.node)
	p.byUnit[u] = bf
	p.count++
}

// Touch implements Policy: refresh both the file and its bundle.
func (p *BundlePolicy) Touch(u UnitID, now int64) {
	bf := p.byUnit[u]
	b := bf.b
	b.files.remove(&bf.node)
	b.files.pushFront(&bf.node)
	p.base.Touch(UnitID(b.key), now)
}

// Victim implements Policy: the coldest resident file of the bundle the
// base policy would evict.
func (p *BundlePolicy) Victim() UnitID {
	key := p.base.Victim()
	b := p.bundles[int64(key)]
	if b == nil {
		panic(fmt.Sprintf("cache: %s base chose unknown bundle %d", p.Name(), key))
	}
	return b.files.back().unit
}

// Remove implements Policy. The bundle leaves the base policy only once its
// last resident member departs.
func (p *BundlePolicy) Remove(u UnitID) {
	bf := p.byUnit[u]
	b := bf.b
	b.files.remove(&bf.node)
	delete(p.byUnit, u)
	p.count--
	if b.files.back() == nil {
		p.base.Remove(UnitID(b.key))
		delete(p.bundles, b.key)
	}
}

// Len implements Policy.
func (p *BundlePolicy) Len() int { return p.count }
