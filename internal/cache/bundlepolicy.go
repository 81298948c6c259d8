package cache

import (
	"fmt"

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
	gran *FileculeGranularity // its units are the bundles

	bundles map[UnitID]*policyBundle
	byUnit  map[UnitID]*policyBundleFile
}

type policyBundle struct {
	key   UnitID
	files list // resident member files, MRU first
}

type policyBundleFile struct {
	node lruNode
	b    *policyBundle
}

// NewBundlePolicy wraps base with bundle-aware eviction; g's units are the
// bundles.
func NewBundlePolicy(base Policy, g *FileculeGranularity) *BundlePolicy {
	return &BundlePolicy{
		base:    base,
		gran:    g,
		bundles: make(map[UnitID]*policyBundle),
		byUnit:  make(map[UnitID]*policyBundleFile),
	}
}

// Name implements Policy.
func (p *BundlePolicy) Name() string { return "bundle-" + p.base.Name() }

// Admit implements Policy. u is a file unit: the file, or its degenerate
// unit.
func (p *BundlePolicy) Admit(u UnitID, size, now int64) {
	f := u
	if f >= degenerateBase {
		f -= degenerateBase
	}
	key := p.gran.UnitOf(trace.FileID(f))
	b := p.bundles[key]
	if b == nil {
		b = &policyBundle{key: key}
		b.files.init()
		p.bundles[key] = b
		p.base.Admit(key, size, now)
	} else {
		p.base.Touch(key, now)
	}
	bf := &policyBundleFile{b: b}
	bf.node.unit = u
	b.files.pushFront(&bf.node)
	p.byUnit[u] = bf
}

// Touch implements Policy: refresh both the file and its bundle.
func (p *BundlePolicy) Touch(u UnitID, now int64) {
	bf := p.byUnit[u]
	b := bf.b
	b.files.remove(&bf.node)
	b.files.pushFront(&bf.node)
	p.base.Touch(b.key, now)
}

// Victim implements Policy: the coldest resident file of the bundle the
// base policy would evict.
func (p *BundlePolicy) Victim() UnitID {
	key := p.base.Victim()
	b := p.bundles[key]
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
	if b.files.back() == nil {
		p.base.Remove(b.key)
		delete(p.bundles, b.key)
	}
}
