package experiments

import (
	"fmt"

	"filecule/internal/cache"
	"filecule/internal/report"
	"filecule/internal/sim"
	"filecule/internal/synth"
)

// Fig10CacheSizesTB are the paper's seven cache sizes in TB (at full trace
// scale).
var Fig10CacheSizesTB = sim.Fig10CacheSizesTB

// CacheSweepPoint is one (cache size, granularity) measurement.
type CacheSweepPoint struct {
	CacheTB      float64 // nominal full-scale size
	CacheBytes   int64   // actual scaled capacity simulated
	Granularity  string
	MissRate     float64
	ByteMissRate float64
	BytesLoaded  int64
}

// CacheSweep runs the Figure 10 experiment — LRU at file and filecule
// granularity over the seven sizes, one pass of the sweep engine — and
// returns the raw points in size order, file before filecule. The run is
// memoised: fig10 and fileBundle read the same points.
func (r *Runner) CacheSweep() []CacheSweepPoint {
	if r.sweep != nil {
		return r.sweep
	}
	res, err := sim.Sweep(r.Trace(), r.Partition(), r.Requests(), sim.SweepConfig{
		Policies:      []string{"lru"},
		Granularities: []string{"file", "filecule"},
		Scale:         r.scale,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: Figure 10 sweep rejected its own config: %v", err))
	}
	// The grid comes back granularity-major: all file cells, then all
	// filecule cells, each in size order.
	n := len(res.Cells) / 2
	r.sweep = make([]CacheSweepPoint, len(res.Cells))
	for i, c := range res.Cells {
		r.sweep[2*(i%n)+i/n] = CacheSweepPoint{
			CacheTB:      c.CacheTB,
			CacheBytes:   c.CapacityBytes,
			Granularity:  c.Granularity,
			MissRate:     c.MissRate,
			ByteMissRate: c.ByteMissRate,
			BytesLoaded:  c.Metrics.BytesLoaded,
		}
	}
	return r.sweep
}

// fig10 reproduces Figure 10: LRU miss rate at file vs filecule granularity
// across the seven cache sizes.
func (r *Runner) fig10() (*Result, error) {
	points := r.CacheSweep()
	tb := report.NewTable(
		fmt.Sprintf("Figure 10: LRU miss rate (cache sizes scaled by %.3g)", r.scale),
		"cache (full-scale TB)", "file miss rate", "filecule miss rate",
		"gain (file/filecule)", "file byte-miss", "filecule byte-miss")
	var rows [][2]CacheSweepPoint
	for i := 0; i+1 < len(points); i += 2 {
		rows = append(rows, [2]CacheSweepPoint{points[i], points[i+1]})
	}
	for _, pair := range rows {
		f, c := pair[0], pair[1]
		gain := 0.0
		if c.MissRate > 0 {
			gain = f.MissRate / c.MissRate
		}
		tb.AddRow(f.CacheTB, f.MissRate, c.MissRate, gain, f.ByteMissRate, c.ByteMissRate)
	}
	small := rows[0]
	large := rows[len(rows)-1]
	smallGain := ratio(small[0].MissRate, small[1].MissRate)
	largeGain := ratio(large[0].MissRate, large[1].MissRate)
	sum := report.NewTable("headline comparison",
		"gain at smallest cache", "paper (~1.1x at 1TB)",
		"gain at largest cache", "paper (4-5x at 100TB)")
	sum.AddRow(smallGain, synth.PaperFig10SmallCacheGain, largeGain, synth.PaperFig10LargeCacheGain)
	return &Result{Tables: []*report.Table{tb, sum},
		Notes: []string{
			"the reproduction target is the shape: filecule LRU never loses, and its advantage grows with cache size",
			"filecule LRU trades extra prefetch bytes (BytesLoaded) for the hit-rate win; see the ablation experiment",
		}}, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ablation compares the policy zoo at one representative cache size (the
// middle of the sweep) at both granularities, plus the offline OPT bound.
// It isolates the two ingredients of the filecule win: prefetching (filecule
// loads) and eviction coherence (bundle-aware eviction without prefetch).
func (r *Runner) ablation() (*Result, error) {
	t := r.Trace()
	p := r.Partition()
	reqs := r.Requests()
	capBytes := sim.ScaledCapacity(10, r.scale) // the 10 TB point

	tb := report.NewTable(
		"cache policy ablation at the 10 TB (full-scale) point",
		"granularity", "policy", "miss rate", "byte miss rate", "bytes loaded (GB)")

	type combo struct {
		gran string
		mk   func() (cache.Granularity, cache.Policy)
	}
	combos := []combo{
		{"file", func() (cache.Granularity, cache.Policy) { return cache.NewFileGranularity(t), cache.NewLRU() }},
		{"file", func() (cache.Granularity, cache.Policy) { return cache.NewFileGranularity(t), cache.NewFIFO() }},
		{"file", func() (cache.Granularity, cache.Policy) { return cache.NewFileGranularity(t), cache.NewGDS() }},
		{"file", func() (cache.Granularity, cache.Policy) { return cache.NewFileGranularity(t), cache.NewGDSF() }},
		{"file", func() (cache.Granularity, cache.Policy) { return cache.NewFileGranularity(t), cache.NewLandlord() }},
		{"file", func() (cache.Granularity, cache.Policy) {
			return cache.NewFileGranularity(t), cache.NewBundlePolicy(cache.NewLRU(), p)
		}},
		{"file", func() (cache.Granularity, cache.Policy) { return cache.NewFileGranularity(t), cache.NewARC(capBytes) }},
		{"file", func() (cache.Granularity, cache.Policy) { return cache.NewFileGranularity(t), cache.NewLFUDA() }},
		{"filecule", func() (cache.Granularity, cache.Policy) { return cache.NewFileculeGranularity(t, p), cache.NewLRU() }},
		{"filecule", func() (cache.Granularity, cache.Policy) { return cache.NewFileculeGranularity(t, p), cache.NewGDS() }},
		{"filecule", func() (cache.Granularity, cache.Policy) { return cache.NewFileculeGranularity(t, p), cache.NewGDSF() }},
		{"filecule", func() (cache.Granularity, cache.Policy) {
			return cache.NewFileculeGranularity(t, p), cache.NewARC(capBytes)
		}},
	}
	for _, c := range combos {
		g, pol := c.mk()
		m := cache.NewSim(t, g, pol, capBytes).Replay(reqs)
		tb.AddRow(c.gran, pol.Name(), m.MissRate(), m.ByteMissRate(), float64(m.BytesLoaded)/(1<<30))
	}
	// Offline bounds.
	for _, gr := range []struct {
		name string
		g    cache.Granularity
	}{
		{"file", cache.NewFileGranularity(t)},
		{"filecule", cache.NewFileculeGranularity(t, p)},
	} {
		m := cache.NewSim(t, gr.g, cache.NewOPTPolicy(cache.NextUse(gr.g, reqs)), capBytes).Replay(reqs)
		tb.AddRow(gr.name, "opt (offline)", m.MissRate(), m.ByteMissRate(), float64(m.BytesLoaded)/(1<<30))
	}
	return &Result{Tables: []*report.Table{tb},
		Notes: []string{
			"bundle-lru isolates eviction coherence without prefetching; filecule granularity adds prefetching",
			"opt is Belady's bound per granularity (exact for uniform sizes, a strong heuristic here)",
		}}, nil
}
