package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"filecule/internal/cache"
	"filecule/internal/core"
	"filecule/internal/trace"
)

// SweepSchema versions the sweep result JSON (and the sweep section of the
// benchmark baseline that embeds it).
const SweepSchema = "filecule-sweep/v1"

// Grid vocabularies accepted by SweepConfig, in the ablation's order.
var (
	SweepPolicies      = []string{"lru", "arc", "gds", "gdsf", "lfuda", "opt"}
	SweepGranularities = []string{"file", "filecule", "bundle"}
)

// defaultPolicies is the paper grid's policy axis: gdsf and lfuda run only
// when named.
var defaultPolicies = []string{"lru", "arc", "gds", "opt"}

// SweepConfig selects the grid and tunes the engine. Zero values mean "the
// full paper grid with engine defaults".
type SweepConfig struct {
	// Policies and Granularities select grid axes, in output order.
	// Defaults: lru, arc, gds, opt; all of SweepGranularities.
	Policies      []string
	Granularities []string
	// CapacitiesTB are nominal full-scale cache sizes, turned into bytes
	// by ScaledCapacity. Default: Fig10CacheSizesTB.
	CapacitiesTB []float64
	// Scale is the trace subsampling factor the capacities are scaled by.
	// Default 1.
	Scale float64
	// Workers is the number of goroutines that take the grid's cells in
	// turn, and so the most cells whose state is live at once. Default
	// GOMAXPROCS. Results are identical for any worker count.
	Workers int
}

// Fig10CacheSizesTB are the paper's seven cache sizes in TB (at full trace
// scale); ScaledCapacity scales them with the workload so the cache:catalog
// ratio matches the paper's.
var Fig10CacheSizesTB = []float64{1, 2, 5, 10, 20, 50, 100}

func (c *SweepConfig) withDefaults() SweepConfig {
	out := *c
	if len(out.Policies) == 0 {
		out.Policies = defaultPolicies
	}
	if len(out.Granularities) == 0 {
		out.Granularities = SweepGranularities
	}
	if len(out.CapacitiesTB) == 0 {
		out.CapacitiesTB = Fig10CacheSizesTB
	}
	if out.Scale == 0 {
		out.Scale = 1
	}
	if out.Workers <= 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	return out
}

func (c *SweepConfig) validate() error {
	if !(c.Scale >= 0) || math.IsInf(c.Scale, 1) {
		return fmt.Errorf("sim: sweep scale %g must be non-negative and finite (0 means full scale)", c.Scale)
	}
	for _, p := range c.Policies {
		if !contains(SweepPolicies, p) {
			return fmt.Errorf("sim: unknown sweep policy %q (have %v)", p, SweepPolicies)
		}
	}
	for _, g := range c.Granularities {
		if !contains(SweepGranularities, g) {
			return fmt.Errorf("sim: unknown sweep granularity %q (have %v)", g, SweepGranularities)
		}
	}
	scale := c.Scale
	if scale == 0 {
		scale = 1
	}
	for _, tb := range c.CapacitiesTB {
		if err := CheckCacheSize(tb, scale); err != nil {
			return fmt.Errorf("sim: sweep %w", err)
		}
	}
	// A repeated axis value would simulate its cells twice and write them
	// twice into the grid.
	if p, ok := firstRepeat(c.Policies); ok {
		return fmt.Errorf("sim: sweep policy %q given twice", p)
	}
	if g, ok := firstRepeat(c.Granularities); ok {
		return fmt.Errorf("sim: sweep granularity %q given twice", g)
	}
	if tb, ok := firstRepeat(c.CapacitiesTB); ok {
		return fmt.Errorf("sim: sweep cache size %g TB given twice", tb)
	}
	return nil
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// firstRepeat returns the first value that occurs in xs a second time.
func firstRepeat[T comparable](xs []T) (T, bool) {
	seen := make(map[T]bool, len(xs))
	for _, x := range xs {
		if seen[x] {
			return x, true
		}
		seen[x] = true
	}
	var zero T
	return zero, false
}

// ScaledCapacity converts a nominal full-scale cache size in TB into the
// bytes simulated for a trace subsampled by scale, at least 1 MiB. Every
// experiment and tool sizes its caches through it.
func ScaledCapacity(tb, scale float64) int64 {
	capBytes := int64(tb * scale * (1 << 40))
	if capBytes < 1<<20 {
		capBytes = 1 << 20
	}
	return capBytes
}

// CheckCacheSize rejects a nominal cache size that ScaledCapacity cannot turn
// into bytes: one that is not positive, or whose bytes at scale are not a
// finite int64 (NaN, infinity, overflow). Sizes from outside the program go
// through it before any work is done.
func CheckCacheSize(tb, scale float64) error {
	if !(tb > 0) {
		return fmt.Errorf("cache size %g TB must be a positive number", tb)
	}
	if !(tb*scale*(1<<40) < 1<<63) {
		return fmt.Errorf("cache size %g TB at scale %g is not a finite int64 byte count", tb, scale)
	}
	return nil
}

// grid enumerates the cell specs in deterministic output order:
// granularity-major, then policy, then capacity.
func (c *SweepConfig) grid() []cellSpec {
	var specs []cellSpec
	for _, g := range c.Granularities {
		ax := axisFile
		if g == "filecule" {
			ax = axisFilecule
		}
		for _, p := range c.Policies {
			for _, tb := range c.CapacitiesTB {
				specs = append(specs, cellSpec{
					Policy:      p,
					Granularity: g,
					CacheTB:     tb,
					Capacity:    ScaledCapacity(tb, c.Scale),
					axis:        ax,
				})
			}
		}
	}
	return specs
}

// CellResult is one grid cell's outcome.
type CellResult struct {
	Policy        string        `json:"policy"`
	Granularity   string        `json:"granularity"`
	CacheTB       float64       `json:"cache_tb"`
	CapacityBytes int64         `json:"capacity_bytes"`
	Metrics       cache.Metrics `json:"metrics"`
	MissRate      float64       `json:"miss_rate"`
	ByteMissRate  float64       `json:"byte_miss_rate"`
}

// SweepResult is the machine-readable outcome of a sweep, stable enough to
// serve as a benchmark baseline: everything except Engine, Workers and
// WallSeconds is a pure function of the trace and config.
type SweepResult struct {
	Schema      string       `json:"schema"`
	Engine      string       `json:"engine"` // "single-pass" or "sequential"
	Jobs        int          `json:"jobs"`
	Files       int          `json:"files"`
	Filecules   int          `json:"filecules"`
	Requests    int          `json:"requests"`
	Scale       float64      `json:"scale"`
	Workers     int          `json:"workers"`
	WallSeconds float64      `json:"wall_seconds"`
	Cells       []CellResult `json:"cells"`
}

// WriteJSON emits the result as indented JSON.
func (r *SweepResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Sweep replays the full policy × granularity × capacity grid over one
// projection of reqs. Workers goroutines take the grid's cells in turn: each
// builds a cell, replays the whole stream through it, reading each request
// through the cell's axis, records its metrics and drops it, so at most
// Workers cells' state is live at once.
// Each cell is owned by one goroutine (no locks on the simulation path) and
// consumes the stream in order, so results are deterministic and independent
// of Workers, and — cell for cell — byte-identical to SweepSequential and to
// cache.Sim replays (see TestSweepMatchesSequential).
//
// The grid reads only the requests' file IDs, so Sweep projects reqs to a
// 4-byte stream first. Its memory beyond that follows the requests: per-cell
// state is sized by the files the stream requests and the filecules, never
// by the catalog, which only the axes' shared lookup tables span.
func Sweep(t *trace.Trace, p *core.Partition, reqs []trace.Request, cfg SweepConfig) (*SweepResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := checkStreamLen(len(reqs)); err != nil {
		return nil, err
	}
	files := make([]trace.FileID, len(reqs))
	for i := range reqs {
		files[i] = reqs[i].File
	}
	return sweepFiles(t, p, files, cfg), nil
}

// checkStreamLen refuses a stream of n requests before it is allocated when
// a request index could reach never: the next-use chains index requests in
// 32 bits.
func checkStreamLen(n int) error {
	if n >= never {
		return fmt.Errorf("sim: sweep of %d requests: the engine indexes at most %d", n, never-1)
	}
	return nil
}

// sweepFiles is Sweep over a validated configuration and a projected stream.
func sweepFiles(t *trace.Trace, p *core.Partition, files []trace.FileID, cfg SweepConfig) *SweepResult {
	cfg = cfg.withDefaults()
	start := time.Now()
	specs := cfg.grid()

	// Static shared state: axes, bundle keys, and per-axis next-use chains
	// (computed once, shared by all OPT cells of the axis).
	var axes [numAxes]*axisData
	var nextUse [numAxes][]int32
	var bundleNextUse, bundleOf []int32
	var nBundles int32
	needAxis := [numAxes]bool{}
	needOPT := [numAxes]bool{}
	needBundle, needBundleOPT := false, false
	minCapacity := int64(math.MaxInt64)
	for _, sp := range specs {
		needAxis[sp.axis] = true
		minCapacity = min(minCapacity, sp.Capacity)
		if sp.Granularity == "bundle" {
			needBundle = true
			if sp.Policy == "opt" {
				needBundleOPT = true
			}
		} else if sp.Policy == "opt" {
			needOPT[sp.axis] = true
		}
	}
	fileSize := catalogSizes(t)
	requested, nRequested := requestedFiles(len(t.Files), files)
	if needAxis[axisFile] {
		axes[axisFile] = newFileAxis(fileSize, requested, nRequested)
	}
	if needAxis[axisFilecule] {
		axes[axisFilecule] = newFileculeAxis(t, p, fileSize, requested, minCapacity)
	}
	for k := axisKind(0); k < numAxes; k++ {
		if needOPT[k] {
			nextUse[k] = nextUseBySlot(axes[k].slotOf, axes[k].nSlots, files)
		}
	}
	if needBundle {
		var keys []int32
		keys, bundleOf, nBundles = bundleKeys(p, axes[axisFile])
		if needBundleOPT {
			bundleNextUse = nextUseBySlot(keys, nBundles, files)
		}
	}

	// Each worker takes the next cell, replays the stream through it and
	// drops it.
	workers := min(cfg.Workers, len(specs))
	metrics := make([]cache.Metrics, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				sp := specs[i]
				c := buildCell(sp, axes[sp.axis], nextUse[sp.axis], bundleOf, nBundles, bundleNextUse)
				c.run(files)
				metrics[i] = c.m
			}
		}()
	}
	wg.Wait()

	res := newSweepResult(t, p, len(files), cfg, "single-pass", workers)
	for i, sp := range specs {
		res.Cells = append(res.Cells, cellResultOf(sp, metrics[i]))
	}
	res.WallSeconds = time.Since(start).Seconds()
	return res
}

// buildCell constructs one dense cell for a spec. A bundle cell's policy
// state ranks bundle slots inside a bundleState; every other cell's ranks
// the axis's own.
func buildCell(sp cellSpec, ax *axisData, nextUse []int32, bundleOf []int32, nBundles int32, bundleNextUse []int32) *cell {
	bundle := sp.Granularity == "bundle"
	nSlots := ax.nSlots
	if bundle {
		nSlots, nextUse = nBundles, bundleNextUse
	}
	var st denseBase
	switch sp.Policy {
	case "lru":
		st = newLRUState(nSlots)
	case "arc":
		st = newARCState(nSlots, sp.Capacity)
	case "gds":
		st = newGDSState(nSlots)
	case "gdsf":
		st = newGDSFState(nSlots, false)
	case "lfuda":
		st = newGDSFState(nSlots, true)
	case "opt":
		st = newOPTState(nSlots, nextUse)
	default:
		panic("sim: unreachable policy " + sp.Policy)
	}
	if bundle {
		st = newBundleState(st, bundleOf, ax.nSlots, nBundles)
	}
	return newCell(sp, ax, st)
}

// SweepSequential replays the identical grid cell by cell through the
// cache package's map-and-interface simulator. It is the reference the
// single-pass engine is differentially tested against, and the baseline the
// speedup benchmark measures. Each cell honestly pays its own full cost:
// granularity construction, next-use pre-pass, and a complete pass over the
// request stream.
func SweepSequential(t *trace.Trace, p *core.Partition, reqs []trace.Request, cfg SweepConfig) (*SweepResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	start := time.Now()
	specs := cfg.grid()

	res := newSweepResult(t, p, len(reqs), cfg, "sequential", 1)
	for _, sp := range specs {
		fg := cache.NewFileculeGranularity(t, p) // the filecule cells' units, the bundle cells' bundles
		var g cache.Granularity = fg
		if sp.Granularity != "filecule" {
			g = cache.NewFileGranularity(t)
		}
		var pol cache.Policy
		switch sp.Policy {
		case "lru":
			pol = cache.NewLRU()
		case "arc":
			pol = cache.NewARC(sp.Capacity)
		case "gds":
			pol = cache.NewGDS()
		case "gdsf":
			pol = cache.NewGDSF()
		case "lfuda":
			pol = cache.NewLFUDA()
		case "opt":
			ranked := g
			if sp.Granularity == "bundle" {
				ranked = fg
			}
			pol = cache.NewOPTPolicy(cache.NextUse(ranked, reqs))
		}
		if sp.Granularity == "bundle" {
			pol = cache.NewBundlePolicy(pol, fg)
		}
		m := cache.NewSim(t, g, pol, sp.Capacity).Replay(reqs)
		res.Cells = append(res.Cells, cellResultOf(sp, m))
	}
	res.WallSeconds = time.Since(start).Seconds()
	return res, nil
}

func newSweepResult(t *trace.Trace, p *core.Partition, requests int, cfg SweepConfig, engine string, workers int) *SweepResult {
	return &SweepResult{
		Schema:    SweepSchema,
		Engine:    engine,
		Jobs:      len(t.Jobs),
		Files:     len(t.Files),
		Filecules: p.NumFilecules(),
		Requests:  requests,
		Scale:     cfg.Scale,
		Workers:   workers,
	}
}

func cellResultOf(sp cellSpec, m cache.Metrics) CellResult {
	return CellResult{
		Policy:        sp.Policy,
		Granularity:   sp.Granularity,
		CacheTB:       sp.CacheTB,
		CapacityBytes: sp.Capacity,
		Metrics:       m,
		MissRate:      m.MissRate(),
		ByteMissRate:  m.ByteMissRate(),
	}
}
