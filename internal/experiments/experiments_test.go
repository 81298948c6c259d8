package experiments

import (
	"strings"
	"testing"

	"filecule/internal/cache"
	"filecule/internal/sim"
	"filecule/internal/synth"
)

// generated returns a Runner over the DZero workload at seed and scale.
func generated(seed int64, scale float64) *Runner {
	t, err := synth.Generate(synth.DZero(seed, scale))
	if err != nil {
		panic(err)
	}
	return NewForTrace(t, scale)
}

// shared is one small workload the tests in this package reuse.
var shared = generated(1, 0.02)

func TestAllExperimentsRun(t *testing.T) {
	for _, id := range All() {
		id := id
		t.Run(id, func(t *testing.T) {
			res, err := shared.Run(id)
			if err != nil {
				t.Fatalf("Run(%s): %v", id, err)
			}
			if res.ID != id {
				t.Errorf("result ID = %q", res.ID)
			}
			if len(res.Tables) == 0 {
				t.Error("no tables produced")
			}
			out := res.Render()
			if !strings.Contains(out, res.Description) {
				t.Error("render missing description")
			}
			for _, tb := range res.Tables {
				if tb.NumRows() == 0 {
					t.Errorf("empty table %q", tb.Title)
				}
			}
		})
	}
}

// TestPrefetchersDeterministic: the predictors keep their state in maps, and
// what they suggest (and in which order) moves the miss rates, so two runners
// on one seed must print the same table.
func TestPrefetchersDeterministic(t *testing.T) {
	want, err := shared.Run("prefetchers")
	if err != nil {
		t.Fatal(err)
	}
	got, err := generated(1, 0.02).Run("prefetchers")
	if err != nil {
		t.Fatal(err)
	}
	if got.Render() != want.Render() {
		t.Errorf("two runners on one seed disagree:\n%s\n%s", got.Render(), want.Render())
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := shared.Run("fig99"); err == nil {
		t.Error("unknown experiment accepted")
	}
	if _, ok := Describe("fig1"); !ok {
		t.Error("Describe(fig1) not found")
	}
	if _, ok := Describe("nope"); ok {
		t.Error("Describe(nope) found")
	}
}

func TestRunAllOrder(t *testing.T) {
	// RunAll re-uses cached state, so this is cheap after
	// TestAllExperimentsRun.
	results, err := shared.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(All()) {
		t.Fatalf("RunAll returned %d results, want %d", len(results), len(All()))
	}
	for i, id := range All() {
		if results[i].ID != id {
			t.Errorf("result %d = %s, want %s", i, results[i].ID, id)
		}
	}
}

// TestFig10Headline checks the paper's headline result holds in shape:
// filecule LRU never loses to file LRU, and its advantage grows with cache
// size.
func TestFig10Headline(t *testing.T) {
	points := shared.CacheSweep()
	if len(points) != 2*len(Fig10CacheSizesTB) {
		t.Fatalf("sweep returned %d points", len(points))
	}
	type pair struct{ file, filecule float64 }
	pairs := make([]pair, 0, len(points)/2)
	for i := 0; i+1 < len(points); i += 2 {
		if points[i].Granularity != "file" || points[i+1].Granularity != "filecule" {
			t.Fatalf("unexpected sweep order at %d", i)
		}
		pairs = append(pairs, pair{points[i].MissRate, points[i+1].MissRate})
	}
	for i, p := range pairs {
		if p.filecule > p.file+1e-9 {
			t.Errorf("size %v TB: filecule miss rate %v worse than file %v",
				Fig10CacheSizesTB[i], p.filecule, p.file)
		}
	}
	smallGain := pairs[0].file / pairs[0].filecule
	largeGain := pairs[len(pairs)-1].file / pairs[len(pairs)-1].filecule
	if largeGain <= smallGain {
		t.Errorf("gain does not grow with cache size: small %v, large %v", smallGain, largeGain)
	}
	if largeGain < 2 {
		t.Errorf("large-cache gain = %v, want substantial (paper: 4-5x)", largeGain)
	}
	// Miss rates must decrease (weakly) with cache size per granularity.
	for i := 1; i < len(pairs); i++ {
		if pairs[i].file > pairs[i-1].file+1e-9 {
			t.Errorf("file miss rate increased with cache size at %d", i)
		}
		if pairs[i].filecule > pairs[i-1].filecule+1e-9 {
			t.Errorf("filecule miss rate increased with cache size at %d", i)
		}
	}
}

// TestCacheSweepMatchesReference holds the Figure 10 driver to the reference
// simulator: each of the 14 points, replayed on its own through cache.Sim
// with a pointer-and-map LRU, must equal what Runner.CacheSweep reads off
// the sweep engine, field for field, on two seeds.
func TestCacheSweepMatchesReference(t *testing.T) {
	const scale = 0.02
	for _, seed := range []int64{1, 2} {
		r := generated(seed, scale)
		tr, p, reqs := r.Trace(), r.Partition(), r.Requests()
		points := r.CacheSweep()
		if len(points) != 2*len(Fig10CacheSizesTB) {
			t.Fatalf("seed %d: %d points, want %d", seed, len(points), 2*len(Fig10CacheSizesTB))
		}
		for i, got := range points {
			tb := Fig10CacheSizesTB[i/2]
			capBytes := sim.ScaledCapacity(tb, scale)
			g, gran := cache.Granularity(cache.NewFileGranularity(tr)), "file"
			if i%2 == 1 {
				g, gran = cache.NewFileculeGranularity(tr, p), "filecule"
			}
			m := cache.NewSim(tr, g, cache.NewLRU(), capBytes).Replay(reqs)
			want := CacheSweepPoint{
				CacheTB:      tb,
				CacheBytes:   capBytes,
				Granularity:  gran,
				MissRate:     m.MissRate(),
				ByteMissRate: m.ByteMissRate(),
				BytesLoaded:  m.BytesLoaded,
			}
			if got != want {
				t.Errorf("seed %d point %d: sweep engine %+v != reference %+v", seed, i, got, want)
			}
		}
	}
}
