package experiments

import (
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"filecule/internal/cache"
	"filecule/internal/core"
	"filecule/internal/report"
	"filecule/internal/sim"
	"filecule/internal/synth"
	"filecule/internal/trace"
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
				if len(tb.Rows()) == 0 {
					t.Errorf("empty table %q", tb.Title)
				}
			}
		})
	}
}

// TestPrefetchersDeterministic: the predictors keep their state in maps, and
// what they suggest (and in which order) moves the miss rates, so two runners
// on one seed must print the same table. The table's atomic filecule-LRU row
// is Figure 10's 10 TB filecule point of the same runner.
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

	fig10 := report.NewTable("", "scheme", "miss rate", "byte miss rate", "prefetch GB", "total loaded GB")
	for _, c := range shared.CacheSweep() {
		if c.CacheTB == 10 && c.Granularity == "filecule" {
			fig10.AddRow("filecule LRU (atomic units)", c.MissRate, c.ByteMissRate, 0.0, float64(c.Metrics.BytesLoaded)/(1<<30))
		}
	}
	row := rowLines(fig10)[0]
	if !slices.Contains(rowLines(want.Tables[0]), row) {
		t.Errorf("prefetchers table has no row %q (Figure 10's 10 TB filecule point):\n%s", row, want.Render())
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
	cells := shared.CacheSweep()
	n := len(sim.Fig10CacheSizesTB)
	if len(cells) != 2*n {
		t.Fatalf("sweep returned %d cells", len(cells))
	}
	type pair struct{ file, filecule float64 }
	pairs := make([]pair, 0, n)
	for i, f := range cells[:n] {
		if f.Granularity != "file" || cells[n+i].Granularity != "filecule" {
			t.Fatalf("unexpected sweep order at %d", i)
		}
		pairs = append(pairs, pair{f.MissRate, cells[n+i].MissRate})
	}
	for i, p := range pairs {
		if p.filecule > p.file+1e-9 {
			t.Errorf("size %v TB: filecule miss rate %v worse than file %v",
				sim.Fig10CacheSizesTB[i], p.filecule, p.file)
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
// simulator: each of the 14 cells, replayed on its own through cache.Sim
// with a pointer-and-map LRU, must equal what Runner.CacheSweep reads off
// the sweep engine, metrics and rates alike, on two seeds.
func TestCacheSweepMatchesReference(t *testing.T) {
	const scale = 0.02
	n := len(sim.Fig10CacheSizesTB)
	for _, seed := range []int64{1, 2} {
		r := generated(seed, scale)
		tr, p, reqs := r.Trace(), r.Partition(), r.Requests()
		cells := r.CacheSweep()
		if len(cells) != 2*n {
			t.Fatalf("seed %d: %d cells, want %d", seed, len(cells), 2*n)
		}
		for i, got := range cells {
			tb := sim.Fig10CacheSizesTB[i%n]
			capBytes := sim.ScaledCapacity(tb, scale)
			g, gran := cache.Granularity(cache.NewFileGranularity(tr)), "file"
			if i >= n {
				g, gran = cache.NewFileculeGranularity(tr, p), "filecule"
			}
			m := cache.NewSim(tr, g, cache.NewLRU(), capBytes).Replay(reqs)
			want := sim.CellResult{
				Policy:        "lru",
				Granularity:   gran,
				CacheTB:       tb,
				CapacityBytes: capBytes,
				Metrics:       m,
				MissRate:      m.MissRate(),
				ByteMissRate:  m.ByteMissRate(),
			}
			if got != want {
				t.Errorf("seed %d cell %d: sweep engine %+v != reference %+v", seed, i, got, want)
			}
		}
	}
}

// TestAblationMatchesReference holds the ablation to the reference
// simulator: each of its 18 rows — every sweep policy at every granularity,
// in cell order — replayed on its own through cache.Sim at the 10 TB point
// must render the same cells. A quarter of shared's scale keeps the 18
// reference replays cheap under the race detector.
func TestAblationMatchesReference(t *testing.T) {
	r := generated(1, 0.005)
	tr, p, reqs := r.Trace(), r.Partition(), r.Requests()
	res, err := r.Run("ablation")
	if err != nil {
		t.Fatal(err)
	}
	capBytes := sim.ScaledCapacity(10, r.scale)
	want := report.NewTable("", "granularity", "policy", "miss rate", "byte miss rate", "bytes loaded (GB)")
	for _, gran := range sim.SweepGranularities {
		for _, name := range sim.SweepPolicies {
			g := cache.Granularity(cache.NewFileGranularity(tr))
			if gran == "filecule" {
				g = cache.NewFileculeGranularity(tr, p)
			}
			var pol cache.Policy
			switch name {
			case "lru":
				pol = cache.NewLRU()
			case "arc":
				pol = cache.NewARC(capBytes)
			case "gds":
				pol = cache.NewGDS()
			case "gdsf":
				pol = cache.NewGDSF()
			case "lfuda":
				pol = cache.NewLFUDA()
			case "opt":
				ranked := g
				if gran == "bundle" {
					ranked = cache.NewFileculeGranularity(tr, p)
				}
				pol = cache.NewOPTPolicy(cache.NextUse(ranked, reqs))
			default:
				t.Fatalf("no reference for sweep policy %q", name)
			}
			if gran == "bundle" {
				pol = cache.NewBundlePolicy(pol, cache.NewFileculeGranularity(tr, p))
			}
			m := cache.NewSim(tr, g, pol, capBytes).Replay(reqs)
			want.AddRow(gran, name, m.MissRate(), m.ByteMissRate(), float64(m.BytesLoaded)/(1<<30))
		}
	}
	got, wantRows := rowLines(res.Tables[0]), rowLines(want)
	if len(got) != 18 || !slices.Equal(got, wantRows) {
		t.Errorf("ablation table differs from cache.Sim replays:\n got %q\nwant %q", got, wantRows)
	}
}

// rowLines joins each row's cells with tabs.
func rowLines(tb *report.Table) []string {
	var out []string
	for _, row := range tb.Rows() {
		out = append(out, strings.Join(row, "\t"))
	}
	return out
}

// TestPartialRowOrder: the per-domain rows come from a map, busiest first;
// seed 2 has two ties on job count (.nl and .fr at 12 jobs, .in and .mx at
// 1), which must fall in name order on every run.
func TestPartialRowOrder(t *testing.T) {
	r := generated(2, 0.05)
	var first []string
	for run := 0; run < 8; run++ {
		res, err := r.Run("partial")
		if err != nil {
			t.Fatal(err)
		}
		rows := res.Tables[0].Rows()
		for i := 1; i < len(rows); i++ {
			a, b := rows[i-1], rows[i]
			ja, _ := strconv.Atoi(a[1])
			jb, _ := strconv.Atoi(b[1])
			if ja < jb || ja == jb && a[0] > b[0] {
				t.Fatalf("run %d: row %q before %q", run, a[:2], b[:2])
			}
		}
		if lines := rowLines(res.Tables[0]); first == nil {
			first = lines
		} else if !slices.Equal(lines, first) {
			t.Fatalf("run %d differs from run 0:\n%q\n%q", run, lines, first)
		}
	}
}

// TestSection6OnOneSite: on a one-site workload every job runs at the hub and
// nothing is fetched over the WAN, so each Section 6 replay experiment prints
// a note saying so in place of a table of zeros.
func TestSection6OnOneSite(t *testing.T) {
	b := trace.NewBuilder()
	site := b.Site("lab", ".com", 4)
	user := b.User("u", site)
	files := []trace.FileID{b.File("a", 1<<30, trace.TierThumbnail), b.File("b", 1<<30, trace.TierThumbnail)}
	start := time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 20; i++ {
		b.SimpleJob(user, site, start.Add(time.Duration(i)*time.Hour), files[:1+i%2])
	}
	r := NewForTrace(b.Build(), 0.01)
	for _, id := range []string{"replication", "replsweep", "placement"} {
		res, err := r.Run(id)
		if err != nil {
			t.Fatalf("Run(%s): %v", id, err)
		}
		if len(res.Tables) != 0 || len(res.Notes) != 1 || !strings.Contains(res.Notes[0], "hub") {
			t.Errorf("%s: %d tables, notes %q; want only the hub-only note", id, len(res.Tables), res.Notes)
		}
	}
}

// TestAllExperimentsRunOnOneJob: the smallest valid trace, one job reading
// one file, runs through every experiment, with the file empty (trace.Validate
// allows size 0) and with it 1 MB. Swarm's case study is then a filecule of no
// bytes, which the fluid model refuses: it prints speedup 1, as the
// whole-trace table does for such a filecule.
func TestAllExperimentsRunOnOneJob(t *testing.T) {
	for _, size := range []int64{0, 1 << 20} {
		b := trace.NewBuilder()
		site := b.Site("lab", ".gov", 1)
		f := b.File("only", size, trace.TierThumbnail)
		b.SimpleJob(b.User("u", site), site, time.Date(2003, 1, 1, 0, 0, 0, 0, time.UTC), []trace.FileID{f})
		r := NewForTrace(b.Build(), 1)
		for _, id := range All() {
			t.Run(strconv.FormatInt(size, 10)+"B/"+id, func(t *testing.T) {
				res, err := r.Run(id)
				if err != nil {
					t.Fatal(err)
				}
				if id == "swarm" && size == 0 {
					for _, row := range res.Tables[0].Rows() {
						if got := row[len(row)-1]; got != "1" {
							t.Errorf("%s: speedup %s on an empty filecule, want 1", row[0], got)
						}
					}
				}
			})
		}
	}
}

// TestArrivalGapsCoverMultiSiteFilecules: swarm's whole-trace table bins
// every filecule read at two or more sites exactly once, with its bytes,
// and prints all six bins at every seed so the seeds fold.
func TestArrivalGapsCoverMultiSiteFilecules(t *testing.T) {
	tr, p := shared.Trace(), shared.Partition()
	want, wantBytes := 0, int64(0)
	for fc, n := range core.SitesPerFilecule(tr, p) {
		if n >= 2 {
			want++
			wantBytes += p.Size(tr, fc)
		}
	}
	if want == 0 {
		t.Fatal("no filecule read at two sites; the check is vacuous")
	}
	got, gotBytes := 0, int64(0)
	for _, b := range shared.arrivalGaps() {
		got += b.filecules
		gotBytes += b.bytes
		if b.filecules == 0 && (b.overlap != 0 || b.downloads != 0 || b.speedups != 0) {
			t.Errorf("empty bin with totals %+v", b)
		}
	}
	if got != want || gotBytes != wantBytes {
		t.Errorf("bins hold %d filecules of %d B, want %d of %d B", got, gotBytes, want, wantBytes)
	}
	res, err := shared.Run("swarm")
	if err != nil {
		t.Fatal(err)
	}
	if rows := res.Tables[1].Rows(); len(rows) != len(arrivalGapBins) {
		t.Errorf("whole-trace table has %d rows, want one per bin (%d)", len(rows), len(arrivalGapBins))
	}

	// A trace may hold empty files (trace.Validate allows size 0). A
	// filecule of no bytes read at two sites has nothing to download, so
	// the model is not run on it: it counts in the last bin, at speedup 1.
	b := trace.NewBuilder()
	gov, de := b.Site("gov-0", ".gov", 1), b.Site("de-0", ".de", 1)
	empty := []trace.FileID{b.File("empty", 0, trace.TierThumbnail)}
	start := time.Date(2003, 1, 1, 0, 0, 0, 0, time.UTC)
	b.SimpleJob(b.User("u0", gov), gov, start, empty)
	b.SimpleJob(b.User("u1", de), de, start.Add(time.Hour), empty)
	bins := NewForTrace(b.Build(), 1).arrivalGaps()
	if last := bins[len(bins)-1]; last.filecules != 1 || last.bytes != 0 || last.speedups != 1 {
		t.Errorf("empty filecule at two sites: last bin %+v, want one filecule of 0 B at speedup 1", last)
	}
}
