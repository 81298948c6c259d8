package replica

import (
	"testing"
	"time"

	"filecule/internal/core"
	"filecule/internal/grid"
	"filecule/internal/trace"
)

var t0 = time.Date(2003, 1, 1, 0, 0, 0, 0, time.UTC)

// replTrace: hub site plus a remote site whose user repeatedly runs jobs on
// two filecules, A = {0,1} (hot) and B = {2,3} (cold), plus a rarely-used
// single file 4.
func replTrace(tb testing.TB) *trace.Trace {
	tb.Helper()
	b := trace.NewBuilder()
	b.Site("fnal", ".gov", 1)
	remote := b.Site("kit", ".de", 1)
	u := b.User("u", remote)
	for i := 0; i < 5; i++ {
		b.File(string(rune('a'+i)), 100, trace.TierThumbnail)
	}
	a := []trace.FileID{0, 1}
	bb := []trace.FileID{2, 3}
	// History (first half): A requested 3x, B once, file 4 once.
	b.SimpleJob(u, remote, t0, a)
	b.SimpleJob(u, remote, t0.Add(1*time.Hour), a)
	b.SimpleJob(u, remote, t0.Add(2*time.Hour), a)
	b.SimpleJob(u, remote, t0.Add(3*time.Hour), bb)
	b.SimpleJob(u, remote, t0.Add(4*time.Hour), []trace.FileID{4})
	// Future (second half): same pattern again.
	b.SimpleJob(u, remote, t0.Add(10*time.Hour), a)
	b.SimpleJob(u, remote, t0.Add(11*time.Hour), a)
	b.SimpleJob(u, remote, t0.Add(12*time.Hour), a)
	b.SimpleJob(u, remote, t0.Add(13*time.Hour), bb)
	b.SimpleJob(u, remote, t0.Add(14*time.Hour), []trace.FileID{4})
	return b.Build()
}

func gcfg(t *trace.Trace) grid.Config {
	return grid.Config{
		SiteBandwidth:    100,
		HubSiteBandwidth: 1e6,
		SiteCacheBytes:   1000,
	}
}

func TestStrategiesPlanWithinBudget(t *testing.T) {
	tr := replTrace(t)
	history, _ := tr.SplitByTime(0.5)
	p := core.Identify(history)
	for _, s := range []Strategy{PopularFiles{}, PopularFilecules{}} {
		plan := s.Plan(history, p, 250)
		for site, files := range plan {
			var used int64
			for _, f := range files {
				used += tr.Files[f].Size
			}
			if used > 250 {
				t.Errorf("%s: site %d placement %d bytes exceeds budget", s.Name(), site, used)
			}
		}
	}
}

func TestPopularFilesPrefersHot(t *testing.T) {
	tr := replTrace(t)
	history, _ := tr.SplitByTime(0.5)
	p := core.Identify(history)
	plan := PopularFiles{}.Plan(history, p, 200)
	files := plan[1] // remote site
	if len(files) != 2 {
		t.Fatalf("placed %d files, want 2 under 200-byte budget", len(files))
	}
	got := map[trace.FileID]bool{files[0]: true, files[1]: true}
	if !got[0] || !got[1] {
		t.Errorf("placed %v, want hot filecule files {0,1}", files)
	}
}

func TestPopularFileculesNeverSplits(t *testing.T) {
	tr := replTrace(t)
	history, _ := tr.SplitByTime(0.5)
	p := core.Identify(history)
	// Budget of 300 bytes fits A (200) but not A+B; file-granular
	// placement would add half of B.
	plan := PopularFilecules{}.Plan(history, p, 300)
	files := plan[1]
	seen := map[int]int{}
	for _, f := range files {
		seen[p.Of(f)]++
	}
	for fc, n := range seen {
		if n != p.Filecules[fc].NumFiles() {
			t.Errorf("filecule %d partially placed: %d of %d files", fc, n, p.Filecules[fc].NumFiles())
		}
	}
}

func TestEvaluateOrdersStrategies(t *testing.T) {
	tr := replTrace(t)
	history, future := tr.SplitByTime(0.5)
	outs, err := Evaluate(history, future, core.Identify(history), 250, gcfg(tr),
		NoReplication{}, PopularFiles{}, PopularFilecules{})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 {
		t.Fatalf("%d outcomes", len(outs))
	}
	byName := map[string]Outcome{}
	for _, o := range outs {
		byName[o.Strategy] = o
	}
	none := byName["none"]
	popF := byName["popular-files"]
	popC := byName["popular-filecules"]
	if none.PlacedBytes != 0 || none.Grid.WANBytes() == 0 {
		t.Errorf("baseline outcome = %+v", none)
	}
	// Any replication must reduce WAN bytes on this re-accessing workload.
	if popF.Grid.WANBytes() >= none.Grid.WANBytes() {
		t.Errorf("popular-files WAN %d not better than baseline %d", popF.Grid.WANBytes(), none.Grid.WANBytes())
	}
	if popC.Grid.WANBytes() >= none.Grid.WANBytes() {
		t.Errorf("popular-filecules WAN %d not better than baseline %d", popC.Grid.WANBytes(), none.Grid.WANBytes())
	}
	// Filecule placement never stalls more jobs than file placement at
	// equal budget on this workload (atomic groups -> complete inputs).
	if popC.Grid.JobsStalled > popF.Grid.JobsStalled {
		t.Errorf("filecule placement stalled %d jobs vs %d for files", popC.Grid.JobsStalled, popF.Grid.JobsStalled)
	}
}

func TestBudgetPanics(t *testing.T) {
	tr := replTrace(t)
	history, _ := tr.SplitByTime(0.5)
	p := core.Identify(history)
	for i, f := range []func(){
		func() { PopularFiles{}.Plan(history, p, 0) },
		func() { PopularFilecules{}.Plan(history, p, -5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}

func TestSplitByTime(t *testing.T) {
	tr := replTrace(t)
	h, f := tr.SplitByTime(0.5)
	if len(h.Jobs)+len(f.Jobs) != len(tr.Jobs) {
		t.Fatalf("split lost jobs: %d + %d != %d", len(h.Jobs), len(f.Jobs), len(tr.Jobs))
	}
	hEnd := h.Jobs[len(h.Jobs)-1].Start
	if f.Jobs[0].Start.Before(hEnd) {
		t.Error("future window starts before history ends")
	}
	if err := h.Validate(); err != nil {
		t.Errorf("history invalid: %v", err)
	}
	if err := f.Validate(); err != nil {
		t.Errorf("future invalid: %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SplitByTime(1.5) did not panic")
			}
		}()
		tr.SplitByTime(1.5)
	}()
}

func TestCompleteFileculesPrioritizesPartials(t *testing.T) {
	tr := replTrace(t)
	history, _ := tr.SplitByTime(0.5)
	p := core.Identify(history)
	// Round 1 placed half of filecule A = {0,1} and half of B = {2,3}.
	existing := map[trace.SiteID][]trace.FileID{1: {0, 2}}
	c := CompleteFilecules{Existing: existing}
	// Budget 100 completes exactly one partial; the hot one (A, 3
	// requests) wins over B (1 request).
	plan := c.Plan(history, p, 100)
	files := plan[1]
	if len(files) != 1 || files[0] != 1 {
		t.Fatalf("plan = %v, want [1] (complete the hot partial)", files)
	}
	// Budget 200 completes both partials before anything new.
	plan = c.Plan(history, p, 200)
	got := map[trace.FileID]bool{}
	for _, f := range plan[1] {
		got[f] = true
	}
	if !got[1] || !got[3] || len(plan[1]) != 2 {
		t.Errorf("plan = %v, want both partials completed", plan[1])
	}
	// Additional files never duplicate the existing placement.
	for _, f := range plan[1] {
		for _, e := range existing[1] {
			if f == e {
				t.Errorf("plan re-places existing file %d", f)
			}
		}
	}
}

func TestCompleteFileculesFillsWithWholeGroups(t *testing.T) {
	tr := replTrace(t)
	history, _ := tr.SplitByTime(0.5)
	p := core.Identify(history)
	// No existing placement: behaves like whole-filecule placement.
	plan := CompleteFilecules{}.Plan(history, p, 250)
	seen := map[int]int{}
	for _, f := range plan[1] {
		seen[p.Of(f)]++
	}
	for fc, n := range seen {
		if n != p.Filecules[fc].NumFiles() {
			t.Errorf("filecule %d partially placed (%d of %d)", fc, n, p.Filecules[fc].NumFiles())
		}
	}
}

func TestTwoRoundPlacementBeatsFileContinuation(t *testing.T) {
	tr := replTrace(t)
	history, future := tr.SplitByTime(0.5)
	p := core.Identify(history)

	// Round 1: file-granular placement that splits filecules (budget 100
	// places only the hottest single file).
	round1 := PopularFiles{}.Plan(history, p, 100)

	run := func(round2 map[trace.SiteID][]trace.FileID) grid.Metrics {
		sys, err := grid.New(future, gcfg(tr))
		if err != nil {
			t.Fatal(err)
		}
		for site, files := range round1 {
			sys.Warm(site, files)
		}
		for site, files := range round2 {
			sys.Warm(site, files)
		}
		return sys.Replay()
	}

	// Round 2a: more popular files. Round 2b: complete partial filecules.
	more := PopularFiles{}.Plan(history, p, 200)
	complete := CompleteFilecules{Existing: round1}.Plan(history, p, 100)

	ma := run(more)
	mb := run(complete)
	if mb.JobsStalled > ma.JobsStalled {
		t.Errorf("completion stalled %d jobs vs %d for file continuation", mb.JobsStalled, ma.JobsStalled)
	}
}
