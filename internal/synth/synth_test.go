package synth

import (
	"math"
	"testing"
	"unsafe"

	"filecule/internal/core"
	"filecule/internal/stats"
	"filecule/internal/trace"
)

// testTrace generates the shared small-scale trace used by most tests.
func testTrace(tb testing.TB) *trace.Trace {
	tb.Helper()
	t, err := Generate(DZero(1, 0.02))
	if err != nil {
		tb.Fatalf("Generate: %v", err)
	}
	return t
}

func TestGenerateValidTrace(t *testing.T) {
	tr := testTrace(t)
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(tr.Jobs) == 0 || len(tr.Files) == 0 || len(tr.Users) == 0 {
		t.Fatalf("empty trace: %d jobs %d files %d users", len(tr.Jobs), len(tr.Files), len(tr.Users))
	}
	// A materialized trace keeps every job's list: none may carry append
	// slack.
	for i := range tr.Jobs {
		if f := tr.Jobs[i].Files; cap(f) != len(f) {
			t.Fatalf("job %d holds %d file IDs in capacity %d", i, len(f), cap(f))
		}
	}
}

// TestGenerateAllocsBelowFileCount: names go into arena blocks, so generating
// a trace costs fewer allocations than its catalog has files. One string per
// file would cost at least one each.
func TestGenerateAllocsBelowFileCount(t *testing.T) {
	cfg := DZero(1, 0.005)
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := Generate(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= float64(len(tr.Files)) {
		t.Errorf("Generate made %.0f allocations for a %d-file catalog, want fewer", allocs, len(tr.Files))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(DZero(7, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DZero(7, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Jobs) != len(b.Jobs) || len(a.Files) != len(b.Files) {
		t.Fatalf("sizes differ: %d/%d jobs, %d/%d files", len(a.Jobs), len(b.Jobs), len(a.Files), len(b.Files))
	}
	for i := range a.Jobs {
		ja, jb := &a.Jobs[i], &b.Jobs[i]
		if ja.User != jb.User || !ja.Start.Equal(jb.Start) || len(ja.Files) != len(jb.Files) {
			t.Fatalf("job %d differs between identically seeded runs", i)
		}
		for k := range ja.Files {
			if ja.Files[k] != jb.Files[k] {
				t.Fatalf("job %d file %d differs", i, k)
			}
		}
	}
	c, err := Generate(DZero(8, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	same := len(a.Jobs) == len(c.Jobs)
	if same {
		diff := false
		for i := range a.Jobs {
			if len(a.Jobs[i].Files) != len(c.Jobs[i].Files) || !a.Jobs[i].Start.Equal(c.Jobs[i].Start) {
				diff = true
				break
			}
		}
		same = !diff
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestCalibrationJobAndFileCounts(t *testing.T) {
	const scale = 0.02
	tr := testTrace(t)
	per, all := tr.SummarizeTiers()
	byTier := map[trace.Tier]trace.TierSummary{}
	for _, s := range per {
		byTier[s.Tier] = s
	}
	// Jobs per tier within 20% of scaled Table 1 (hot-filecule jobs land
	// in thumbnail, hence the tolerance).
	checks := []struct {
		tier trace.Tier
		jobs int
	}{
		{trace.TierReconstructed, 17898},
		{trace.TierRootTuple, 1307},
		{trace.TierThumbnail, 94625},
		{trace.TierOther, 120962},
	}
	for _, c := range checks {
		want := float64(c.jobs) * scale
		got := float64(byTier[c.tier].Jobs)
		if math.Abs(got-want)/want > 0.2 {
			t.Errorf("%v jobs = %v, want ~%v", c.tier, got, want)
		}
	}
	if all.Jobs != len(tr.Jobs) {
		t.Errorf("all-row jobs = %d, want %d", all.Jobs, len(tr.Jobs))
	}
	// Catalog size within 25% of scaled total files.
	wantFiles := (515677 + 60719 + 428610) * scale
	if got := float64(len(tr.Files)); math.Abs(got-wantFiles)/wantFiles > 0.25 {
		t.Errorf("files = %v, want ~%v", got, wantFiles)
	}
}

func TestCalibrationMeanFilesPerJob(t *testing.T) {
	tr := testTrace(t)
	jobs, reqs := 0, 0
	for i := range tr.Jobs {
		if tr.Jobs[i].Tier == trace.TierOther {
			continue
		}
		jobs++
		reqs += len(tr.Jobs[i].Files)
	}
	mean := float64(reqs) / float64(jobs)
	// Paper headline: 108 files per job on average. Accept 70-150.
	if mean < 70 || mean > 150 {
		t.Errorf("mean files/job = %v, want ~%d", mean, PaperMeanFilesPerJob)
	}
}

func TestCalibrationInputVolumePerJob(t *testing.T) {
	tr := testTrace(t)
	per, _ := tr.SummarizeTiers()
	want := map[trace.Tier]float64{
		trace.TierReconstructed: 36371,
		trace.TierRootTuple:     83041,
		trace.TierThumbnail:     53619,
	}
	for _, s := range per {
		w, ok := want[s.Tier]
		if !ok {
			continue
		}
		if math.Abs(s.InputPerJobMB-w)/w > 0.4 {
			t.Errorf("%v input/job = %.0f MB, want ~%.0f MB", s.Tier, s.InputPerJobMB, w)
		}
	}
}

func TestCalibrationJobDurations(t *testing.T) {
	tr := testTrace(t)
	per, _ := tr.SummarizeTiers()
	want := map[trace.Tier]float64{
		trace.TierReconstructed: 11.01,
		trace.TierRootTuple:     13.68,
		trace.TierThumbnail:     4.89,
		trace.TierOther:         7.68,
	}
	for _, s := range per {
		w := want[s.Tier]
		got := s.TimePerJob.Hours()
		if math.Abs(got-w)/w > 0.3 {
			t.Errorf("%v time/job = %.2f h, want ~%.2f h", s.Tier, got, w)
		}
	}
}

func TestDomainActivityOrdering(t *testing.T) {
	tr := testTrace(t)
	doms := tr.SummarizeDomains()
	if doms[0].Domain != ".gov" {
		t.Fatalf("most active domain = %s, want .gov", doms[0].Domain)
	}
	// .gov should dominate (>75% of jobs; paper has ~85%).
	if frac := float64(doms[0].Jobs) / float64(len(tr.Jobs)); frac < 0.75 {
		t.Errorf(".gov job share = %v, want > 0.75", frac)
	}
	// The big-4 order of Table 2 should be preserved.
	rank := map[string]int{}
	for i, d := range doms {
		rank[d.Domain] = i
	}
	if !(rank[".gov"] < rank[".de"] && rank[".de"] < rank[".uk"] && rank[".uk"] < rank[".edu"]) {
		t.Errorf("domain activity order = %v", doms)
	}
}

func TestHotFileculePlanted(t *testing.T) {
	tr := testTrace(t)
	p := core.Identify(tr)
	// Find the filecule containing the planted hot files.
	var hot *core.Filecule
	for i := range tr.Files {
		if tr.Files[i].Name == "hot-tmb-0" {
			hot = p.FileculeOf(tr.Files[i].ID)
		}
	}
	if hot == nil {
		t.Fatal("hot filecule not found")
	}
	if hot.NumFiles() != 2 {
		t.Fatalf("hot filecule has %d files, want 2 (it must not merge or split)", hot.NumFiles())
	}
	if size := p.Size(tr, hot.ID); math.Abs(float64(size)-2.2*(1<<30)) > 0.1*(1<<30) {
		t.Errorf("hot filecule size = %d, want ~2.2 GB", size)
	}
	users := core.UsersPerFilecule(tr, p)[hot.ID]
	sites := core.SitesPerFilecule(tr, p)[hot.ID]
	if users < 5 {
		t.Errorf("hot filecule users = %d, want a crowd (scaled-down 42)", users)
	}
	if sites < 3 {
		t.Errorf("hot filecule sites = %d, want several (scaled-down 6)", sites)
	}
	if hot.Requests < 10 {
		t.Errorf("hot filecule requests = %d, want many (scaled-down 634)", hot.Requests)
	}
}

func TestFileculeStructureExists(t *testing.T) {
	tr := testTrace(t)
	p := core.Identify(tr)
	if p.NumFilecules() < 100 {
		t.Fatalf("only %d filecules identified", p.NumFilecules())
	}
	// Multi-file filecules must be common (dataset-driven access), not
	// an all-singleton degenerate partition.
	multi := 0
	for i := range p.Filecules {
		if p.Filecules[i].NumFiles() > 1 {
			multi++
		}
	}
	if frac := float64(multi) / float64(p.NumFilecules()); frac < 0.2 {
		t.Errorf("multi-file filecule fraction = %v, want >= 0.2", frac)
	}
	// Mean files per filecule should be well above 1 but far below the
	// dataset mean only if heavy splitting; accept 2..30.
	mean := float64(p.NumFiles()) / float64(p.NumFilecules())
	if mean < 2 || mean > 30 {
		t.Errorf("mean files/filecule = %v, want 2..30", mean)
	}
}

func TestNonZipfPopularity(t *testing.T) {
	tr := testTrace(t)
	p := core.Identify(tr)
	fit := stats.FitZipf(core.RequestsPer(p))
	// The paper's popularity is non-Zipf with a flattened head: the head
	// exponent must be clearly shallower than a true Zipf's (>= 0.8
	// would be web-like).
	if fit.HeadAlpha > 0.8 {
		t.Errorf("head alpha = %v; expected flattened (non-Zipf) head", fit.HeadAlpha)
	}
}

func TestUsersPerFileculeShape(t *testing.T) {
	tr := testTrace(t)
	p := core.Identify(tr)
	users := core.UsersPerFilecule(tr, p)
	h := stats.NewCountHistogram(users)
	single := h.FractionAt(1)
	// Paper: ~10% of filecules have a single user; most are shared.
	if single < 0.02 || single > 0.6 {
		t.Errorf("single-user fraction = %v, want within (0.02, 0.6)", single)
	}
	if h.Max < 4 {
		t.Errorf("max users/filecule = %d, want >= 4 at small scale", h.Max)
	}
}

func TestScaleMonotone(t *testing.T) {
	small, err := Generate(DZero(3, 0.005))
	if err != nil {
		t.Fatal(err)
	}
	big, err := Generate(DZero(3, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	if len(big.Jobs) <= len(small.Jobs) || len(big.Files) <= len(small.Files) {
		t.Errorf("scaling not monotone: jobs %d->%d files %d->%d",
			len(small.Jobs), len(big.Jobs), len(small.Files), len(big.Files))
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Scale = 0 },
		func(c *Config) { c.Scale = math.NaN() },
		func(c *Config) { c.Scale = math.Inf(1) },
		func(c *Config) { c.UserScale = -3 },
		func(c *Config) { c.UserScale = math.NaN() },
		func(c *Config) { c.UserScale = math.Inf(1) },
		func(c *Config) { c.Days = 0 },
		func(c *Config) { c.Tiers = nil },
		func(c *Config) { c.Domains = nil },
		func(c *Config) { c.MeanFilesPerDataset = 0 },
		func(c *Config) { c.HomeRegions = 0 },
		func(c *Config) { c.HomeRegions = c.InterestRegions + 1 },
		func(c *Config) { c.SubsetProb = 1.5 },
		func(c *Config) { c.Tiers[0].MeanJobHours = 0 },
		func(c *Config) { c.Tiers[0].ActiveUserFrac = 0 },
	}
	for i, mutate := range bad {
		c := DZero(1, 0.01)
		mutate(&c)
		if _, err := Generate(c); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
}

func TestGenerateWithoutHotFilecule(t *testing.T) {
	c := DZero(1, 0.01)
	c.PlantHotFilecule = false
	tr, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Files {
		if tr.Files[i].Name == "hot-tmb-0" {
			t.Fatal("hot filecule planted despite PlantHotFilecule=false")
		}
	}
}

func TestDailyActivityRampsUp(t *testing.T) {
	tr := testTrace(t)
	days := tr.Daily()
	if len(days) < 300 {
		t.Fatalf("only %d active days", len(days))
	}
	// The configured arrival profile ramps up over the trace; the last
	// third must be busier than the first third on average.
	third := len(days) / 3
	sum := func(ds []trace.DailyActivity) int {
		n := 0
		for _, d := range ds {
			n += d.Jobs
		}
		return n
	}
	early, late := sum(days[:third]), sum(days[len(days)-third:])
	if late <= early {
		t.Errorf("activity did not ramp up: early=%d late=%d", early, late)
	}
}

func TestGeneratorDistributionStability(t *testing.T) {
	// Two seeds must draw file sizes from the same underlying per-tier
	// distribution (KS test does not reject), while different tiers'
	// distributions differ (KS rejects): the generator is stochastic but
	// stable.
	a, err := Generate(DZero(101, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DZero(202, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	sizes := func(tr *trace.Trace, tier trace.Tier) []float64 {
		var out []float64
		for i := range tr.Files {
			if tr.Files[i].Tier == tier {
				out = append(out, float64(tr.Files[i].Size))
			}
		}
		return out
	}
	same := stats.KSTest(sizes(a, trace.TierThumbnail), sizes(b, trace.TierThumbnail))
	if same.PValue < 0.001 {
		t.Errorf("same tier across seeds rejected: D=%v p=%v", same.D, same.PValue)
	}
	diff := stats.KSTest(sizes(a, trace.TierThumbnail), sizes(a, trace.TierReconstructed))
	if diff.PValue > 0.001 {
		t.Errorf("different tiers not separated: D=%v p=%v", diff.D, diff.PValue)
	}
}

// TestGenerateFilesInStartOrder pins Generate's layout: every job's file list
// is capped at its length and starts where the previous non-empty job's list
// ends, so the passes that walk the jobs in order read one array front to
// back.
func TestGenerateFilesInStartOrder(t *testing.T) {
	tr, err := Generate(DZero(3, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	var prev []trace.FileID
	for i := range tr.Jobs {
		files := tr.Jobs[i].Files
		if len(files) == 0 {
			continue
		}
		if cap(files) != len(files) {
			t.Fatalf("job %d: cap %d, len %d", i, cap(files), len(files))
		}
		if prev != nil && unsafe.SliceData(files) != (*trace.FileID)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(prev)), len(prev)*int(unsafe.Sizeof(prev[0])))) {
			t.Fatalf("job %d: list does not start where the previous one ends", i)
		}
		prev = files
	}
	if prev == nil {
		t.Fatal("no job has files")
	}
}
