package synth

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"filecule/internal/dist"
	"filecule/internal/trace"
)

// XRootD-style scientific-cache workload model, after Bellavita et al.'s
// characterization of the US CMS XCache federation ("Understanding the
// Scientific Data Cache Ecosystem"): unlike the dataset-oriented DZero
// workload, an XRootD cache sees a long birth-ordered stream of files where
// (a) a large fraction of files are touched exactly once and never again,
// (b) reuse probability decays exponentially with file age (most re-reads
// hit recently-born files), and (c) the remaining correlation structure
// comes from jobs sweeping short contiguous runs of files that were
// registered together (the vestigial "dataset" signal — much weaker than
// DZero's). This is the adversarial regime for filecule caching: group
// structure exists but is shallow, so the Figure-10 comparison on this
// model answers whether filecule granularity still wins when sharing is
// thin.
//
// The generator is deterministic for a given XRootDConfig (including Seed)
// and streams jobs through bounded memory like the DZero source: only the
// catalogs and samplers are resident.

// XRootDConfig parameterizes the scientific-cache workload at Scale = 1.
// Start from XRootDDefaults: every field is taken as given, zero included.
type XRootDConfig struct {
	Seed  int64
	Scale float64

	// Days is the trace span; files are born uniformly across it.
	Days int
	// Files and Jobs are the at-Scale-1 catalog and job counts.
	Files int
	Jobs  int
	// MeanFileSizeMB / FileSizeSigma / MaxFileSizeMB shape the lognormal
	// file-size distribution (clamped to [1 MB, MaxFileSizeMB]).
	MeanFileSizeMB float64
	FileSizeSigma  float64
	MaxFileSizeMB  float64
	// MeanFilesPerJob is the mean input-set size; XCache jobs read few
	// files (2–3), not DZero's 108.
	MeanFilesPerJob float64
	// OneTouchFrac is the probability a job request draws from the
	// never-seen cold pool (the one-touch population).
	OneTouchFrac float64
	// DecayDays is the mean age, in days, of files selected for reuse:
	// reuse probability decays exponentially with age at this constant.
	DecayDays float64
	// GroupProb is the probability a job reads a contiguous birth-order
	// group of files instead of independent picks; GroupSize is the mean
	// length of such a run.
	GroupProb float64
	GroupSize float64
	// Users and Sites are the at-Scale-1 population sizes.
	Users int
	Sites int
	// ZipfS skews which recently-born files are re-read (higher = the
	// popular few dominate).
	ZipfS float64
}

// XRootDDefaults returns the calibrated configuration at the given seed and
// scale: at Scale 1, 400k files over 180 days, 150k jobs averaging ~2.6
// files each, 35% one-touch draws, 7-day reuse decay, and 30% of jobs
// reading a contiguous birth group of mean length 8.
func XRootDDefaults(seed int64, scale float64) XRootDConfig {
	return XRootDConfig{
		Seed:            seed,
		Scale:           scale,
		Days:            180,
		Files:           400_000,
		Jobs:            150_000,
		MeanFileSizeMB:  950, // CMS AODs cluster around a GB
		FileSizeSigma:   1.1,
		MaxFileSizeMB:   8 * 1024,
		MeanFilesPerJob: 2.6,
		OneTouchFrac:    0.35,
		DecayDays:       7,
		GroupProb:       0.30,
		GroupSize:       8,
		Users:           300,
		Sites:           12,
		ZipfS:           0.9,
	}
}

// Validate checks the configuration, naming each refused value by its
// workload option key (or, for a knob the registry does not expose, its
// field name).
func (c XRootDConfig) Validate() error {
	for _, k := range []struct {
		key string
		ok  bool
		v   any
		is  string
	}{
		{"scale", positiveFinite(c.Scale), c.Scale, "> 0 and finite"},
		{"days", c.Days > 0, c.Days, "> 0"},
		{"Files", c.Files > 0, c.Files, "> 0"},
		{"Jobs", c.Jobs > 0, c.Jobs, "> 0"},
		{"Users", c.Users > 0, c.Users, "> 0"},
		{"Sites", c.Sites > 0, c.Sites, "> 0"},
		{"MeanFileSizeMB", positiveFinite(c.MeanFileSizeMB), c.MeanFileSizeMB, "> 0 and finite"},
		{"FileSizeSigma", c.FileSizeSigma >= 0 && !math.IsInf(c.FileSizeSigma, 1), c.FileSizeSigma, ">= 0 and finite"},
		{"MaxFileSizeMB", c.MaxFileSizeMB >= 1 && !math.IsInf(c.MaxFileSizeMB, 1), c.MaxFileSizeMB, ">= 1 and finite"},
		{"mean-files", c.MeanFilesPerJob >= 1 && !math.IsInf(c.MeanFilesPerJob, 1), c.MeanFilesPerJob, ">= 1 and finite"},
		{"one-touch", c.OneTouchFrac >= 0 && c.OneTouchFrac < 1, c.OneTouchFrac, "in [0,1)"},
		{"decay-days", positiveFinite(c.DecayDays), c.DecayDays, "> 0 and finite"},
		{"group-prob", c.GroupProb >= 0 && c.GroupProb <= 1, c.GroupProb, "in [0,1]"},
		{"group-size", c.GroupSize >= 1 && !math.IsInf(c.GroupSize, 1), c.GroupSize, ">= 1 and finite"},
		{"ZipfS", c.ZipfS >= 0 && !math.IsInf(c.ZipfS, 1), c.ZipfS, ">= 0 and finite"},
	} {
		if !k.ok {
			return fmt.Errorf("synth: xrootd %s=%v must be %s", k.key, k.v, k.is)
		}
	}
	return nil
}

// XRootDEpoch anchors the synthetic timeline (arbitrary but fixed so traces
// are reproducible byte-for-byte).
var XRootDEpoch = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

// NewXRootDSource returns a streaming trace.Source over the scientific-cache
// workload. Jobs are emitted in nondecreasing start order, so materializing
// and sorting is a stable no-op reordering.
func NewXRootDSource(cfg XRootDConfig) (trace.Source, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &xrootdGen{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	g.build()
	return g, nil
}

type xrootdGen struct {
	cfg XRootDConfig
	rng *rand.Rand

	catalog *trace.Trace   // files, users and sites; no jobs
	files   []trace.FileID // birth order == ID order
	users   []trace.UserID
	sites   []trace.SiteID

	nFiles  int
	nJobs   int
	span    time.Duration // trace span
	birthDt time.Duration // spacing between consecutive file births

	sizeS   dist.Lognormal
	userOf  dist.Zipf // which user runs a job
	jitterZ dist.Zipf // rank jitter around the age-targeted file

	emitted int
	job     trace.Job
	fileBuf []trace.FileID
	closed  bool
}

// build constructs the catalogs. All randomness is drawn from g.rng in a
// fixed order, so the stream is a pure function of the config.
func (g *xrootdGen) build() {
	c := &g.cfg
	g.nFiles = scaleCount(c.Files, c.Scale, 64)
	g.nJobs = scaleCount(c.Jobs, c.Scale, 32)
	nUsers := scaleCount(c.Users, math.Sqrt(c.Scale), 4)
	nSites := scaleCount(c.Sites, math.Sqrt(c.Scale), 2)
	if nUsers < nSites {
		nUsers = nSites
	}
	g.span = time.Duration(c.Days) * 24 * time.Hour
	g.birthDt = g.span / time.Duration(g.nFiles)

	// The builder's name→ID maps serve construction only: the stream keeps
	// the built catalogs, not the builder.
	b := trace.NewBuilder()
	g.sites = make([]trace.SiteID, nSites)
	for i := range g.sites {
		g.sites[i] = b.Site(fmt.Sprintf("xcache-t2-%02d", i), ".edu", 1+i%4)
	}
	g.users = make([]trace.UserID, nUsers)
	for i := range g.users {
		g.users[i] = b.User(fmt.Sprintf("cms%03d", i), g.sites[i%nSites])
	}

	g.sizeS = dist.LognormalFromMean(c.MeanFileSizeMB, c.FileSizeSigma)
	maxB := int64(c.MaxFileSizeMB * 1e6)
	g.files = make([]trace.FileID, g.nFiles)
	for i := range g.files {
		size := dist.ClampInt64(g.sizeS.Sample(g.rng)*1e6, 1e6, maxB)
		g.files[i] = b.File(fmt.Sprintf("/store/data/block%04d/f%07d.root", i/256, i), size, trace.TierReconstructed)
	}
	g.catalog = b.Build()

	g.userOf = dist.NewZipf(1.1, uint64(len(g.users)))
	// Jitter spreads reuse over ~1 birth-day of neighbors around the
	// age-targeted file, Zipf-weighted toward the target itself.
	perDay := g.nFiles/c.Days + 1
	g.jitterZ = dist.NewZipf(c.ZipfS, uint64(perDay))
}

func (g *xrootdGen) Files() []trace.File { return g.catalog.Files }
func (g *xrootdGen) Users() []trace.User { return g.catalog.Users }
func (g *xrootdGen) Sites() []trace.Site { return g.catalog.Sites }

// birthTime returns file i's registration time.
func (g *xrootdGen) birthTime(i int) time.Time {
	return XRootDEpoch.Add(time.Duration(i) * g.birthDt)
}

// pickReuse selects a file for re-reading as of arrival time now: sample an
// age from Exp(DecayDays), map it to the birth index that age ago, then
// jitter by a Zipf rank so the popular few near the target dominate.
func (g *xrootdGen) pickReuse(bornBy int) trace.FileID {
	ageDays := g.rng.ExpFloat64() * g.cfg.DecayDays
	perDay := float64(g.nFiles) / float64(g.cfg.Days)
	target := bornBy - int(ageDays*perDay)
	if target < 0 {
		target = 0
	}
	j := int(g.jitterZ.Rank(g.rng))
	if g.rng.Intn(2) == 0 {
		j = -j
	}
	idx := target + j
	if idx < 0 {
		idx = 0
	}
	if idx > bornBy {
		idx = bornBy
	}
	return g.files[idx]
}

func (g *xrootdGen) Next() (*trace.Job, error) {
	if g.closed {
		return nil, fmt.Errorf("synth: xrootd source is closed")
	}
	if g.emitted >= g.nJobs {
		return nil, io.EOF
	}
	c := &g.cfg

	// Jobs arrive uniformly across the span in emission order, so starts
	// are nondecreasing by construction.
	frac := float64(g.emitted) / float64(g.nJobs)
	start := XRootDEpoch.Add(time.Duration(frac * float64(g.span)))
	// bornBy: index of the newest file that exists at this arrival.
	bornBy := int(frac * float64(g.nFiles))
	if bornBy >= g.nFiles {
		bornBy = g.nFiles - 1
	}

	g.fileBuf = g.fileBuf[:0]
	if g.rng.Float64() < c.GroupProb {
		// Contiguous birth-order group: the weak dataset signal.
		n := dist.ClampInt(g.rng.ExpFloat64()*c.GroupSize, 2, 4*int(c.GroupSize))
		lead := g.pickReuse(bornBy)
		for i := 0; i < n; i++ {
			idx := int(lead) + i
			if idx > bornBy {
				break
			}
			g.fileBuf = append(g.fileBuf, g.files[idx])
		}
	} else {
		n := dist.ClampInt(g.rng.ExpFloat64()*(c.MeanFilesPerJob-1)+1, 1, 64)
		for i := 0; i < n; i++ {
			if g.rng.Float64() < c.OneTouchFrac {
				// Cold draw: a uniformly random already-born file.
				// Most of these are genuinely one-touch because the
				// reuse path concentrates on the recent tail.
				g.fileBuf = append(g.fileBuf, g.files[g.rng.Intn(bornBy+1)])
			} else {
				g.fileBuf = append(g.fileBuf, g.pickReuse(bornBy))
			}
		}
	}

	u := g.users[g.userOf.Rank(g.rng)]
	dur := time.Duration((5 + g.rng.ExpFloat64()*40) * float64(time.Minute))
	g.job = trace.Job{
		ID:     trace.JobID(g.emitted),
		User:   u,
		Site:   g.catalog.Users[u].Site,
		Tier:   trace.TierReconstructed,
		Family: trace.FamilyAnalysis,
		Exec:   xrootdExec,
		Start:  start,
		End:    start.Add(dur),
		Files:  g.fileBuf,
	}
	g.emitted++
	return &g.job, nil
}

// xrootdExec is what ran every job of an XRootD trace: one shared value.
var xrootdExec = &trace.Exec{Node: "xcache", App: "cmsRun"}

func (g *xrootdGen) Close() error {
	g.closed = true
	return nil
}

// GenerateXRootD materializes the full scientific-cache trace, start-sorted
// and validated — the Load-path counterpart of NewXRootDSource.
func GenerateXRootD(cfg XRootDConfig) (*trace.Trace, error) {
	src, err := NewXRootDSource(cfg)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	t, err := trace.Materialize(src)
	if err != nil {
		return nil, err
	}
	t.SortJobsByStart()
	return t, nil
}
