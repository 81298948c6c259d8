package synth

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"time"

	"filecule/internal/dist"
	"filecule/internal/trace"
)

// Generate produces a synthetic trace from the configuration. The same
// Config always yields the identical trace.
func Generate(cfg Config) (*trace.Trace, error) {
	g, err := newGenerator(cfg)
	if err != nil {
		return nil, err
	}
	phases := g.jobPhases()
	n := 0
	for _, ph := range phases {
		n += ph.n
	}
	jobs := make([]trace.Job, 0, n)
	for _, ph := range phases {
		for k := 0; k < ph.n; k++ {
			jobs = append(jobs, ph.make())
		}
	}
	g.joinCatalog()
	t := g.catalog
	t.Jobs = jobs
	t.SortJobsByStart()
	startOrderFiles(t.Jobs)
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("synth: generated invalid trace: %w", err)
	}
	return &t, nil
}

// startOrderFiles moves every job's file list into one exact-size array, in
// job order: the lists were drawn in generation order, and every pass that
// follows — validation, identification, encoding, the request stream — walks
// the jobs in start order, so it then reads the IDs front to back. Each job
// gets its own list, hot jobs included, capped at its length.
func startOrderFiles(jobs []trace.Job) {
	total := 0
	for i := range jobs {
		total += len(jobs[i].Files)
	}
	all := make([]trace.FileID, total)
	off := 0
	for i := range jobs {
		j := &jobs[i]
		if len(j.Files) == 0 {
			continue
		}
		n := copy(all[off:], j.Files)
		j.Files = all[off : off+n : off+n]
		off += n
	}
}

// newGenerator validates the config and runs every setup phase: catalogs,
// datasets, interest lists and arrival profile. After it returns, the user
// and site catalogs are complete, every file ID (the hot case-study files
// included) is handed out, and only job emission — via jobPhases — remains.
// The file catalog itself — sizes from the recorded variates, names — is
// built on its own goroutine while jobs are drawn; joinCatalog waits for it.
// None of the phase constructors draw from the RNG, so jobs pulled lazily see
// exactly the draw sequence Generate's eager loops see.
//
// The rule for every change here: no draw moves. What is drawn, from which
// sampler, in which order decides the trace; how names are formatted, slices
// sized, duplicates detected or on which goroutine a drawn value is turned
// into a size must not (TestGeneratorGoldens).
func newGenerator(cfg Config) (*generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &generator{
		cfg: &cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
	// The builder and its name→ID maps are garbage once the (few) sites and
	// users are taken from it.
	b := trace.NewBuilder()
	g.buildSites(b)
	g.buildUsers(b)
	g.catalog = *b.Build()
	g.buildDatasets()
	// Hot files are created directly after the datasets: the job loops
	// between here and plantHotFilecule's original position create no
	// files and the creation draws no randomness, so IDs and RNG state
	// are unchanged — but every file ID exists before any job does.
	g.plantHotFiles()
	files := make(chan []trace.File, 1)
	go func(datasets [][]dataset, z []float64, hot int) {
		files <- fileCatalog(g.cfg, datasets, z, hot)
	}(g.datasets, g.sizeZ, len(g.hotFiles))
	g.files, g.sizeZ = files, nil
	g.buildInterests()
	g.buildDayChooser()
	return g, nil
}

// jobPhase is one deterministic run of jobs: make must be called exactly n
// times, in phase order, because each call advances the shared RNG.
type jobPhase struct {
	n    int
	make func() trace.Job
}

// jobPhases returns the job runs in generation order: per-tier analysis
// jobs, non-analysis background jobs, then the hot case-study jobs.
func (g *generator) jobPhases() []jobPhase {
	var phases []jobPhase
	for t := range g.cfg.Tiers {
		phases = append(phases, g.tierPhase(t))
	}
	phases = append(phases, g.otherPhase(), g.hotPhase())
	return phases
}

// dataset is a group of files created together (a SAM dataset): the n
// consecutive file IDs from first. Whole- or subset-requests of datasets are
// what induce filecule structure.
type dataset struct {
	first     trace.FileID
	n, region int32
}

type userInfo struct {
	id     trace.UserID
	site   trace.SiteID
	domain int
	active []bool // per tier index
	// interests[tier] is the user's ordered interest list (favorite
	// first) of dataset indices within that tier.
	interests [][]int
}

type generator struct {
	cfg *Config
	rng *rand.Rand
	// catalog holds the files, users and sites; Generate adds the jobs.
	catalog trace.Trace

	// Per domain.
	domainSites [][]trace.SiteID
	siteNodes   map[trace.SiteID][]int32 // indexes into nodeNames
	nodeNames   []string
	domainUsers [][]int // indices into users

	users []userInfo
	// usersByDomainTier[d][t] lists user indices of domain d active in
	// tier t; usersByTier[t] is the global fallback.
	usersByDomainTier [][][]int
	usersByTier       [][]int

	// Per tier index.
	datasets [][]dataset
	// regionChooser[t][d] picks a non-empty region for domain d in tier
	// t with home regions strongly preferred.
	regionChooser [][]*regionPick
	// regionDatasets[t][r] lists dataset indices of tier t in region r;
	// regionZipf[t][r] picks among them with rank skew.
	regionDatasets [][][]int

	domainChooser *dist.WeightedChoice
	dayChooser    *dist.WeightedChoice

	homeRegions [][]int // per domain

	// hotFiles are the planted case-study files (empty when the hot
	// filecule is disabled).
	hotFiles []trace.FileID

	// nFiles counts the file IDs handed out. sizeZ holds, per dataset file
	// in ID order, the normal variate its size was drawn as, until the
	// catalog goroutine takes it; files delivers that goroutine's catalog.
	nFiles int
	sizeZ  []float64
	files  <-chan []trace.File

	// jobZipf[n] and interestZipf[n] are the rank samplers over n interest
	// entries and over a region's n datasets, made on first use (see zipf).
	jobZipf, interestZipf []dist.Zipf

	// chosenScratch is jobFiles' reused list of the datasets picked;
	// fileBlock the block its lists are assembled in, whose spare capacity
	// is where the next list goes.
	chosenScratch []int
	fileBlock     []trace.FileID

	// execs holds the one Exec of each (node, app, version) index triple,
	// made on first use (see exec).
	execs []*trace.Exec
}

type regionPick struct {
	regions []int
	choose  *dist.WeightedChoice
}

func (g *generator) buildSites(b *trace.Builder) {
	c := g.cfg
	g.domainSites = make([][]trace.SiteID, len(c.Domains))
	g.siteNodes = make(map[trace.SiteID][]int32)
	weights := make([]float64, len(c.Domains))
	for d := range c.Domains {
		dom := &c.Domains[d]
		weights[d] = dom.Weight
		base := strings.TrimPrefix(dom.Domain, ".")
		nsites := dom.Sites
		if nsites < 1 {
			nsites = 1
		}
		for s := 0; s < nsites; s++ {
			name := fmt.Sprintf("%s-%d", base, s)
			id := b.Site(name, dom.Domain, 0)
			g.domainSites[d] = append(g.domainSites[d], id)
		}
		nodes := dom.Nodes
		if nodes < nsites {
			nodes = nsites
		}
		for n := 0; n < nodes; n++ {
			site := g.domainSites[d][n%nsites]
			g.siteNodes[site] = append(g.siteNodes[site], int32(len(g.nodeNames)))
			g.nodeNames = append(g.nodeNames, fmt.Sprintf("node%d.%s-%d", n, base, n%nsites))
		}
	}
	g.domainChooser = dist.NewWeightedChoice(weights)
	g.execs = make([]*trace.Exec, len(g.nodeNames)*len(appNames)*len(jobVersions))
}

func (g *generator) buildUsers(b *trace.Builder) {
	c := g.cfg
	us := c.userScale()
	nTiers := len(c.Tiers)
	g.domainUsers = make([][]int, len(c.Domains))
	g.usersByDomainTier = make([][][]int, len(c.Domains))
	g.usersByTier = make([][]int, nTiers)
	for d := range c.Domains {
		g.usersByDomainTier[d] = make([][]int, nTiers)
		n := scaleCount(c.Domains[d].Users, us, 1)
		for k := 0; k < n; k++ {
			idx := len(g.users)
			site := g.domainSites[d][k%len(g.domainSites[d])]
			id := b.User(fmt.Sprintf("u%d", idx), site)
			u := userInfo{id: id, site: site, domain: d, active: make([]bool, nTiers)}
			anyActive := false
			for t := range c.Tiers {
				if g.rng.Float64() < c.Tiers[t].ActiveUserFrac {
					u.active[t] = true
					anyActive = true
				}
			}
			if !anyActive {
				// Every user works in at least one tier; pick the
				// most populous.
				best, bestFrac := 0, 0.0
				for t := range c.Tiers {
					if c.Tiers[t].ActiveUserFrac > bestFrac {
						best, bestFrac = t, c.Tiers[t].ActiveUserFrac
					}
				}
				u.active[best] = true
			}
			g.users = append(g.users, u)
			g.domainUsers[d] = append(g.domainUsers[d], idx)
			for t := range c.Tiers {
				if u.active[t] {
					g.usersByDomainTier[d][t] = append(g.usersByDomainTier[d][t], idx)
					g.usersByTier[t] = append(g.usersByTier[t], idx)
				}
			}
		}
	}
	// Guarantee every tier has at least one active user somewhere.
	for t := range c.Tiers {
		if len(g.usersByTier[t]) == 0 {
			g.users[0].active[t] = true
			g.usersByTier[t] = append(g.usersByTier[t], 0)
			d := g.users[0].domain
			g.usersByDomainTier[d][t] = append(g.usersByDomainTier[d][t], 0)
		}
	}
}

func (g *generator) buildDatasets() {
	c := g.cfg
	g.datasets = make([][]dataset, len(c.Tiers))
	g.regionDatasets = make([][][]int, len(c.Tiers))
	// Size the variates from the tier targets (the realised count is within a
	// few percent of them at bench scales) so they are not grown by doubling.
	want := 0
	for t := range c.Tiers {
		want += scaleCount(c.Tiers[t].Files, c.Scale, 0)
	}
	g.sizeZ = make([]float64, 0, want+want/16)
	for t := range c.Tiers {
		tp := &c.Tiers[t]
		filesTarget := int(math.Round(float64(tp.Files) * c.Scale))
		nDatasets := int(math.Round(float64(filesTarget) / c.MeanFilesPerDataset))
		if nDatasets < 1 {
			nDatasets = 1
		}
		nFiles := dist.LognormalFromMean(c.MeanFilesPerDataset, c.FilesPerDatasetSigma)
		g.regionDatasets[t] = make([][]int, c.InterestRegions)
		for ds := 0; ds < nDatasets; ds++ {
			n := dist.ClampInt(nFiles.Sample(g.rng), 1, 5000)
			d := dataset{first: trace.FileID(g.nFiles), n: int32(n), region: int32(g.rng.Intn(c.InterestRegions))}
			for range n {
				// The draw a file's size.Sample would take; fileCatalog
				// turns it into the size.
				g.sizeZ = append(g.sizeZ, g.rng.NormFloat64())
			}
			g.nFiles += n
			g.datasets[t] = append(g.datasets[t], d)
			g.regionDatasets[t][d.region] = append(g.regionDatasets[t][d.region], ds)
		}
	}
}

// newFileID hands out the next file ID. The generator's names are unique by
// construction, so there is nothing to memoize and no name→ID map to fill:
// fileCatalog names and sizes the files afterwards, in ID order.
func (g *generator) newFileID() trace.FileID {
	id := trace.FileID(g.nFiles)
	g.nFiles++
	return id
}

// fileCatalog builds the file catalog at its exact size: every dataset file
// in ID order, sized from its variate z under its tier's size distribution
// and named after its tier, dataset and position, then the hot planted files.
// It reads only what newGenerator has finished writing, so it runs beside the
// job draws.
func fileCatalog(c *Config, datasets [][]dataset, z []float64, hot int) []trace.File {
	files := make([]trace.File, len(z)+hot)
	var name []byte
	// File names are written into arena blocks rather than allocated one by
	// one: a string per file is half a million allocations at scale 0.5.
	var names strings.Builder
	id := 0
	for t := range datasets {
		tp := &c.Tiers[t]
		size := dist.LognormalFromMean(tp.MeanFileSizeMB, tp.FileSizeSigma)
		for ds := range datasets[t] {
			name = fmt.Appendf(name[:0], "t%d-d%d-f", t, ds)
			for k := range datasets[t][ds].n {
				mb := size.FromNormal(z[id])
				files[id] = trace.File{
					ID:   trace.FileID(id),
					Name: arenaString(&names, strconv.AppendInt(name, int64(k), 10)),
					Size: dist.ClampInt64(mb*(1<<20), 1<<20, int64(tp.MaxFileSizeMB*(1<<20))),
					Tier: tp.Tier,
				}
				id++
			}
		}
	}
	for k := 0; k < hot; k++ {
		files[id] = trace.File{ID: trace.FileID(id), Name: hotFileNames[k], Size: hotFileSize, Tier: trace.TierThumbnail}
		id++
	}
	return files
}

// joinCatalog waits for fileCatalog and installs the file catalog.
func (g *generator) joinCatalog() {
	if g.files != nil {
		g.catalog.Files = <-g.files
		g.files = nil
	}
}

// nameBlock is the size of one file-name arena block.
const nameBlock = 64 << 10

// arenaString copies raw into the arena's current block, starting a new block
// when it does not fit, and returns the copy.
func arenaString(arena *strings.Builder, raw []byte) string {
	if arena.Cap()-arena.Len() < len(raw) {
		arena.Reset()
		arena.Grow(max(nameBlock, len(raw)))
	}
	arena.Write(raw)
	all := arena.String()
	return all[len(all)-len(raw):]
}

// zipf returns the cached rank sampler with exponent s over n ranks, making
// it on first use: NewZipf takes a math.Pow for its normaliser and one per
// rank for its boundary table, and the job and interest draws would need
// them per draw otherwise.
func zipf(cache *[]dist.Zipf, s float64, n int) dist.Zipf {
	if n >= len(*cache) {
		*cache = append(*cache, make([]dist.Zipf, n+1-len(*cache))...)
	}
	z := &(*cache)[n]
	if *z == (dist.Zipf{}) {
		*z = dist.NewZipf(s, uint64(n))
	}
	return *z
}

func (g *generator) buildInterests() {
	c := g.cfg
	// Home regions per domain.
	g.homeRegions = make([][]int, len(c.Domains))
	for d := range c.Domains {
		perm := g.rng.Perm(c.InterestRegions)
		g.homeRegions[d] = perm[:c.HomeRegions]
	}
	// Region choosers per (tier, domain), restricted to non-empty
	// regions.
	g.regionChooser = make([][]*regionPick, len(c.Tiers))
	for t := range c.Tiers {
		g.regionChooser[t] = make([]*regionPick, len(c.Domains))
		var nonEmpty []int
		for r := 0; r < c.InterestRegions; r++ {
			if len(g.regionDatasets[t][r]) > 0 {
				nonEmpty = append(nonEmpty, r)
			}
		}
		for d := range c.Domains {
			home := make(map[int]bool, len(g.homeRegions[d]))
			for _, r := range g.homeRegions[d] {
				home[r] = true
			}
			weights := make([]float64, len(nonEmpty))
			for i, r := range nonEmpty {
				if home[r] {
					weights[i] = 1
				} else {
					weights[i] = c.ForeignInterestWeight
				}
			}
			g.regionChooser[t][d] = &regionPick{
				regions: nonEmpty,
				choose:  dist.NewWeightedChoice(weights),
			}
		}
	}
	// Per-user interest lists.
	interestSize := dist.LognormalFromMean(c.UserInterestDatasets, 0.7)
	for ui := range g.users {
		u := &g.users[ui]
		u.interests = make([][]int, len(c.Tiers))
		for t := range c.Tiers {
			if !u.active[t] {
				continue
			}
			m := dist.ClampInt(interestSize.Sample(g.rng), 1, len(g.datasets[t]))
			u.interests[t] = g.sampleInterest(t, u.domain, m)
		}
	}
}

// sampleInterest draws up to m distinct datasets for a (tier, domain) pair,
// preferring home regions and popular (low-index) datasets within a region.
func (g *generator) sampleInterest(t, domain, m int) []int {
	rp := g.regionChooser[t][domain]
	seen := make(map[int]struct{}, m)
	out := make([]int, 0, m)
	for tries := 0; len(out) < m && tries < 6*m+20; tries++ {
		r := rp.regions[rp.choose.Choose(g.rng)]
		pool := g.regionDatasets[t][r]
		z := zipf(&g.interestZipf, g.cfg.InterestZipfS, len(pool))
		ds := pool[int(z.Rank(g.rng))]
		if _, dup := seen[ds]; dup {
			continue
		}
		seen[ds] = struct{}{}
		out = append(out, ds)
	}
	return out
}

func (g *generator) buildDayChooser() {
	c := g.cfg
	weights := make([]float64, c.Days)
	startDay := int(c.Start.Weekday())
	for i := range weights {
		w := 0.6 + 0.8*float64(i)/float64(c.Days) // long-term ramp-up
		w *= 1 + 0.35*math.Sin(2*math.Pi*float64(i)/30.0)
		if wd := (startDay + i) % 7; wd == 0 || wd == 6 {
			w *= 0.7 // weekend dip
		}
		weights[i] = w
	}
	g.dayChooser = dist.NewWeightedChoice(weights)
}

// jobStart samples an arrival time from the daily profile.
func (g *generator) jobStart() time.Time {
	day := g.dayChooser.Choose(g.rng)
	return g.cfg.Start.Add(time.Duration(day)*24*time.Hour +
		time.Duration(g.rng.Int63n(int64(24*time.Hour))))
}

// pickUser selects a user for a job in the given tier, following the
// per-domain activity weights.
func (g *generator) pickUser(tier int) *userInfo {
	d := g.domainChooser.Choose(g.rng)
	pool := g.usersByDomainTier[d][tier]
	if len(pool) == 0 {
		pool = g.usersByTier[tier]
	}
	return &g.users[pool[g.rng.Intn(len(pool))]]
}

var jobVersions = [...]string{"v1", "v2", "v3", "v4", "v5"}

// The applications jobs run, as indexes into appNames.
const (
	appAnalyze = iota // the analysis application of a tier with none of its own
	appAnalyzeReco
	appRootAnalyze
	appAnalyzeTMB
	appReco
	appMonteCarlo
	appMerge
)

var appNames = [...]string{"d0_analyze", "d0_analyze_reco", "root_analyze", "d0_analyze_tmb", "d0reco", "mc_runjob", "d0_merge"}

var tierApps = map[trace.Tier]int{
	trace.TierReconstructed: appAnalyzeReco,
	trace.TierRootTuple:     appRootAnalyze,
	trace.TierThumbnail:     appAnalyzeTMB,
}

// tierPhase builds tier t's analysis-job run. Construction draws no
// randomness; every RNG draw happens inside make.
func (g *generator) tierPhase(t int) jobPhase {
	c := g.cfg
	tp := &c.Tiers[t]
	nJobs := scaleCount(tp.Jobs, c.Scale, 1)
	duration := dist.LognormalFromMean(tp.MeanJobHours, 0.8)
	nDatasets := dist.LognormalFromMean(tp.MeanDatasetsPerJob, 0.9)
	app := tierApps[tp.Tier] // appAnalyze when the tier has none
	return jobPhase{n: nJobs, make: func() trace.Job {
		u := g.pickUser(t)
		interest := u.interests[t]
		files := g.jobFiles(t, u.domain, interest, dist.ClampInt(nDatasets.Sample(g.rng), 1, 80))
		start := g.jobStart()
		hours := duration.Sample(g.rng)
		end := start.Add(time.Duration(dist.ClampInt64(hours*float64(time.Hour), int64(3*time.Minute), int64(200*time.Hour))))
		return trace.Job{
			User: u.id, Site: u.site,
			Tier:   tp.Tier,
			Family: trace.FamilyAnalysis,
			Exec:   g.exec(g.pickNode(u.site), app, g.rng.Intn(len(jobVersions))),
			Start:  start, End: end,
			Files: files,
		}
	}}
}

// jobFiles assembles the input set: nDS datasets drawn from the user's
// interest list with rank skew (plus occasional exploration picks from the
// wider catalog), each read whole or as a contiguous subset. The list is
// assembled in the spare capacity of a shared block and returned capped at
// its length; one that outgrows the block moves to a new block of
// fileBlockLen IDs, or of its own length if longer. A materialized trace
// keeps every job's list: append growth would hold about twice the IDs kept,
// and a list of its own costs a heap object per job.
func (g *generator) jobFiles(tier, domain int, interest []int, nDS int) []trace.FileID {
	if len(interest) == 0 {
		return nil
	}
	z := zipf(&g.jobZipf, g.cfg.JobZipfS, len(interest))
	chosen := g.chosenScratch[:0]
	files := g.fileBlock[len(g.fileBlock):]
	for tries := 0; len(chosen) < nDS && tries < 6*nDS+20; tries++ {
		var ds int
		if g.rng.Float64() < g.cfg.ExploreProb {
			// Exploration: a dataset outside the routine interest
			// set, uniform within a home-biased region.
			rp := g.regionChooser[tier][domain]
			pool := g.regionDatasets[tier][rp.regions[rp.choose.Choose(g.rng)]]
			ds = pool[g.rng.Intn(len(pool))]
		} else {
			ds = interest[int(z.Rank(g.rng))]
		}
		if slices.Contains(chosen, ds) {
			continue
		}
		chosen = append(chosen, ds)
		d := &g.datasets[tier][ds]
		lo, hi := d.first, d.first+trace.FileID(d.n)
		if n := int(d.n); g.rng.Float64() < g.cfg.SubsetProb && n > 1 {
			k := g.rng.Intn(n)
			lo, hi = d.first+trace.FileID(k), d.first+trace.FileID(k+1+g.rng.Intn(n-k))
		}
		at := len(files)
		for f := lo; f < hi; f++ {
			files = append(files, f)
		}
		if picked := files[at:]; g.cfg.ShuffleWithinDataset && len(picked) > 1 {
			g.rng.Shuffle(len(picked), func(a, b int) {
				picked[a], picked[b] = picked[b], picked[a]
			})
		}
	}
	g.chosenScratch = chosen
	n := len(files)
	if n == 0 {
		return nil
	}
	// Appends within the spare capacity stayed in the block; past it, the
	// list was grown elsewhere and moves to a new block.
	if at := len(g.fileBlock); n <= cap(g.fileBlock)-at {
		g.fileBlock = g.fileBlock[:at+n]
	} else {
		g.fileBlock = append(make([]trace.FileID, 0, max(fileBlockLen, n)), files...)
	}
	return g.fileBlock[len(g.fileBlock)-n : len(g.fileBlock) : len(g.fileBlock)]
}

// fileBlockLen is the size of one jobFiles block, in IDs.
const fileBlockLen = 64 << 10

// pickNode returns the index of one of site's nodes.
func (g *generator) pickNode(site trace.SiteID) int32 {
	nodes := g.siteNodes[site]
	return nodes[g.rng.Intn(len(nodes))]
}

// exec returns the generator's one Exec for a node, application and version,
// given as indexes into nodeNames, appNames and jobVersions.
func (g *generator) exec(node int32, app, version int) *trace.Exec {
	e := &g.execs[(int(node)*len(appNames)+app)*len(jobVersions)+version]
	if *e == nil {
		*e = &trace.Exec{Node: g.nodeNames[node], App: appNames[app], Version: jobVersions[version]}
	}
	return *e
}

// otherPhase builds the non-analysis background run (n may be zero).
func (g *generator) otherPhase() jobPhase {
	c := g.cfg
	n := scaleCount(c.OtherJobs, c.Scale, 0)
	duration := dist.LognormalFromMean(c.OtherJobHours, 0.8)
	families := []trace.AppFamily{trace.FamilyReconstruction, trace.FamilyMonteCarlo, trace.FamilyAnalysis}
	apps := []int{appReco, appMonteCarlo, appMerge}
	return jobPhase{n: n, make: func() trace.Job {
		d := g.domainChooser.Choose(g.rng)
		pool := g.domainUsers[d]
		u := &g.users[pool[g.rng.Intn(len(pool))]]
		start := g.jobStart()
		hours := duration.Sample(g.rng)
		end := start.Add(time.Duration(dist.ClampInt64(hours*float64(time.Hour), int64(3*time.Minute), int64(200*time.Hour))))
		fi := g.rng.Intn(len(families))
		return trace.Job{
			User: u.id, Site: u.site,
			Tier:   trace.TierOther,
			Family: families[fi],
			Exec:   g.exec(g.pickNode(u.site), apps[fi], g.rng.Intn(len(jobVersions))),
			Start:  start, End: end,
		}
	}}
}

// plantHotFiles creates the Section 5 case-study files: two ~1.1 GB
// thumbnail files always requested together. The job run that requests them
// is hotPhase; splitting creation from use keeps the file catalog complete
// before any job is emitted.
func (g *generator) plantHotFiles() {
	if !g.cfg.PlantHotFilecule {
		return
	}
	for range hotFileNames {
		g.hotFiles = append(g.hotFiles, g.newFileID())
	}
}

// The planted case-study files: the last IDs of the catalog, in this order.
var hotFileNames = [...]string{"hot-tmb-0", "hot-tmb-1"}

const hotFileSize = int64(11) * (1 << 30) / 10

// hotPhase builds the case-study job run: a pool of users concentrated at
// FermiLab (.gov) plus a handful of remote domains repeatedly requests both
// hot files. Because no other job ever touches these files and every hot job
// reads both, they form exactly one 2-file filecule.
func (g *generator) hotPhase() jobPhase {
	c := g.cfg
	if len(g.hotFiles) == 0 {
		return jobPhase{}
	}

	// User pool: the paper observes 42 users from 6 sites, 38 of them at
	// FermiLab. Scale the pool with the user population.
	us := c.userScale()
	wantGov := scaleCount(38, us, 2)
	wantOther := scaleCount(4, us, 4) // at least one user in a few remote domains
	var pool []int
	gov := g.domainUsers[0]
	for i := 0; i < len(gov) && i < wantGov; i++ {
		pool = append(pool, gov[i])
	}
	added := 0
	for d := 1; d < len(g.domainUsers) && added < wantOther; d++ {
		if len(g.domainUsers[d]) == 0 {
			continue
		}
		pool = append(pool, g.domainUsers[d][0])
		added++
	}
	if len(pool) == 0 {
		return jobPhase{}
	}

	nJobs := scaleCount(c.HotJobs, c.Scale, 3*len(pool))
	// 529 of 634 observed jobs came from FermiLab; weight accordingly.
	weights := make([]float64, len(pool))
	for i := range pool {
		if g.users[pool[i]].domain == 0 {
			weights[i] = float64(529) / float64(wantGov)
		} else {
			weights[i] = float64(634-529) / float64(wantOther)
		}
	}
	choose := dist.NewWeightedChoice(weights)
	duration := dist.LognormalFromMean(2.0, 0.6)
	return jobPhase{n: nJobs, make: func() trace.Job {
		u := &g.users[pool[choose.Choose(g.rng)]]
		start := g.jobStart()
		hours := duration.Sample(g.rng)
		end := start.Add(time.Duration(dist.ClampInt64(hours*float64(time.Hour), int64(3*time.Minute), int64(24*time.Hour))))
		return trace.Job{
			User: u.id, Site: u.site,
			Tier:   trace.TierThumbnail,
			Family: trace.FamilyAnalysis,
			Exec:   g.exec(g.pickNode(u.site), appAnalyzeTMB, 0), // v1
			Start:  start, End: end,
			Files: g.hotFiles,
		}
	}}
}
