// Package synth generates synthetic DZero-like workload traces. It is the
// substitution for the proprietary SAM processing-history database the paper
// analyzes (see DESIGN.md): every knob is calibrated against the numbers the
// paper publishes — Table 1 per-tier job/user/file counts and volumes,
// Table 2 per-domain activity, 108 mean files per job, dataset-oriented
// access (which yields filecule structure), geographically partitioned
// interest (which yields the paper's non-Zipf popularity), and the Section 5
// hot filecule (2 files, ~2.2 GB, accessed by dozens of users at a handful
// of sites).
//
// The generator is deterministic for a given Config (including Seed).
package synth

import (
	"fmt"
	"math"
	"time"

	"filecule/internal/trace"
)

// TierParams configures one data tier's workload at Scale = 1.
type TierParams struct {
	Tier trace.Tier
	// Jobs and Files are the Table 1 counts at Scale 1.
	Jobs  int
	Files int
	// MeanFileSizeMB and FileSizeSigma shape the lognormal file-size
	// distribution; sizes are clamped to [1 MB, MaxFileSizeMB].
	MeanFileSizeMB float64
	FileSizeSigma  float64
	MaxFileSizeMB  float64
	// MeanJobHours is the Table 1 mean job duration.
	MeanJobHours float64
	// MeanDatasetsPerJob controls how many datasets a job requests;
	// together with MeanFilesPerDataset it calibrates input volume per
	// job and the 108-files-per-job headline number.
	MeanDatasetsPerJob float64
	// ActiveUserFrac is the fraction of the user population that runs
	// jobs in this tier (Table 1 users / 561).
	ActiveUserFrac float64
}

// DomainParams configures one Internet domain's population (Table 2 row).
type DomainParams struct {
	Domain string
	// Weight is the domain's relative job share.
	Weight float64
	Sites  int
	Nodes  int
	Users  int
}

// Config fully parameterizes the generator.
type Config struct {
	Seed  int64
	Scale float64
	// UserScale scales user populations; 0 means sqrt(Scale), which
	// preserves sharing structure at small scales better than linear
	// scaling.
	UserScale float64

	Start time.Time
	Days  int

	Tiers   []TierParams
	Domains []DomainParams

	// OtherJobs is the number of jobs without file-level information
	// (the Table 1 "Others" row) at Scale 1.
	OtherJobs            int
	OtherJobHours        float64
	OtherUserFrac        float64
	MeanFilesPerDataset  float64
	FilesPerDatasetSigma float64

	// Interest structure: datasets belong to regions; each domain
	// focuses on HomeRegions of the InterestRegions, giving the
	// geographically partitioned (non-Zipf) popularity of Section 3.2.
	InterestRegions       int
	HomeRegions           int
	ForeignInterestWeight float64
	// UserInterestDatasets is the mean size of a user's per-tier
	// interest set.
	UserInterestDatasets float64
	// InterestZipfS skews which datasets enter interest sets (within a
	// region); higher values concentrate interest on few datasets.
	InterestZipfS float64
	// JobZipfS skews which interest entry a job picks.
	JobZipfS float64

	// SubsetProb is the probability that a job reads a contiguous subset
	// of a dataset instead of the whole dataset; subsets are what split
	// datasets into finer filecules.
	SubsetProb float64
	// ShuffleWithinDataset randomizes the order in which a job reads a
	// dataset's files. SAM delivers files as they become available
	// rather than in a fixed order, so this is on in the calibrated
	// config; it also prevents sequence-based prefetchers from being
	// trivially clairvoyant (filecule identification is order-blind
	// either way).
	ShuffleWithinDataset bool
	// ExploreProb is the probability that one of a job's dataset picks
	// comes from outside the user's interest set (uniform within a
	// region chosen with home preference). Exploration spreads coverage
	// across the catalog and produces the long tail of rarely-requested
	// filecules visible in Figure 9.
	ExploreProb float64

	// PlantHotFilecule plants the Section 5 case-study filecule: a
	// 2-file, ~2.2 GB dataset read whole by many users from several
	// domains.
	PlantHotFilecule bool
	// HotJobs is the number of jobs on the hot filecule at Scale 1
	// (the paper observes 634).
	HotJobs int
}

// DZero returns the calibrated configuration reproducing the paper's
// workload at the given scale (1.0 = full paper scale; experiments typically
// run at 0.02-0.1 for speed).
func DZero(seed int64, scale float64) Config {
	return Config{
		Seed:  seed,
		Scale: scale,
		Start: time.Date(2003, 1, 1, 0, 0, 0, 0, time.UTC),
		Days:  810, // Jan 2003 - Mar 2005
		Tiers: []TierParams{
			{
				Tier: trace.TierReconstructed, Jobs: 17898, Files: 515677,
				MeanFileSizeMB: 620, FileSizeSigma: 0.7, MaxFileSizeMB: 2048,
				MeanJobHours: 11.01, MeanDatasetsPerJob: 4.9, ActiveUserFrac: 320.0 / 561,
			},
			{
				Tier: trace.TierRootTuple, Jobs: 1307, Files: 60719,
				MeanFileSizeMB: 550, FileSizeSigma: 0.9, MaxFileSizeMB: 2048,
				MeanJobHours: 13.68, MeanDatasetsPerJob: 20.0, ActiveUserFrac: 63.0 / 561,
			},
			{
				Tier: trace.TierThumbnail, Jobs: 94625, Files: 428610,
				MeanFileSizeMB: 480, FileSizeSigma: 0.8, MaxFileSizeMB: 2048,
				MeanJobHours: 4.89, MeanDatasetsPerJob: 8.8, ActiveUserFrac: 449.0 / 561,
			},
		},
		Domains: []DomainParams{
			{Domain: ".gov", Weight: 3319711, Sites: 1, Nodes: 12, Users: 466},
			{Domain: ".de", Weight: 390186, Sites: 4, Nodes: 5, Users: 23},
			{Domain: ".uk", Weight: 131760, Sites: 4, Nodes: 8, Users: 21},
			{Domain: ".edu", Weight: 54672, Sites: 12, Nodes: 18, Users: 32},
			{Domain: ".cz", Weight: 7400, Sites: 1, Nodes: 1, Users: 1},
			{Domain: ".ca", Weight: 5719, Sites: 2, Nodes: 5, Users: 4},
			{Domain: ".fr", Weight: 5086, Sites: 1, Nodes: 2, Users: 11},
			{Domain: ".nl", Weight: 3854, Sites: 2, Nodes: 3, Users: 8},
			{Domain: ".mx", Weight: 146, Sites: 1, Nodes: 1, Users: 1},
			{Domain: ".br", Weight: 12, Sites: 2, Nodes: 2, Users: 2},
			{Domain: ".cn", Weight: 4, Sites: 1, Nodes: 1, Users: 2},
			{Domain: ".in", Weight: 3, Sites: 1, Nodes: 1, Users: 2},
		},
		OtherJobs:     120962,
		OtherJobHours: 7.68,
		OtherUserFrac: 435.0 / 561,

		MeanFilesPerDataset:  12,
		FilesPerDatasetSigma: 1.3,

		InterestRegions:       20,
		HomeRegions:           3,
		ForeignInterestWeight: 0.03,
		UserInterestDatasets:  30,
		InterestZipfS:         0.7,
		JobZipfS:              0.9,

		SubsetProb:           0.15,
		ExploreProb:          0.2,
		ShuffleWithinDataset: true,

		PlantHotFilecule: true,
		HotJobs:          634,
	}
}

// Validate checks the configuration for internal consistency.
func (c *Config) Validate() error {
	if !positiveFinite(c.Scale) {
		return fmt.Errorf("synth: Scale %v must be > 0 and finite", c.Scale)
	}
	if c.UserScale != 0 && !positiveFinite(c.UserScale) {
		return fmt.Errorf("synth: UserScale %v must be 0 (sqrt(Scale)) or > 0 and finite", c.UserScale)
	}
	if c.Days < 1 {
		return fmt.Errorf("synth: Days %d must be >= 1", c.Days)
	}
	if len(c.Tiers) == 0 {
		return fmt.Errorf("synth: need at least one tier")
	}
	if len(c.Domains) == 0 {
		return fmt.Errorf("synth: need at least one domain")
	}
	if c.MeanFilesPerDataset < 1 {
		return fmt.Errorf("synth: MeanFilesPerDataset %v must be >= 1", c.MeanFilesPerDataset)
	}
	if c.InterestRegions < 1 || c.HomeRegions < 1 || c.HomeRegions > c.InterestRegions {
		return fmt.Errorf("synth: bad region structure %d/%d", c.HomeRegions, c.InterestRegions)
	}
	if c.SubsetProb < 0 || c.SubsetProb > 1 {
		return fmt.Errorf("synth: SubsetProb %v outside [0,1]", c.SubsetProb)
	}
	if c.ExploreProb < 0 || c.ExploreProb > 1 {
		return fmt.Errorf("synth: ExploreProb %v outside [0,1]", c.ExploreProb)
	}
	for i := range c.Tiers {
		t := &c.Tiers[i]
		if t.Jobs < 0 || t.Files < 0 || t.MeanFileSizeMB <= 0 || t.MeanJobHours <= 0 || t.MeanDatasetsPerJob <= 0 {
			return fmt.Errorf("synth: tier %v has non-positive parameters", t.Tier)
		}
		if t.ActiveUserFrac <= 0 || t.ActiveUserFrac > 1 {
			return fmt.Errorf("synth: tier %v ActiveUserFrac %v outside (0,1]", t.Tier, t.ActiveUserFrac)
		}
	}
	return nil
}

// positiveFinite reports whether x > 0 and is neither NaN nor infinite.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

func (c *Config) userScale() float64 {
	if c.UserScale > 0 {
		return c.UserScale
	}
	if c.Scale >= 1 {
		return c.Scale
	}
	return math.Sqrt(c.Scale)
}

// scaleCount scales an at-Scale-1 count, keeping at least min.
func scaleCount(n int, scale float64, min int) int {
	s := int(math.Round(float64(n) * scale))
	if s < min {
		return min
	}
	return s
}
