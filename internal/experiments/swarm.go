package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"filecule/internal/report"
	"filecule/internal/swarm"
)

// hotCase returns the Section 5 case-study filecule and its intervals. The
// synthetic workload plants an analog of the paper's case study (2 files,
// ~2.2 GB, many users at several sites); when present it is used directly,
// otherwise the analysis falls back to the most widely shared filecule —
// the paper's own selection criterion.
func (r *Runner) hotCase() (fc int, sites, users []swarm.Interval) {
	t := r.Trace()
	p := r.Partition()
	fc = -1
	for i := range t.Files {
		if t.Files[i].Name == "hot-tmb-0" {
			fc = p.Of(t.Files[i].ID)
			break
		}
	}
	if fc < 0 {
		fc = swarm.HottestFilecule(t, p)
	}
	allSites, allUsers := r.intervals()
	return fc, allSites[fc], allUsers[fc]
}

// intervals returns every filecule's per-site and per-user access
// intervals under the whole-trace partition.
func (r *Runner) intervals() (sites, users [][]swarm.Interval) {
	if r.sites == nil {
		t, p := r.Trace(), r.Partition()
		r.sites, r.users = swarm.SiteIntervals(t, p), swarm.UserIntervals(t, p)
	}
	return r.sites, r.users
}

// fig11 reproduces Figure 11: per-site access intervals for the hottest
// filecule.
func (r *Runner) fig11() (*Result, error) {
	t := r.Trace()
	p := r.Partition()
	fc, sites, users := r.hotCase()

	tb := report.NewTable("Figure 11: case-study filecule",
		"files", "size GB", "users", "sites", "jobs")
	tb.AddRow(p.Filecules[fc].NumFiles(),
		float64(p.Size(t, fc))/(1<<30),
		len(users), len(sites), p.Filecules[fc].Requests)

	iv := report.NewTable("per-site access intervals",
		"site", "first access", "last access", "days", "jobs")
	var labels []string
	var starts, ends []float64
	for _, s := range sites {
		iv.AddRow(s.Entity, s.First.Format("2006-01-02"), s.Last.Format("2006-01-02"),
			s.Duration().Hours()/24, s.Jobs)
		labels = append(labels, s.Entity)
		starts = append(starts, float64(s.First.Unix()))
		ends = append(ends, float64(s.Last.Unix()))
	}
	var tl strings.Builder
	report.Timeline(&tl, "site usage timeline", labels, starts, ends, 64)

	return &Result{Tables: []*report.Table{tb, iv}, Text: []string{tl.String()},
		Notes: []string{
			fmt.Sprintf("paper case study: %d files, %.1f GB, %d users, %d sites, %d jobs (full scale)",
				2, 2.2, 42, 6, 634),
		}}, nil
}

// fig12 reproduces Figure 12: per-user access intervals for the same
// filecule.
func (r *Runner) fig12() (*Result, error) {
	_, _, users := r.hotCase()
	iv := report.NewTable("Figure 12: per-user access intervals",
		"user", "first access", "last access", "days", "jobs")
	var labels []string
	var starts, ends []float64
	for _, u := range users {
		iv.AddRow(u.Entity, u.First.Format("2006-01-02"), u.Last.Format("2006-01-02"),
			u.Duration().Hours()/24, u.Jobs)
		labels = append(labels, u.Entity)
		starts = append(starts, float64(u.First.Unix()))
		ends = append(ends, float64(u.Last.Unix()))
	}
	var tl strings.Builder
	report.Timeline(&tl, "user usage timeline", labels, starts, ends, 64)
	c := swarm.MeasureConcurrency(users)
	sum := report.NewTable("user-level concurrency (optimistic holding)",
		"max simultaneous", "time-averaged")
	sum.AddRow(c.Max, c.Mean)
	return &Result{Tables: []*report.Table{iv, sum}, Text: []string{tl.String()},
		Notes: []string{"the paper observes periods where ~10 users might hold partial copies, still too few for BitTorrent"}}, nil
}

// swarmLinks are Section 5's link rates; a scenario adds the filecule's
// bytes and the arrivals.
var swarmLinks = swarm.Scenario{
	SeedUpload:   100e6 / 8, // 100 Mbit/s origin (2005-era WAN)
	PeerUpload:   50e6 / 8,  // 50 Mbit/s per site
	PeerDownload: 400e6 / 8, // 400 Mbit/s site ingress
	Eta:          0.85,
}

// swarmFeasibility answers Section 5's question quantitatively: it runs the
// fluid swarm model on the case-study filecule at the concurrency observed
// in the trace and at flash-crowd counterfactuals, then on every filecule
// read at two or more sites. "Overlapping downloads" is the most
// client-server downloads in flight at once, the demand a swarm would
// share; "interval overlap" is the most sites whose access windows
// overlap, which the speedup does not depend on.
func (r *Runner) swarmFeasibility() (*Result, error) {
	t := r.Trace()
	p := r.Partition()
	fc, sites, _ := r.hotCase()

	base := swarmLinks
	base.FileBytes = p.Size(t, fc)

	tb := report.NewTable("Section 5: swarm vs client-server download times",
		"scenario", "peers", "interval overlap", "overlapping downloads",
		"client-server mean", "swarm mean", "speedup")

	// A filecule of no bytes has nothing to download: as in the whole-trace
	// table, the model is not run on it and its speedup is 1.
	addScenario := func(name string, arrivals []time.Duration, overlap int) {
		if base.FileBytes == 0 {
			tb.AddRow(name, len(arrivals), overlap, 0, time.Duration(0), time.Duration(0), 1.0)
			return
		}
		s := base
		s.Arrivals = arrivals
		cs := swarm.SimulateClientServer(s)
		sw := swarm.SimulateSwarm(s)
		tb.AddRow(name, len(arrivals), overlap, cs.PeakDownloads,
			cs.Mean.Round(time.Second), sw.Mean.Round(time.Second),
			sw.Speedup(cs))
	}

	// Observed: one peer per site, arriving at its first access.
	addScenario("observed (per-site arrivals)", swarm.ArrivalsFromIntervals(sites),
		swarm.MeasureConcurrency(sites).Max)

	// Counterfactual: same number of peers in a flash crowd.
	addScenario("flash crowd (same peers)", make([]time.Duration, len(sites)), len(sites))

	// Web-scale flash crowd.
	addScenario("flash crowd (50 peers)", make([]time.Duration, 50), 50)

	all := report.NewTable("every filecule read at two or more sites, by smallest arrival gap in client-server transfer times",
		"arrival gap", "filecules", "GB", "interval overlap", "overlapping downloads", "mean speedup")
	for i, b := range r.arrivalGaps() {
		mean := 0.0
		if b.filecules > 0 {
			mean = b.speedups / float64(b.filecules)
		}
		all.AddRow(arrivalGapBins[i].label, b.filecules, float64(b.bytes)/(1<<30),
			b.overlap, b.downloads, mean)
	}

	return &Result{Tables: []*report.Table{tb, all},
		Notes: []string{
			"with the observed arrival spread, swarming gains almost nothing over direct transfer — the paper's conclusion",
			"the same mechanism yields large gains only under flash-crowd concurrency DZero does not exhibit",
			"a filecule gains only where two of its sites' downloads overlap, which needs arrivals closer than one transfer time",
		}}, nil
}

// arrivalGapBins are the rows of swarm's whole-trace table: a filecule goes
// in the first bin its smallest gap between site arrivals, in client-server
// transfer times (FileBytes / SeedUpload), falls below.
var arrivalGapBins = []struct {
	label string
	below float64
}{
	{"< 1", 1}, {"1–10", 10}, {"10–100", 100}, {"100–1k", 1e3}, {"1k–10k", 1e4}, {"≥ 10k", math.Inf(1)},
}

// gapBin totals one row of the whole-trace table.
type gapBin struct {
	filecules          int
	bytes              int64
	overlap, downloads int     // the largest over the bin's filecules
	speedups           float64 // summed, for the mean
}

// arrivalGaps runs the fluid model on the per-site arrivals of every
// filecule read at two or more sites and totals the runs by arrivalGapBins.
// A filecule of no bytes has nothing to download: it goes in the last bin
// with a speedup of 1.
func (r *Runner) arrivalGaps() []gapBin {
	t, p := r.Trace(), r.Partition()
	sites, _ := r.intervals()
	bins := make([]gapBin, len(arrivalGapBins))
	for fc, ivs := range sites {
		if len(ivs) < 2 {
			continue
		}
		s := swarmLinks
		s.FileBytes = p.Size(t, fc)
		s.Arrivals = swarm.ArrivalsFromIntervals(ivs)
		gap := ivs[1].First.Sub(ivs[0].First) // ivs is ordered by first access
		for i := 2; i < len(ivs); i++ {
			gap = min(gap, ivs[i].First.Sub(ivs[i-1].First))
		}
		bin := len(bins) - 1
		speedup := 1.0
		downloads := 0
		if s.FileBytes > 0 {
			ratio := gap.Seconds() / (float64(s.FileBytes) / s.SeedUpload)
			bin = 0
			for ratio >= arrivalGapBins[bin].below {
				bin++
			}
			cs, sw := swarm.SimulateClientServer(s), swarm.SimulateSwarm(s)
			speedup, downloads = sw.Speedup(cs), cs.PeakDownloads
		}
		b := &bins[bin]
		b.filecules++
		b.bytes += s.FileBytes
		b.overlap = max(b.overlap, swarm.MeasureConcurrency(ivs).Max)
		b.downloads = max(b.downloads, downloads)
		b.speedups += speedup
	}
	return bins
}
