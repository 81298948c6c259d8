package experiments

import (
	"fmt"
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
	return fc, swarm.SiteIntervals(t, p, fc), swarm.UserIntervals(t, p, fc)
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

// swarmFeasibility answers Section 5's question quantitatively: it runs the
// fluid swarm model at the concurrency observed in the trace and at a
// flash-crowd counterfactual.
func (r *Runner) swarmFeasibility() (*Result, error) {
	t := r.Trace()
	p := r.Partition()
	fc, sites, _ := r.hotCase()

	base := swarm.Scenario{
		FileBytes:    p.Size(t, fc),
		SeedUpload:   100e6 / 8, // 100 Mbit/s origin (2005-era WAN)
		PeerUpload:   50e6 / 8,  // 50 Mbit/s per site
		PeerDownload: 400e6 / 8, // 400 Mbit/s site ingress
		Eta:          0.85,
	}

	tb := report.NewTable("Section 5: swarm vs client-server download times",
		"scenario", "peers", "max concurrency", "client-server mean", "swarm mean", "speedup")

	addScenario := func(name string, arrivals []time.Duration, maxConc int) {
		s := base
		s.Arrivals = arrivals
		cs := swarm.SimulateClientServer(s)
		sw := swarm.SimulateSwarm(s)
		tb.AddRow(name, len(arrivals), maxConc,
			cs.Mean.Round(time.Second), sw.Mean.Round(time.Second),
			sw.Speedup(cs))
	}

	// Observed: one peer per site, arriving at its first access.
	obs := swarm.ArrivalsFromIntervals(sites)
	conc := swarm.MeasureConcurrency(sites)
	addScenario("observed (per-site arrivals)", obs, conc.Max)

	// Counterfactual: same number of peers in a flash crowd.
	crowd := make([]time.Duration, len(sites))
	addScenario("flash crowd (same peers)", crowd, len(sites))

	// Web-scale flash crowd.
	big := make([]time.Duration, 50)
	addScenario("flash crowd (50 peers)", big, 50)

	return &Result{Tables: []*report.Table{tb},
		Notes: []string{
			"with the observed arrival spread, swarming gains almost nothing over direct transfer — the paper's conclusion",
			"the same mechanism yields large gains only under flash-crowd concurrency DZero does not exhibit",
		}}, nil
}
