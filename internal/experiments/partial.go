package experiments

import (
	"sort"

	"filecule/internal/trace"

	"filecule/internal/core"
	"filecule/internal/grid"
	"filecule/internal/replica"
	"filecule/internal/report"
)

// partialKnowledge reproduces the Section 6 experiment: identify filecules
// from each domain's jobs only and measure how much coarser (larger) the
// result is than the global truth — and that more jobs mean more accuracy.
func (r *Runner) partialKnowledge() (*Result, error) {
	t := r.Trace()
	global := r.Partition()

	type row struct {
		domain string
		jobs   int
		st     core.CoarsenessStats
	}
	var rows []row
	for domain, jobs := range t.JobsByDomain() {
		partial := core.IdentifyDomain(t, domain)
		if partial.NumFilecules() == 0 {
			continue
		}
		rows = append(rows, row{domain, len(jobs), core.CompareToGlobal(global, partial)})
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].jobs > rows[b].jobs })

	tb := report.NewTable("Section 6: per-domain (partial-knowledge) identification",
		"domain", "jobs", "covered files", "filecules",
		"exact", "exact frac", "mean inflation", "max inflation")
	for _, rw := range rows {
		exactFrac := 0.0
		if rw.st.Filecules > 0 {
			exactFrac = float64(rw.st.ExactFilecules) / float64(rw.st.Filecules)
		}
		tb.AddRow(rw.domain, rw.jobs, rw.st.CoveredFiles, rw.st.Filecules,
			rw.st.ExactFilecules, exactFrac, rw.st.MeanInflation, rw.st.MaxInflation)
	}

	// Combining the two busiest domains refines both.
	var comb *report.Table
	if len(rows) >= 2 {
		a := core.IdentifyDomain(t, rows[0].domain)
		b := core.IdentifyDomain(t, rows[1].domain)
		merged := core.Combine(a, b)
		stA := core.CompareToGlobal(global, a)
		stB := core.CompareToGlobal(global, b)
		stM := core.CompareToGlobal(global, merged)
		comb = report.NewTable("pooling observations refines the view",
			"view", "mean inflation")
		comb.AddRow(rows[0].domain, stA.MeanInflation)
		comb.AddRow(rows[1].domain, stB.MeanInflation)
		comb.AddRow(rows[0].domain+" + "+rows[1].domain, stM.MeanInflation)
	}

	res := &Result{Tables: []*report.Table{tb},
		Notes: []string{
			"partial knowledge can only merge true filecules, never split them (verified by property test)",
			"the more jobs a domain submits, the closer its view is to the global truth (inflation -> 1)",
		}}
	if comb != nil {
		res.Tables = append(res.Tables, comb)
	}
	return res, nil
}

// replication runs the Section 6 replication comparison: plan placement on
// the first 60% of the trace, replay the rest through the grid.
func (r *Runner) replication() (*Result, error) {
	t := r.Trace()
	// Budget: 20 TB of replica space per site at full scale.
	budget := int64(20 * r.scale * (1 << 40))
	if budget < 1<<30 {
		budget = 1 << 30
	}
	cfg := grid.Config{
		SiteBandwidth:    1e9 / 8, // 1 Gbit/s WAN (2005-era site uplink)
		HubSiteBandwidth: 100e9 / 8,
		SiteCacheBytes:   budget * 4,
	}
	outs, err := replica.Evaluate(t, 0.6, budget, cfg, ".gov",
		replica.NoReplication{}, replica.PopularFiles{}, replica.PopularFilecules{})
	if err != nil {
		return nil, err
	}
	// Two-round variant: half the budget placed at file granularity (the
	// legacy layout), then the rest spent completing partial filecules —
	// Section 6's "status of the filecule ... on the destination storage".
	history, future := t.SplitByTime(0.6)
	hp := core.Identify(history)
	round1 := replica.PopularFiles{}.Plan(history, hp, budget/2)
	round2 := replica.CompleteFilecules{Existing: round1}.Plan(history, hp, budget/2)
	sys, err := grid.New(future, cfg, ".gov")
	if err != nil {
		return nil, err
	}
	var placed int64
	for _, round := range []map[trace.SiteID][]trace.FileID{round1, round2} {
		for site, files := range round {
			sys.Warm(site, files)
			for _, f := range files {
				placed += t.Files[f].Size
			}
		}
	}
	outs = append(outs, replica.Outcome{
		Strategy:    "files then complete-filecules",
		PlacedBytes: placed,
		Grid:        sys.Replay(),
	})
	tb := report.NewTable("Section 6: proactive replication strategies",
		"strategy", "placed GB", "WAN GB", "local GB", "remote stalled",
		"mean stage", "max stage")
	for _, o := range outs {
		tb.AddRow(o.Strategy,
			float64(o.PlacedBytes)/(1<<30),
			float64(o.Grid.WANBytes())/(1<<30),
			float64(o.Grid.LocalBytes)/(1<<30),
			o.Grid.RemoteStalled,
			o.Grid.MeanStage().Round(1e9).String(),
			o.Grid.MaxStage.Round(1e9).String())
	}
	return &Result{Tables: []*report.Table{tb},
		Notes: []string{
			"filecule-aware placement never leaves groups partially replicated, reducing stalled jobs at equal budget",
		}}, nil
}
