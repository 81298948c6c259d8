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
		partial := r.domainPartition(domain)
		if partial.NumFilecules() == 0 {
			continue
		}
		rows = append(rows, row{domain, len(jobs), core.CompareToGlobal(global, partial)})
	}
	// Busiest first, ties by name: the rows come from a map.
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].jobs != rows[b].jobs {
			return rows[a].jobs > rows[b].jobs
		}
		return rows[a].domain < rows[b].domain
	})

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
		a := r.domainPartition(rows[0].domain)
		b := r.domainPartition(rows[1].domain)
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

// section6 returns the replication experiments' per-site replica budget,
// budgetTB at full scale scaled with the workload and at least 1 GB, and
// the grid they replay on: 1 Gbit/s site links (a 2005-era uplink), the
// hub's local access to the mass store at 100 Gbit/s, and a disk cache of
// four budgets per site.
func (r *Runner) section6(budgetTB float64) (int64, grid.Config) {
	budget := max(int64(budgetTB*r.scale*(1<<40)), 1<<30)
	return budget, grid.Config{
		SiteBandwidth:    1e9 / 8,
		HubSiteBandwidth: 100e9 / 8,
		SiteCacheBytes:   budget * 4,
	}
}

// hubOnly is the result that replaces a Section 6 table when no job of the
// replayed window runs away from the hub: nothing is fetched over the WAN,
// so every row would print zeros that measured nothing.
func (r *Runner) hubOnly() *Result {
	_, future, _ := r.split()
	hub := grid.Hub(future)
	for i := range future.Jobs {
		if future.Jobs[i].Site != hub {
			return nil
		}
	}
	return &Result{Notes: []string{"every replayed job runs at the hub site, so no fetch is remote: this experiment measures nothing on this workload"}}
}

// replicate plans each strategy on Section 6's history window at the
// budget of budgetTB and replays the future through the grid.
func (r *Runner) replicate(budgetTB float64, strategies ...replica.Strategy) ([]replica.Outcome, error) {
	history, future, p := r.split()
	budget, cfg := r.section6(budgetTB)
	return replica.Evaluate(history, future, p, budget, cfg, strategies...)
}

// filesThenComplete is the two-round placement: half the budget placed at
// file granularity (the legacy layout), then the rest spent completing
// partial filecules — Section 6's "status of the filecule ... on the
// destination storage".
type filesThenComplete struct{}

func (filesThenComplete) Name() string { return "files then complete-filecules" }

func (filesThenComplete) Plan(h *trace.Trace, p *core.Partition, budget int64) map[trace.SiteID][]trace.FileID {
	plan := replica.PopularFiles{}.Plan(h, p, budget/2)
	for site, files := range (replica.CompleteFilecules{Existing: plan}).Plan(h, p, budget/2) {
		plan[site] = append(plan[site], files...)
	}
	return plan
}

// replication runs the Section 6 replication comparison at 20 TB of replica
// space per site (full scale).
func (r *Runner) replication() (*Result, error) {
	if res := r.hubOnly(); res != nil {
		return res, nil
	}
	outs, err := r.replicate(20, replica.NoReplication{}, replica.PopularFiles{},
		replica.PopularFilecules{}, filesThenComplete{})
	if err != nil {
		return nil, err
	}
	tb := report.NewTable("Section 6: proactive replication strategies",
		"strategy", "placed GB", "WAN GB", "local GB", "remote stalled",
		"mean stage", "max stage")
	for _, o := range outs {
		tb.AddRow(o.Strategy,
			float64(o.PlacedBytes)/(1<<30),
			float64(o.Grid.WANBytes())/(1<<30),
			float64(o.Grid.LocalBytes)/(1<<30),
			o.Grid.RemoteStalled,
			o.Grid.MeanStage().Round(1e9), o.Grid.MaxStage.Round(1e9))
	}
	return &Result{Tables: []*report.Table{tb},
		Notes: []string{
			"filecule-aware placement never leaves groups partially replicated, reducing stalled jobs at equal budget",
		}}, nil
}
