package experiments

import (
	"fmt"
	"math"
	"sort"

	"filecule/internal/core"
	"filecule/internal/report"
	"filecule/internal/stats"
	"filecule/internal/synth"
	"filecule/internal/trace"
)

// table1 reproduces Table 1: per-tier users, jobs, files, input volume and
// duration, measured vs the paper's published values (scaled).
func (r *Runner) table1() (*Result, error) {
	t := r.Trace()
	per, all := t.SummarizeTiers()
	scale := r.scale

	paper := make(map[string]synth.PaperTierRow, len(synth.PaperTable1))
	for _, row := range synth.PaperTable1 {
		paper[row.Tier] = row
	}

	tb := report.NewTable(
		fmt.Sprintf("Table 1 (measured at scale %.3g vs paper scaled)", scale),
		"tier", "users", "jobs", "jobs(paper)", "files", "files(paper)",
		"input/job MB", "input(paper)", "time/job h", "time(paper)")
	addRow := func(s trace.TierSummary, name string) {
		p := paper[name]
		tb.AddRow(name, s.Users, s.Jobs, math.Round(float64(p.Jobs)*scale),
			s.Files, math.Round(float64(p.Files)*scale),
			s.InputPerJobMB, p.InputPerJobMB,
			s.TimePerJob.Hours(), p.TimePerJobHrs)
	}
	for _, s := range per {
		addRow(s, s.Tier.String())
	}
	allRow := all
	tbAll := report.NewTable("Table 1 all-jobs row",
		"users", "jobs", "jobs(paper, scaled)", "time/job h", "time(paper)")
	tbAll.AddRow(allRow.Users, allRow.Jobs,
		math.Round(float64(paper["all"].Jobs)*scale),
		allRow.TimePerJob.Hours(), paper["all"].TimePerJobHrs)

	return &Result{
		Tables: []*report.Table{tb, tbAll},
		Notes: []string{
			"job counts and durations are calibrated; users scale as sqrt(Scale) to preserve sharing structure (see DESIGN.md)",
		},
	}, nil
}

// table2 reproduces Table 2: per-domain jobs, nodes, sites, users, filecule
// and file counts, and total requested data.
func (r *Runner) table2() (*Result, error) {
	t := r.Trace()
	doms := t.SummarizeDomains()
	paper := make(map[string]synth.PaperDomainRow, len(synth.PaperTable2))
	var paperJobs float64
	for _, row := range synth.PaperTable2 {
		paper[row.Domain] = row
		paperJobs += float64(row.Jobs)
	}
	totalJobs := float64(len(t.Jobs))

	tb := report.NewTable(
		fmt.Sprintf("Table 2 (measured at scale %.3g; paper job shares for comparison)", r.scale),
		"domain", "jobs", "share", "share(paper)", "nodes", "sites", "users",
		"filecules", "files", "data GB")
	for _, d := range doms {
		p := paper[d.Domain]
		partial := core.IdentifyDomain(t, d.Domain)
		tb.AddRow(d.Domain, d.Jobs,
			float64(d.Jobs)/totalJobs, float64(p.Jobs)/paperJobs,
			d.Nodes, d.Sites, d.Users,
			partial.NumFilecules(), d.Files, d.TotalDataGB)
	}
	return &Result{
		Tables: []*report.Table{tb},
		Notes: []string{
			"filecule counts are identified from each domain's own jobs only, matching the paper's per-location view",
			"Table 2's job column counts a finer-grained unit than Table 1; only relative shares are comparable",
		},
	}, nil
}

// fig1 reproduces Figure 1: the distribution of input files per job.
func (r *Runner) fig1() (*Result, error) {
	t := r.Trace()
	var perJob []float64
	for i := range t.Jobs {
		if t.Jobs[i].Tier == trace.TierOther {
			continue
		}
		perJob = append(perJob, float64(len(t.Jobs[i].Files)))
	}
	s := stats.Summarize(perJob)
	tb := report.NewTable("Figure 1: input files per job",
		"mean", "mean(paper)", "median", "p90", "p99", "max")
	tb.AddRow(s.Mean, synth.PaperMeanFilesPerJob, s.Median, s.P90, s.P99, s.Max)

	h := stats.NewLogHistogram(perJob, 10)
	hist := report.NewTable("files-per-job histogram (log bins)", "bin", "jobs")
	for _, b := range h.Bins {
		hist.AddRow(fmt.Sprintf("[%.0f,%.0f)", b.Lo, b.Hi), b.Count)
	}
	return &Result{Tables: []*report.Table{tb, hist}}, nil
}

// fig2 reproduces Figure 2: jobs and file requests per day (aggregated to
// 30-day windows to keep the table readable).
func (r *Runner) fig2() (*Result, error) {
	t := r.Trace()
	days := t.Daily()
	tb := report.NewTable("Figure 2: activity per 30-day window",
		"window start", "jobs", "file requests ('000s)", "jobs/day")
	for i := 0; i < len(days); i += 30 {
		end := i + 30
		if end > len(days) {
			end = len(days)
		}
		jobs, reqs := 0, 0
		for _, d := range days[i:end] {
			jobs += d.Jobs
			reqs += d.Requests
		}
		tb.AddRow(days[i].Day.Format("2006-01-02"), jobs,
			float64(reqs)/1000, float64(jobs)/float64(end-i))
	}
	return &Result{Tables: []*report.Table{tb},
		Notes: []string{"activity ramps up over the trace and dips on weekends, mirroring the paper's bursty profile"}}, nil
}

// fig3 reproduces Figure 3: the file size distribution, per tier and
// overall.
func (r *Runner) fig3() (*Result, error) {
	t := r.Trace()
	byTier := make(map[trace.Tier][]float64)
	var all []float64
	for i := range t.Files {
		mb := float64(t.Files[i].Size) / (1 << 20)
		byTier[t.Files[i].Tier] = append(byTier[t.Files[i].Tier], mb)
		all = append(all, mb)
	}
	tb := report.NewTable("Figure 3: file sizes (MB)",
		"tier", "files", "min", "p25", "median", "p75", "p90", "max")
	tiers := make([]trace.Tier, 0, len(byTier))
	for tier := range byTier {
		tiers = append(tiers, tier)
	}
	sort.Slice(tiers, func(a, b int) bool { return tiers[a] < tiers[b] })
	for _, tier := range tiers {
		min, p25, p50, p75, p90, max := quantileRow(byTier[tier])
		tb.AddRow(tier.String(), len(byTier[tier]), min, p25, p50, p75, p90, max)
	}
	min, p25, p50, p75, p90, max := quantileRow(all)
	tb.AddRow("all", len(all), min, p25, p50, p75, p90, max)
	return &Result{Tables: []*report.Table{tb},
		Notes: []string{"scientific file sizes are not heavy-tailed like web content: per-tier lognormal modes with a deployment cap (paper Section 3.1)"}}, nil
}

// fig4 reproduces Figure 4: how many users share a filecule.
func (r *Runner) fig4() (*Result, error) {
	t := r.Trace()
	p := r.Partition()
	users := core.UsersPerFilecule(t, p)
	h := stats.NewCountHistogram(users)

	tb := report.NewTable("Figure 4: users sharing a filecule",
		"users", "filecules", "fraction")
	edges := []int{1, 2, 3, 5, 10, 20}
	prev := 0
	for _, e := range edges {
		n := 0
		for v := prev + 1; v <= e; v++ {
			n += h.Counts[v]
		}
		tb.AddRow(fmt.Sprintf("%d-%d", prev+1, e), n, float64(n)/float64(h.N))
		prev = e
	}
	tail := 0
	for v, c := range h.Counts {
		if v > prev {
			tail += c
		}
	}
	tb.AddRow(fmt.Sprintf(">%d", prev), tail, float64(tail)/float64(h.N))

	sum := report.NewTable("summary", "single-user frac", "paper", "max users", "paper max")
	sum.AddRow(h.FractionAt(1), synth.PaperSingleUserFileculeFrac, h.Max, synth.PaperMaxUsersPerFilecule)
	return &Result{Tables: []*report.Table{tb, sum},
		Notes: []string{"max users/filecule scales with the (sqrt-scaled) user population; the paper's cap is 44 at full scale"}}, nil
}

// fig5 reproduces Figure 5: filecules per job.
func (r *Runner) fig5() (*Result, error) {
	t := r.Trace()
	p := r.Partition()
	counts := core.FileculesPerJob(t, p)
	var perJob []float64
	for i := range t.Jobs {
		if t.Jobs[i].Tier == trace.TierOther {
			continue
		}
		perJob = append(perJob, float64(counts[i]))
	}
	s := stats.Summarize(perJob)
	tb := report.NewTable("Figure 5: filecules per job",
		"mean", "median", "p90", "p99", "max")
	tb.AddRow(s.Mean, s.Median, s.P90, s.P99, s.Max)
	h := stats.NewLogHistogram(perJob, 8)
	hist := report.NewTable("filecules-per-job histogram (log bins)", "bin", "jobs")
	for _, b := range h.Bins {
		hist.AddRow(fmt.Sprintf("[%.0f,%.0f)", b.Lo, b.Hi), b.Count)
	}
	return &Result{Tables: []*report.Table{tb, hist}}, nil
}

// fig6 reproduces Figure 6: filecule sizes per tier.
func (r *Runner) fig6() (*Result, error) {
	t := r.Trace()
	p := r.Partition()
	sizes := core.SizesBytes(t, p)
	byTier := p.ByTier(t)
	tb := report.NewTable("Figure 6: filecule sizes (MB) per tier",
		"tier", "filecules", "min", "p25", "median", "p75", "p90", "max")
	forEachTier(byTier, func(tier trace.Tier, idx []int) {
		var mb []float64
		for _, i := range idx {
			mb = append(mb, float64(sizes[i])/(1<<20))
		}
		min, p25, p50, p75, p90, max := quantileRow(mb)
		tb.AddRow(tier.String(), len(idx), min, p25, p50, p75, p90, max)
	})
	var largest float64
	for _, s := range sizes {
		if f := float64(s); f > largest {
			largest = f
		}
	}
	sum := report.NewTable("largest filecule", "TB", "paper TB (full scale)")
	sum.AddRow(largest/(1<<40), synth.PaperLargestFileculeTB)
	return &Result{Tables: []*report.Table{tb, sum}}, nil
}

// fig7 reproduces Figure 7: files per filecule per tier.
func (r *Runner) fig7() (*Result, error) {
	t := r.Trace()
	p := r.Partition()
	byTier := p.ByTier(t)
	tb := report.NewTable("Figure 7: files per filecule per tier",
		"tier", "filecules", "min", "p25", "median", "p75", "p90", "max")
	forEachTier(byTier, func(tier trace.Tier, idx []int) {
		var n []float64
		for _, i := range idx {
			n = append(n, float64(p.Filecules[i].NumFiles()))
		}
		min, p25, p50, p75, p90, max := quantileRow(n)
		tb.AddRow(tier.String(), len(idx), min, p25, p50, p75, p90, max)
	})
	return &Result{Tables: []*report.Table{tb}}, nil
}

// fig8 reproduces Figure 8: the filecule popularity distribution per tier,
// with a Zipf fit demonstrating the flattened (non-Zipf) head.
func (r *Runner) fig8() (*Result, error) {
	t := r.Trace()
	p := r.Partition()
	byTier := p.ByTier(t)
	tb := report.NewTable("Figure 8: filecule popularity per tier (Zipf fit)",
		"tier", "filecules", "alpha", "R2", "head alpha", "head R2")
	forEachTier(byTier, func(tier trace.Tier, idx []int) {
		counts := make([]int, 0, len(idx))
		for _, i := range idx {
			counts = append(counts, p.Filecules[i].Requests)
		}
		if len(counts) < 20 {
			return
		}
		fit := stats.FitZipf(counts)
		tb.AddRow(tier.String(), len(idx), fit.Alpha, fit.R2, fit.HeadAlpha, fit.HeadR2)
	})
	return &Result{Tables: []*report.Table{tb},
		Notes: []string{
			"a Zipf workload would show head alpha ~ overall alpha; the flattened head (small head alpha) reproduces the paper's non-Zipf finding",
		}}, nil
}

// fig9 reproduces Figure 9: requests per filecule over the whole trace.
func (r *Runner) fig9() (*Result, error) {
	p := r.Partition()
	counts := core.RequestsPer(p)
	tb := report.NewTable("Figure 9: requests per filecule",
		"requests", "filecules")
	edges := []int{1, 2, 5, 10, 50, 100, 200, 300}
	prev := 0
	for _, e := range edges {
		n := 0
		for _, c := range counts {
			if c > prev && c <= e {
				n++
			}
		}
		tb.AddRow(fmt.Sprintf("%d-%d", prev+1, e), n)
		prev = e
	}
	tail := 0
	max := 0
	for _, c := range counts {
		if c > prev {
			tail++
		}
		if c > max {
			max = c
		}
	}
	tb.AddRow(fmt.Sprintf(">%d", prev), tail)
	sum := report.NewTable("summary", "filecules", "max requests")
	sum.AddRow(len(counts), max)
	return &Result{Tables: []*report.Table{tb, sum},
		Notes: []string{"thousands of filecules see few requests while tens are requested hundreds of times, matching the paper's long tail"}}, nil
}

// forEachTier iterates tiers in declaration order for deterministic tables.
func forEachTier(byTier map[trace.Tier][]int, fn func(trace.Tier, []int)) {
	tiers := make([]trace.Tier, 0, len(byTier))
	for tier := range byTier {
		tiers = append(tiers, tier)
	}
	sort.Slice(tiers, func(a, b int) bool { return tiers[a] < tiers[b] })
	for _, tier := range tiers {
		fn(tier, byTier[tier])
	}
}
