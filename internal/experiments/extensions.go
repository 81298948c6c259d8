package experiments

import (
	"fmt"
	"time"

	"filecule/internal/cache"
	"filecule/internal/core"
	"filecule/internal/grid"
	"filecule/internal/prefetch"
	"filecule/internal/replica"
	"filecule/internal/report"
	"filecule/internal/sim"
	"filecule/internal/swarm"
	"filecule/internal/trace"
)

// These drivers go beyond the paper's published artifacts into its declared
// future work: filecule dynamics over time (Section 8), the comparison with
// Otoo et al.'s file-bundle caching ("We leave as future work the
// comparison of this strategy with filecule LRU on the DZero traces"), the
// Related Work prefetching baselines, a replication budget sweep, and a
// chunk-level check of the Section 5 swarm conclusion.

// dynamics answers Section 8: how stable are filecules across time windows?
func (r *Runner) dynamics() (*Result, error) {
	t := r.Trace()
	const windows = 4
	rep := core.AnalyzeDynamics(t, windows)

	wt := report.NewTable("filecules identified per quarter of the trace",
		"window", "jobs", "files", "filecules", "mean files/filecule")
	for i, w := range rep.Windows {
		wt.AddRow(fmt.Sprintf("Q%d", i+1), w.Jobs, w.Files, w.Filecules, w.MeanFiles)
	}

	st := report.NewTable("stability between windows",
		"pair", "common files", "pair Jaccard", "identical-filecule frac")
	for i, s := range rep.Consecutive {
		st.AddRow(fmt.Sprintf("Q%d vs Q%d", i+1, i+2),
			s.CommonFiles, s.PairJaccard, s.SameFileculeFrac)
	}
	st.AddRow(fmt.Sprintf("Q1 vs Q%d", windows),
		rep.FirstLast.CommonFiles, rep.FirstLast.PairJaccard, rep.FirstLast.SameFileculeFrac)

	return &Result{Tables: []*report.Table{wt, st},
		Notes: []string{
			"windowed filecules are coarser than the global truth (fewer jobs per window), so some apparent churn is partial knowledge, not drift",
			"pair Jaccard ~1 would mean perfectly static filecules; the measured values quantify the paper's open question",
		}}, nil
}

// prefetchers compares the Related Work predictors against filecule LRU at
// the 10 TB point: successor chains, probability graphs, working sets,
// filecule prefetching with file-level eviction, and atomic filecule LRU.
func (r *Runner) prefetchers() (*Result, error) {
	t := r.Trace()
	p := r.Partition()
	reqs := r.Requests()
	capBytes := sim.ScaledCapacity(10, r.scale)

	tb := report.NewTable("prefetching baselines at the 10 TB (full-scale) point",
		"scheme", "miss rate", "byte miss rate", "prefetch GB", "total loaded GB")

	// Per-job remaining request counts let the working-set predictor
	// learn each job's sequence the moment the job finishes.
	remaining := make(map[trace.JobID]int, len(t.Jobs))
	for _, req := range reqs {
		remaining[req.Job]++
	}
	run := func(name string, pf cache.Prefetcher, ws *prefetch.WorkingSet) {
		sim := cache.NewSim(t, cache.NewFileGranularity(t), cache.NewLRU(), capBytes)
		if pf != nil {
			sim.SetPrefetcher(pf)
		}
		left := make(map[trace.JobID]int, len(remaining))
		for k, v := range remaining {
			left[k] = v
		}
		for i, req := range reqs {
			sim.AccessJob(req.Job, req.File, int64(i))
			left[req.Job]--
			if ws != nil && left[req.Job] == 0 {
				ws.Flush(req.Job)
			}
		}
		m := sim.Metrics()
		tb.AddRow(name, m.MissRate(), m.ByteMissRate(),
			float64(m.PrefetchBytes)/(1<<30), float64(m.BytesLoaded)/(1<<30))
	}
	run("file LRU (no prefetch)", nil, nil)
	run("successor (Amer et al.)", prefetch.NewSuccessor(2), nil)
	run("probability graph (Griffioen-Appleton)", prefetch.NewProbGraph(8, 0.3), nil)
	ws := prefetch.NewWorkingSet()
	ws.MaxStored = 4096
	run("working set (Tait-Duchamp)", ws, ws)
	run("filecule prefetch + file LRU", prefetch.NewFilecules(p), nil)

	// Atomic filecule LRU at 10 TB is a point of Figure 10's sweep.
	for _, pt := range r.CacheSweep() {
		if pt.CacheTB == 10 && pt.Granularity == "filecule" {
			tb.AddRow("filecule LRU (atomic units)", pt.MissRate, pt.ByteMissRate,
				0.0, float64(pt.BytesLoaded)/(1<<30))
		}
	}

	return &Result{Tables: []*report.Table{tb},
		Notes: []string{
			"sequence-based predictors depend on access order and intermediate files; filecules do not (paper Section 7)",
			"filecule prefetching with file-level eviction captures most of the atomic filecule-LRU win",
		}}, nil
}

// fileBundle performs the comparison the paper leaves as future work:
// Otoo-style file-bundle caching vs file LRU vs filecule LRU across the
// Figure 10 cache sizes.
func (r *Runner) fileBundle() (*Result, error) {
	t := r.Trace()
	points := r.CacheSweep() // the two LRU columns are Figure 10's
	const window = 50        // queued jobs visible to the bundle optimizer

	tb := report.NewTable(
		fmt.Sprintf("file-bundle (Otoo et al., window %d jobs) vs LRU granularities", window),
		"cache (full-scale TB)", "file LRU", "file-bundle", "filecule LRU")
	for i := 0; i+1 < len(points); i += 2 {
		file, filecule := points[i], points[i+1]
		if tbs := file.CacheTB; tbs != 1 && tbs != 10 && tbs != 100 {
			continue
		}
		bm := cache.SimulateFileBundle(t, file.CacheBytes, window)
		tb.AddRow(file.CacheTB, file.MissRate, bm.MissRate(), filecule.MissRate)
	}
	return &Result{Tables: []*report.Table{tb},
		Notes: []string{
			"the paper: 'We leave as future work the comparison of this strategy with filecule LRU on the DZero traces' — this is that comparison, on the synthetic analog",
			"file-bundle sees a queue of future jobs (lookahead) yet needs no filecule identification; filecule LRU needs identification but no lookahead",
		}}, nil
}

// replSweep sweeps the replication budget, showing how the file-vs-filecule
// placement gap evolves with available replica space.
func (r *Runner) replSweep() (*Result, error) {
	t := r.Trace()
	tb := report.NewTable("replication budget sweep (WAN GB and remote stalled jobs per strategy)",
		"budget (full-scale TB)", "none GB", "none stalled", "popular-files GB", "popular-files stalled",
		"popular-filecules GB", "popular-filecules stalled")
	for _, budgetTB := range []float64{2, 10, 40} {
		budget := int64(budgetTB * r.scale * float64(int64(1)<<40))
		if budget < 1<<30 {
			budget = 1 << 30
		}
		cfg := grid.Config{
			SiteBandwidth:    1e9 / 8,
			HubSiteBandwidth: 100e9 / 8,
			SiteCacheBytes:   budget * 4,
		}
		outs, err := replica.Evaluate(t, 0.6, budget, cfg, ".gov",
			replica.NoReplication{}, replica.PopularFiles{}, replica.PopularFilecules{})
		if err != nil {
			return nil, err
		}
		row := []interface{}{budgetTB}
		for _, o := range outs {
			row = append(row, float64(o.Grid.WANBytes())/(1<<30), o.Grid.RemoteStalled)
		}
		tb.AddRow(row...)
	}
	return &Result{Tables: []*report.Table{tb},
		Notes: []string{"larger budgets widen the absolute savings; filecule placement holds its stall advantage at every budget"}}, nil
}

// chunkSwarm cross-checks the Section 5 conclusion with the chunk-level
// protocol simulator instead of the fluid model.
func (r *Runner) chunkSwarm() (*Result, error) {
	t := r.Trace()
	p := r.Partition()
	fc, sites, _ := r.hotCase()

	size := p.Size(t, fc)
	const chunkBytes = 4 << 20 // BitTorrent-typical 4 MB pieces
	chunks := int(size / chunkBytes)
	if chunks < 1 {
		chunks = 1
	}
	base := swarm.ChunkScenario{
		Chunks:       chunks,
		ChunkBytes:   chunkBytes,
		SeedUpload:   100e6 / 8,
		PeerUpload:   50e6 / 8,
		PeerDownload: 400e6 / 8,
	}
	tb := report.NewTable("Section 5 cross-check: chunk-level swarm simulator",
		"scenario", "peers", "mean download", "max download")
	addRow := func(name string, arrivals []time.Duration) {
		s := base
		s.Arrivals = arrivals
		res := swarm.SimulateChunks(s)
		tb.AddRow(name, len(arrivals),
			res.Mean.Round(time.Second), res.Max.Round(time.Second))
	}
	addRow("observed (per-site arrivals)", swarm.ArrivalsFromIntervals(sites))
	addRow("flash crowd (same peers)", make([]time.Duration, len(sites)))
	addRow("flash crowd (50 peers)", make([]time.Duration, 50))

	return &Result{Tables: []*report.Table{tb},
		Notes: []string{
			"rarest-first chunk exchange with bounded unchoke slots reproduces the fluid model's verdict: no benefit at observed concurrency",
		}}, nil
}

// placement exercises the Section 6 "replica placement" question on the
// peer-assisted grid: where replicas sit decides hub offload and stage
// latency, because sites can fetch pinned replicas from each other.
func (r *Runner) placement() (*Result, error) {
	t := r.Trace()
	history, future := t.SplitByTime(0.6)
	p := core.Identify(history)
	budget := int64(20 * r.scale * float64(int64(1)<<40))
	if budget < 1<<30 {
		budget = 1 << 30
	}
	cfg := grid.Config{
		SiteBandwidth:    1e9 / 8,
		HubSiteBandwidth: 20e9 / 8,
		SiteCacheBytes:   budget,
	}
	// The hub holds every file: a remote miss no other site pins comes
	// through its link.
	all := make([]trace.FileID, len(future.Files))
	for i := range all {
		all[i] = trace.FileID(i)
	}

	plan := replica.PopularFilecules{}.Plan(history, p, budget)

	type setup struct {
		name  string
		apply func(*grid.System)
	}
	setups := []setup{
		{"no replicas (hub only)", func(*grid.System) {}},
		{"per-site filecule replicas", func(s *grid.System) {
			for site, files := range plan {
				if site != s.Hub() {
					s.Pin(site, files)
				}
			}
		}},
		{"one shared mirror (busiest remote)", func(s *grid.System) {
			// The busiest non-hub site pins the union of every remote
			// site's plan; everyone else fetches from it.
			counts := make(map[trace.SiteID]int)
			for i := range future.Jobs {
				counts[future.Jobs[i].Site]++
			}
			mirror := trace.SiteID(-1)
			for site, n := range counts {
				if site == s.Hub() {
					continue
				}
				if mirror < 0 || n > counts[mirror] || (n == counts[mirror] && site < mirror) {
					mirror = site
				}
			}
			if mirror < 0 {
				return
			}
			seen := make(map[trace.FileID]struct{})
			var union []trace.FileID
			for site, files := range plan {
				if site == s.Hub() {
					continue
				}
				for _, f := range files {
					if _, dup := seen[f]; !dup {
						seen[f] = struct{}{}
						union = append(union, f)
					}
				}
			}
			s.Pin(mirror, union)
		}},
	}

	tb := report.NewTable("Section 6: replica placement on the peer grid",
		"setup", "hub GB", "peer GB", "hub share", "local GB", "stalled", "mean stage")
	for _, su := range setups {
		sys, err := grid.New(future, cfg, ".gov")
		if err != nil {
			return nil, err
		}
		sys.Pin(sys.Hub(), all)
		su.apply(sys)
		m := sys.Replay()
		tb.AddRow(su.name,
			float64(m.HubBytes)/(1<<30), float64(m.PeerBytes)/(1<<30),
			m.HubShare(), float64(m.LocalBytes)/(1<<30),
			m.JobsStalled, m.MeanStage().Round(1e9))
	}
	return &Result{Tables: []*report.Table{tb},
		Notes: []string{
			"per-site replicas convert WAN fetches into local hits; a shared mirror instead offloads the hub onto peer links",
			"pinned replicas are served to remote peers, so placement at one site benefits the whole collaboration",
		}}, nil
}
