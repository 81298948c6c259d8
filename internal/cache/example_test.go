package cache_test

import (
	"fmt"
	"os"
	"time"

	"filecule/internal/cache"
	"filecule/internal/core"
	"filecule/internal/report"
	"filecule/internal/trace"
)

// ExampleSim builds a workload by hand with the trace Builder and compares
// LRU caching at file and filecule granularity across cache sizes: the
// paper's Section 4 experiment on a workload you control.
func ExampleSim() {
	tr := twoGroups()
	p := core.Identify(tr)
	reqs := tr.Requests()
	fmt.Printf("workload: %d jobs, %d files, %d filecules, %d requests\n\n",
		len(tr.Jobs), len(tr.Files), p.NumFilecules(), len(reqs))

	tb := report.NewTable("LRU miss rate by granularity",
		"cache (GB)", "file", "filecule", "gain")
	for _, gb := range []int64{1, 2, 5, 10, 20} {
		capacity := gb << 30
		fm := cache.NewSim(tr, cache.NewFileGranularity(tr), cache.NewLRU(), capacity).Replay(reqs)
		cm := cache.NewSim(tr, cache.NewFileculeGranularity(tr, p), cache.NewLRU(), capacity).Replay(reqs)
		gain := 0.0
		if cm.MissRate() > 0 {
			gain = fm.MissRate() / cm.MissRate()
		}
		tb.AddRow(gb, fm.MissRate(), cm.MissRate(), gain)
	}
	tb.Render(os.Stdout)
	// Output:
	// workload: 400 jobs, 244 files, 13 filecules, 8536 requests
	//
	// == LRU miss rate by granularity ==
	// cache (GB)  file    filecule  gain
	// -----------------------------------
	// 1           1       0.9529    1.05
	// 2           1       0.0626    15.99
	// 5           1       0.0626    15.99
	// 10          0.9377  0.0470    19.96
	// 20          0.9377  0.0470    19.96
}

// twoGroups models two physics groups: each owns a few multi-file datasets
// and re-analyzes them repeatedly; a shared calibration dataset is used by
// both.
func twoGroups() *trace.Trace {
	b := trace.NewBuilder()
	fnal := b.Site("fnal", ".gov", 4)
	kit := b.Site("kit", ".de", 2)
	users := []trace.UserID{
		b.User("ana", fnal), b.User("ben", fnal),
		b.User("cleo", kit), b.User("dmitri", kit),
	}
	sites := []trace.SiteID{fnal, fnal, kit, kit}

	// Datasets: 6 per group of 20 x 100 MB files, plus shared calibration.
	mkDataset := func(name string, n int) []trace.FileID {
		files := make([]trace.FileID, n)
		for i := range files {
			files[i] = b.File(fmt.Sprintf("%s-%03d", name, i), 100<<20, trace.TierThumbnail)
		}
		return files
	}
	var groupA, groupB [][]trace.FileID
	for d := 0; d < 6; d++ {
		groupA = append(groupA, mkDataset(fmt.Sprintf("top-quark-%d", d), 20))
		groupB = append(groupB, mkDataset(fmt.Sprintf("higgs-%d", d), 20))
	}
	calib := mkDataset("calibration", 4)

	start := time.Date(2003, 6, 1, 8, 0, 0, 0, time.UTC)
	exec := &trace.Exec{Node: "node0", App: "analyze", Version: "v1"}
	// 400 jobs: users cycle over their group's datasets plus calibration.
	for j := 0; j < 400; j++ {
		u := j % len(users)
		group := groupA
		if u >= 2 {
			group = groupB
		}
		input := append([]trace.FileID{}, group[j%len(group)]...)
		if j%3 == 0 {
			input = append(input, calib...)
		}
		b.Job(trace.Job{
			User: users[u], Site: sites[u], Exec: exec,
			Tier: trace.TierThumbnail, Family: trace.FamilyAnalysis,
			Start: start.Add(time.Duration(j) * 2 * time.Hour),
			End:   start.Add(time.Duration(j)*2*time.Hour + 90*time.Minute),
			Files: input,
		})
	}
	return b.Build()
}
