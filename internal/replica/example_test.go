package replica_test

import (
	"fmt"
	"os"

	"filecule/internal/core"
	"filecule/internal/grid"
	"filecule/internal/replica"
	"filecule/internal/report"
	"filecule/internal/synth"
)

// ExampleEvaluate replays a workload through the grid substrate (per-site
// disk caches behind fair-shared WAN links) and compares proactive
// replication strategies — Section 6's "what files to replicate?" question,
// end to end: plan on history, evaluate on the future.
func ExampleEvaluate() {
	tr, err := synth.Generate(synth.DZero(3, 0.01))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("workload: %d jobs across %d sites\n\n", len(tr.Jobs), len(tr.Sites))

	budget := int64(20) << 30 // 20 GB of replica space per site
	cfg := grid.Config{
		SiteBandwidth:    1e9 / 8,   // 1 Gbit/s site uplinks
		HubSiteBandwidth: 100e9 / 8, // FermiLab local access
		SiteCacheBytes:   100 << 30,
	}

	history, future := tr.SplitByTime(0.6)
	outs, err := replica.Evaluate(history, future, core.Identify(history), budget, cfg,
		replica.NoReplication{},
		replica.PopularFiles{},
		replica.PopularFilecules{},
	)
	if err != nil {
		fmt.Println(err)
		return
	}

	tb := report.NewTable("replication strategies (plan on first 60%, replay the rest)",
		"strategy", "placed GB", "WAN GB", "jobs stalled", "mean stage", "max stage")
	for _, o := range outs {
		tb.AddRow(o.Strategy,
			float64(o.PlacedBytes)/(1<<30),
			float64(o.Grid.WANBytes())/(1<<30),
			o.Grid.JobsStalled,
			o.Grid.MeanStage().Round(1e9).String(),
			o.Grid.MaxStage.Round(1e9).String())
	}
	tb.Render(os.Stdout)
	fmt.Println("\nfilecule-aware placement replicates whole groups, so jobs find complete inputs")
	// Output:
	// workload: 2372 jobs across 32 sites
	//
	// == replication strategies (plan on first 60%, replay the rest) ==
	// strategy           placed GB  WAN GB  jobs stalled  mean stage  max stage
	// -------------------------------------------------------------------------
	// none               0          2326.7  460           22s         44m28s
	// popular-files      199.62     2278.9  458           22s         44m28s
	// popular-filecules  194.15     2269.6  457           22s         44m28s
	//
	// filecule-aware placement replicates whole groups, so jobs find complete inputs
}
