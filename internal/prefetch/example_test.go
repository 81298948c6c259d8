package prefetch_test

import (
	"fmt"
	"os"

	"filecule/internal/cache"
	"filecule/internal/core"
	"filecule/internal/prefetch"
	"filecule/internal/report"
	"filecule/internal/synth"
)

// Example runs the Related Work prefetching baselines (successor chains,
// probability graphs) and the filecule predictor over one workload, with
// each job's read order fixed and then shuffled: the sequence-based
// predictors degrade while filecules do not.
func Example() {
	ordered := synth.DZero(9, 0.01)
	ordered.ShuffleWithinDataset = false
	shuffled := synth.DZero(9, 0.01)

	tb := report.NewTable("miss rate: sequence predictors vs filecules",
		"scheme", "fixed read order", "shuffled read order")
	rows := map[string][2]float64{}
	order := []string{"file LRU", "successor", "probgraph", "filecule prefetch"}

	for col, cfg := range []synth.Config{ordered, shuffled} {
		tr, err := synth.Generate(cfg)
		if err != nil {
			fmt.Println(err)
			return
		}
		p := core.Identify(tr)
		reqs := tr.Requests()
		var catalog int64
		for _, f := range tr.Files {
			catalog += f.Size
		}
		capacity := catalog / 10

		measure := func(name string, pf cache.Prefetcher) {
			sim := cache.NewSim(tr, cache.NewFileGranularity(tr), cache.NewLRU(), capacity)
			if pf != nil {
				sim.SetPrefetcher(pf)
			}
			r := rows[name]
			r[col] = sim.Replay(reqs).MissRate()
			rows[name] = r
		}
		measure("file LRU", nil)
		measure("successor", prefetch.NewSuccessor(2))
		measure("probgraph", prefetch.NewProbGraph(8, 0.3))
		measure("filecule prefetch", prefetch.NewFilecules(p))
	}

	for _, name := range order {
		r := rows[name]
		tb.AddRow(name, r[0], r[1])
	}
	tb.Render(os.Stdout)
	fmt.Println("\nfilecules group by co-access, not sequence, so shuffling job read order")
	fmt.Println("barely moves their miss rate — the paper's Section 7 distinction, measured.")
	// Output:
	// == miss rate: sequence predictors vs filecules ==
	// scheme             fixed read order  shuffled read order
	// --------------------------------------------------------
	// file LRU           0.4210            0.4265
	// successor          0.1095            0.2733
	// probgraph          0.1179            0.2159
	// filecule prefetch  0.1380            0.1461
	//
	// filecules group by co-access, not sequence, so shuffling job read order
	// barely moves their miss rate — the paper's Section 7 distinction, measured.
}
