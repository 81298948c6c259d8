package core_test

import (
	"fmt"
	"os"

	"filecule/internal/core"
	"filecule/internal/report"
	"filecule/internal/synth"
)

// ExampleEngine identifies filecules online from a stream of job submissions
// with the partition-refinement Engine — the adaptive identification Section
// 6 of the paper calls for — and shows the partial view converging to the
// batch partition as jobs accumulate.
func ExampleEngine() {
	tr, err := synth.Generate(synth.DZero(7, 0.01))
	if err != nil {
		fmt.Println(err)
		return
	}
	global := core.Identify(tr)
	fmt.Printf("global truth: %d filecules over %d files\n\n",
		global.NumFilecules(), global.NumFiles())

	// Stream jobs through the engine, snapshotting as the log grows.
	e := core.NewEngine(0)
	tb := report.NewTable("online identification convergence",
		"jobs observed", "filecules", "covered files", "mean inflation", "exactly right")
	checkpoints := []int{len(tr.Jobs) / 20, len(tr.Jobs) / 5, len(tr.Jobs) / 2, len(tr.Jobs)}
	next := 0
	for i := range tr.Jobs {
		e.Observe(tr.Jobs[i].Files)
		if next < len(checkpoints) && i+1 == checkpoints[next] {
			snap := e.Snapshot()
			st := core.CompareToGlobal(global, snap)
			tb.AddRow(i+1, snap.NumFilecules(), st.CoveredFiles,
				st.MeanInflation, st.ExactFilecules)
			next++
		}
	}
	tb.Render(os.Stdout)

	// After the full stream, the online partition equals the batch one.
	final := e.Snapshot()
	if !final.Equal(global) {
		fmt.Println("\nBUG: online and batch identification disagree")
		return
	}
	fmt.Println("\nonline refinement converged exactly to the batch identification")

	// The engine keeps adapting: a new job that reads part of a filecule
	// splits it.
	for i := range final.Filecules {
		if final.Filecules[i].NumFiles() > 1 {
			e.Observe(final.Filecules[i].Files[:1])
			fmt.Printf("a new job touching part of filecule %d split the partition: %d -> %d filecules\n",
				i, final.NumFilecules(), e.Snapshot().NumFilecules())
			break
		}
	}
	// Output:
	// global truth: 1178 filecules over 6322 files
	//
	// == online identification convergence ==
	// jobs observed  filecules  covered files  mean inflation  exactly right
	// ----------------------------------------------------------------------
	// 118            133        2087           21.59           44
	// 474            397        3440           9.52            213
	// 1186           804        5245           3.43            617
	// 2372           1178       6322           1               1178
	//
	// online refinement converged exactly to the batch identification
	// a new job touching part of filecule 0 split the partition: 1178 -> 1179 filecules
}
