// Onlineid: identify filecules dynamically from a stream of job submissions
// with the partition-refinement Engine — the "adaptive and dynamic
// identification" infrastructure Section 6 of the paper calls for — and
// watch the partial view converge to the global truth as jobs accumulate.
package main

import (
	"fmt"
	"os"

	"filecule/internal/core"
	"filecule/internal/report"
	"filecule/internal/synth"
)

func main() {
	tr, err := synth.Generate(synth.DZero(7, 0.01))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
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
	if final.Equal(global) {
		fmt.Println("\nonline refinement converged exactly to the batch identification")
	} else {
		fmt.Println("\nBUG: online and batch identification disagree")
		os.Exit(1)
	}

	// The engine keeps adapting: feed a brand-new job that splits an
	// existing filecule.
	victim := pickMultiFileFilecule(final)
	if victim >= 0 {
		before := final.NumFilecules()
		half := final.Filecules[victim].Files[:1]
		e.Observe(half)
		after := e.Snapshot().NumFilecules()
		fmt.Printf("a new job touching part of filecule %d split the partition: %d -> %d filecules\n",
			victim, before, after)
	}
}

func pickMultiFileFilecule(p *core.Partition) int {
	for i := range p.Filecules {
		if p.Filecules[i].NumFiles() > 1 {
			return i
		}
	}
	return -1
}
