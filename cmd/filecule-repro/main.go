// Command filecule-repro regenerates the tables and figures of the paper
// against a workload (the calibrated synthetic one by default) and prints
// the paper-vs-measured report. It is the one front door to the experiments:
//
//	filecule-repro                          # run everything at the default scale
//	filecule-repro -exp fig10               # one experiment
//	filecule-repro -exp sec3                # the Section 3 characterization
//	filecule-repro -exp sec5                # the Section 5 BitTorrent study
//	filecule-repro -exp table1,fig4         # a list of IDs and groups
//	filecule-repro -list                    # list experiment IDs and groups
//	filecule-repro -workload dzero,seed=1,scale=0.1    # bigger workload (slower, closer shapes)
//	filecule-repro -workload file,path=t.bin,scale=0.1 # a recorded trace of that scale
//	filecule-repro -exp fig10 -seeds 5      # seeds 1-5: median [min–max] where they differ
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"filecule/internal/cli"
	"filecule/internal/experiments"
	"filecule/internal/workload"
)

func main() {
	var (
		spec  = cli.WorkloadFlag(flag.CommandLine)
		exp   = flag.String("exp", "", "comma-separated experiment IDs and groups to run (default: all)")
		list  = flag.Bool("list", false, "list experiment IDs and groups and exit")
		seeds = flag.Int("seeds", 1, "run at this many consecutive seeds from the workload's own and print each cell that differs as median [min–max]")
	)
	cli.Parse(flag.CommandLine, os.Args[1:])

	if *list {
		for _, id := range experiments.All() {
			desc, _ := experiments.Describe(id)
			fmt.Printf("%-12s %s\n", id, desc)
		}
		for _, g := range experiments.Groups() {
			ids, _ := experiments.Expand(g) // a group's own name always expands
			fmt.Printf("%-12s = %s\n", g, strings.Join(ids, ","))
		}
		return
	}

	specs := []string{*spec}
	if *seeds != 1 {
		var err error
		if *seeds < 1 {
			err = fmt.Errorf("-seeds %d: want at least 1", *seeds)
		} else {
			specs, err = workload.SeedSpecs(*spec, *seeds)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "filecule-repro: %v\n", err)
			os.Exit(2)
		}
	}
	if err := run(specs, *exp); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run runs the experiments (all of them when exp is empty) once per spec
// and prints each folded over the specs by experiments.Aggregate.
func run(specs []string, exp string) error {
	var ids []string
	if exp != "" {
		var err error
		if ids, err = experiments.Expand(exp); err != nil {
			return err
		}
	}
	var runs [][]*experiments.Result // by experiment, then spec
	for _, spec := range specs {
		// The scale sizes the caches and budgets relative to the paper's.
		scale, err := workload.Scale(spec)
		if err != nil {
			return err
		}
		t, err := workload.Load(spec)
		if err != nil {
			return err
		}
		results, err := experiments.NewForTrace(t, scale).RunAll(ids...)
		if err != nil {
			return err
		}
		if runs == nil {
			runs = make([][]*experiments.Result, len(results))
		}
		for i, res := range results {
			runs[i] = append(runs[i], res)
		}
	}

	if exp == "" {
		header := specs[0]
		if len(specs) > 1 {
			header += " … " + specs[len(specs)-1]
		}
		fmt.Printf("filecule reproduction report (%s)\n\n", header)
	}
	for _, rs := range runs {
		fmt.Print(experiments.Aggregate(rs).Render())
		if len(runs) > 1 {
			fmt.Println() // a list reads as a report; one ID prints bare
		}
	}
	return nil
}
