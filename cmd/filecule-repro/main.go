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
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"filecule/internal/cli"
	"filecule/internal/experiments"
	"filecule/internal/workload"
)

func main() {
	var (
		spec = cli.WorkloadFlag(flag.CommandLine)
		exp  = flag.String("exp", "", "comma-separated experiment IDs and groups to run (default: all)")
		list = flag.Bool("list", false, "list experiment IDs and groups and exit")
		csv  = flag.String("csv", "", "also dump every table as CSV into this directory")
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

	if err := run(*spec, *exp, *csv); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(spec, exp, csv string) error {
	var ids []string
	if exp != "" {
		var err error
		if ids, err = experiments.Expand(exp); err != nil {
			return err
		}
	}
	// The scale sizes the caches and budgets relative to the paper's.
	scale, err := workload.Scale(spec)
	if err != nil {
		return err
	}
	t, err := workload.Load(spec)
	if err != nil {
		return err
	}
	r := experiments.NewForTrace(t, scale)

	var results []*experiments.Result
	if exp == "" {
		if results, err = r.RunAll(); err != nil {
			return err
		}
		fmt.Printf("filecule reproduction report (%s)\n\n", spec)
		for _, res := range results {
			fmt.Print(res.Render())
			fmt.Println()
		}
	}
	for _, id := range ids {
		res, err := r.Run(id)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())
		if len(ids) > 1 {
			fmt.Println() // a list reads as a report; one ID prints bare
		}
		results = append(results, res)
	}
	if csv != "" {
		return dumpCSV(csv, results)
	}
	return nil
}

// dumpCSV writes every result table as <dir>/<experiment>-<i>.csv.
func dumpCSV(dir string, results []*experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, res := range results {
		for i, tb := range res.Tables {
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.csv", res.ID, i))
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := tb.CSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}
