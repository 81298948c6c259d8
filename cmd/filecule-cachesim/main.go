// Command filecule-cachesim replays a trace through the single-pass sweep
// engine (internal/sim) and prints miss rates across cache sizes, policies
// and granularities. Cache sizes are full-scale TB, turned into bytes by
// sim.ScaledCapacity:
//
//	filecule-cachesim                                 # Figure 10: LRU, file vs filecule
//	filecule-cachesim -policies gds,gdsf -sizes 1,10  # other policies, other sizes
//	filecule-cachesim -sweep -o sweep.json            # the whole grid as filecule-sweep/v1 JSON
//	filecule-cachesim -sweep -table                   # ... rendered as tables
//
// The policy ablation is `filecule-repro -exp ablation`. A recorded trace of
// a scaled workload says so in its spec (file,path=trace.bin,scale=0.05) to
// get cache sizes scaled to match.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"filecule/internal/cli"
	"filecule/internal/report"
	"filecule/internal/sim"
	"filecule/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	// ExitOnError keeps the conventional usage-error exit code 2.
	fs := flag.NewFlagSet("filecule-cachesim", flag.ExitOnError)
	var (
		spec     = cli.WorkloadFlag(fs)
		sizes    = fs.String("sizes", "", "comma-separated cache sizes in full-scale TB (default: the paper's 7 sizes)")
		sweep    = fs.Bool("sweep", false, "run the whole grid (policies x granularities x sizes) and write JSON")
		policies = fs.String("policies", "", "comma-separated policies: lru, arc, gds, gdsf, lfuda, opt (default lru; with -sweep lru,arc,gds,opt)")
		grans    = fs.String("grans", "", "comma-separated granularities: file, filecule, bundle (default file,filecule; with -sweep all three)")
		workers  = fs.Int("workers", 0, "simulation workers, and the most grid cells held in memory at once (default GOMAXPROCS)")
		table    = fs.Bool("table", false, "sweep: render per-policy tables instead of JSON")
		out      = fs.String("o", "-", "output path ('-' for stdout)")
	)
	cli.Parse(fs, args)

	// Cache sizes scale with the workload so miss-rate curves stay
	// comparable across scales.
	effScale, err := workload.Scale(*spec)
	if err != nil {
		return err
	}
	sizeList, err := parseSizes(*sizes, effScale)
	if err != nil {
		return err
	}
	cfg := sim.SweepConfig{
		Policies:      splitList(*policies),
		Granularities: splitList(*grans),
		CapacitiesTB:  sizeList,
		Scale:         effScale,
		Workers:       *workers,
	}
	asTable := *table
	if !*sweep {
		// Figure 10 unless told otherwise, always as tables.
		asTable = true
		if len(cfg.Policies) == 0 {
			cfg.Policies = []string{"lru"}
		}
		if len(cfg.Granularities) == 0 {
			cfg.Granularities = []string{"file", "filecule"}
		}
	}
	return runSweep(*spec, cfg, asTable, *out, stdout)
}

// runSweep drives the single-pass engine and writes JSON (the
// filecule-sweep/v1 schema) or rendered tables to out, or to stdout when out
// is "-". The output file is created only once the sweep has succeeded.
// File-backed traces stream through SweepSource — the trace is never
// materialized, so peak memory is the 4-byte file-ID stream the merge
// emits and the state of at most -workers cells, sized by the requested
// files, not the job history or the catalog. The synthetic path materializes first to
// keep jobs in start-time order (tie-order stability pins the benchmark
// baseline) and streams from the in-memory adapter.
func runSweep(spec string, cfg sim.SweepConfig, asTable bool, out string, stdout io.Writer) (err error) {
	// OpenOrdered holds the start-order replay contract: unshaped synthetics
	// materialize start-sorted (tie-order stability pins the benchmark
	// baseline), recorded files and ordered streams replay as-is.
	src, err := workload.OpenOrdered(spec)
	if err != nil {
		return err
	}
	defer src.Close()
	res, err := sim.SweepSource(src, cfg)
	if err != nil {
		return err
	}

	w := stdout
	if out != "-" && out != "" {
		// Don't shadow the named return: the deferred Close must be able to
		// surface buffered-write failures (full disk) as the sweep's error.
		f, cerr := os.Create(out)
		if cerr != nil {
			return cerr
		}
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		w = f
	}
	if !asTable {
		return res.WriteJSON(w)
	}
	for _, tb := range report.SweepTables(res) {
		if err := tb.Render(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// parseSizes reads -sizes, rejecting any size sim.ScaledCapacity cannot turn
// into bytes at scale. An empty list leaves the engine's default, the
// paper's seven sizes.
func parseSizes(s string, scale float64) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var sizes []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad size %q", part)
		}
		if err := sim.CheckCacheSize(v, scale); err != nil {
			return nil, fmt.Errorf("bad size %q: %w", part, err)
		}
		sizes = append(sizes, v)
	}
	return sizes, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
