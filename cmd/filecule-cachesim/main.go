// Command filecule-cachesim replays a trace through the cache simulators and
// prints miss rates across cache sizes and policies: a file-versus-filecule
// sweep of any reference policy, the policy ablation, and the single-pass
// grid engine (the one Figure 10 runs on). Cache sizes are full-scale TB,
// turned into bytes by sim.ScaledCapacity:
//
//	filecule-cachesim                                          # Figure 10 sweep
//	filecule-cachesim -workload file,path=trace.txt -ablation  # policy zoo
//	filecule-cachesim -sizes 1,10,100 -policy gds              # custom sweep
//	filecule-cachesim -sweep -o sweep.json                     # single-pass grid sweep
//	filecule-cachesim -sweep -table                            # ... rendered as tables
//
// A recorded trace of a scaled workload says so in its spec
// (file,path=trace.bin,scale=0.05) to get cache sizes scaled to match.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"filecule/internal/cache"
	"filecule/internal/cli"
	"filecule/internal/core"
	"filecule/internal/experiments"
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
		policy   = fs.String("policy", "lru", "eviction policy: lru, fifo, lfu, size, gds, gdsf, landlord, bundle")
		ablation = fs.Bool("ablation", false, "run the full policy-zoo ablation instead of a sweep")

		sweep    = fs.Bool("sweep", false, "run the single-pass grid sweep engine (policies x granularities x sizes)")
		policies = fs.String("policies", "", "sweep: comma-separated policies (default lru,arc,gds,opt)")
		grans    = fs.String("grans", "", "sweep: comma-separated granularities (default file,filecule,bundle)")
		workers  = fs.Int("workers", 0, "sweep: simulation workers (default GOMAXPROCS)")
		table    = fs.Bool("table", false, "sweep: render per-policy tables instead of JSON")
		out      = fs.String("o", "-", "sweep: JSON output path ('-' for stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err // unreachable with ExitOnError; kept for safety
	}

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

	if *sweep {
		return runSweep(*spec, effScale, sizeList, *policies, *grans, *workers, *table, *out, stdout)
	}

	t, err := workload.Load(*spec)
	if err != nil {
		return err
	}

	r := experiments.NewForTrace(t, effScale)
	if *ablation {
		res, err := r.Run("ablation")
		if err != nil {
			return err
		}
		_, err = fmt.Fprint(stdout, res.Render())
		return err
	}

	p := core.Identify(t)
	reqs := t.Requests()
	tb := report.NewTable(
		fmt.Sprintf("%s miss rates (cache sizes scaled by %g)", *policy, effScale),
		"cache TB (full scale)", "file miss", "filecule miss", "gain")
	for _, tbs := range sizeList {
		capBytes := sim.ScaledCapacity(tbs, effScale)
		pol, err := mkPolicy(*policy, p)
		if err != nil {
			return err
		}
		fm := cache.NewSim(t, cache.NewFileGranularity(t), pol, capBytes).Replay(reqs)
		pol, err = mkPolicy(*policy, p)
		if err != nil {
			return err
		}
		cm := cache.NewSim(t, cache.NewFileculeGranularity(t, p), pol, capBytes).Replay(reqs)
		gain := 0.0
		if cm.MissRate() > 0 {
			gain = fm.MissRate() / cm.MissRate()
		}
		tb.AddRow(tbs, fm.MissRate(), cm.MissRate(), gain)
	}
	return tb.Render(stdout)
}

// runSweep drives the single-pass engine and emits JSON (the
// filecule-sweep/v1 schema) or rendered tables. File-backed traces stream
// through SweepSource — the trace is never materialized, so peak memory is
// the merged request stream, briefly, then the 4-byte file-ID stream and cell
// state sized by the requested files, not the job history or the catalog.
// The synthetic path materializes first to keep jobs in start-time order
// (tie-order stability pins the benchmark baseline) and streams from the
// in-memory adapter.
func runSweep(spec string, scale float64, sizes []float64, policies, grans string, workers int, asTable bool, out string, stdout io.Writer) (err error) {
	cfg := sim.SweepConfig{Scale: scale, Workers: workers, CapacitiesTB: sizes}
	if policies != "" {
		cfg.Policies = splitList(policies)
	}
	if grans != "" {
		cfg.Granularities = splitList(grans)
	}

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

	if asTable {
		for _, tb := range report.SweepTables(res) {
			if err := tb.Render(stdout); err != nil {
				return err
			}
			if _, err := fmt.Fprintln(stdout); err != nil {
				return err
			}
		}
		return nil
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
	return res.WriteJSON(w)
}

// parseSizes reads -sizes, rejecting any size sim.ScaledCapacity cannot turn
// into bytes at scale.
func parseSizes(s string, scale float64) ([]float64, error) {
	if s == "" {
		return experiments.Fig10CacheSizesTB, nil
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

func mkPolicy(name string, p *core.Partition) (cache.Policy, error) {
	switch name {
	case "lru":
		return cache.NewLRU(), nil
	case "fifo":
		return cache.NewFIFO(), nil
	case "lfu":
		return cache.NewLFU(), nil
	case "size":
		return cache.NewSize(), nil
	case "gds":
		return cache.NewGDS(), nil
	case "gdsf":
		return cache.NewGDSF(), nil
	case "landlord":
		return cache.NewLandlord(), nil
	case "bundle":
		return cache.NewBundlePolicy(cache.NewLRU(), p), nil
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
}
