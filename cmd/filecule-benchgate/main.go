// Command filecule-benchgate turns `go test -bench` output into a
// machine-readable benchmark report (the filecule-bench/v1 schema) and gates
// changes against a committed baseline:
//
//	go test -bench 'Sweep|Server' -benchmem ./... > bench.txt
//	filecule-cachesim -sweep -workload dzero,seed=1,scale=0.02 -o sweep.json
//	filecule-benchgate -bench bench.txt -sweep sweep.json -o BENCH_sweep.json
//	filecule-benchgate -report BENCH_sweep.json -baseline BENCH_baseline.json
//	filecule-benchgate -report BENCH_sweep.json -baseline BENCH_baseline.json -update
//
// The gate fails (exit 1) when ns/op or B/op regresses beyond the tolerance
// band against the baseline, when the ratio between paired benchmarks of
// one run leaves its floor or ceiling (speedupPairs, overheadPairs), when an
// absolute metric bound is violated (metricBounds: wire req/s floor, wire
// p99 ceiling, ...), or when the embedded sweep miss rates — which are
// machine-independent — differ at all.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"filecule/internal/cli"
	"filecule/internal/sim"
)

// BenchSchema versions the benchmark report JSON.
const BenchSchema = "filecule-bench/v1"

// Benchmark is one parsed benchmark result. Metrics maps unit to value
// (ns/op, B/op, allocs/op, plus any custom b.ReportMetric units).
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the filecule-bench/v1 document: benchmark numbers plus the
// machine-independent sweep results they were measured against.
type Report struct {
	Schema     string           `json:"schema"`
	Benchmarks []Benchmark      `json:"benchmarks"`
	Sweep      *sim.SweepResult `json:"sweep,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("filecule-benchgate", flag.ExitOnError)
	var (
		benchPath = fs.String("bench", "", "`go test -bench` output to parse ('-' for stdin)")
		sweepPath = fs.String("sweep", "", "sweep JSON (filecule-sweep/v1) to embed in the report")
		outPath   = fs.String("o", "", "write the assembled report JSON here ('-' for stdout)")

		reportPath = fs.String("report", "", "report to gate against the baseline")
		basePath   = fs.String("baseline", "", "committed baseline report")
		tolerance  = fs.Float64("tolerance", 0.15, "allowed fractional regression of ns/op, B/op and (cold-path benchmarks) allocs/op")
		update     = fs.Bool("update", false, "rewrite the baseline from the report instead of gating")
	)
	cli.Parse(fs, args)

	if *benchPath != "" {
		rep, err := assemble(*benchPath, *sweepPath)
		if err != nil {
			return err
		}
		if err := writeReport(rep, *outPath, stdout); err != nil {
			return err
		}
	}

	if *reportPath == "" {
		if *benchPath == "" {
			return fmt.Errorf("nothing to do: pass -bench to assemble a report and/or -report -baseline to gate")
		}
		return nil
	}
	rep, err := readReport(*reportPath)
	if err != nil {
		return err
	}
	if *basePath == "" {
		return fmt.Errorf("-report requires -baseline")
	}
	if *update {
		f, err := os.Create(*basePath)
		if err != nil {
			return err
		}
		if err := encodeReport(f, rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "benchgate: baseline %s updated (%d benchmarks)\n", *basePath, len(rep.Benchmarks))
		return nil
	}
	base, err := readReport(*basePath)
	if err != nil {
		return err
	}
	violations := gate(base, rep, *tolerance, speedupPairs, overheadPairs, metricBounds)
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(stdout, "FAIL:", v)
		}
		return fmt.Errorf("benchgate: %d violation(s) against %s (tolerance %.0f%%)",
			len(violations), *basePath, *tolerance*100)
	}
	fmt.Fprintf(stdout, "benchgate: %d benchmarks within %.0f%% of baseline\n", len(rep.Benchmarks), *tolerance*100)
	return nil
}

// assemble parses bench output and optionally embeds a sweep result.
func assemble(benchPath, sweepPath string) (*Report, error) {
	var r io.Reader = os.Stdin
	if benchPath != "-" {
		f, err := os.Open(benchPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	benches, err := parseBench(r)
	if err != nil {
		return nil, err
	}
	if len(benches) == 0 {
		return nil, fmt.Errorf("no Benchmark lines found in %s", benchPath)
	}
	rep := &Report{Schema: BenchSchema, Benchmarks: benches}
	if sweepPath != "" {
		data, err := os.ReadFile(sweepPath)
		if err != nil {
			return nil, err
		}
		var sw sim.SweepResult
		if err := json.Unmarshal(data, &sw); err != nil {
			return nil, fmt.Errorf("parse sweep %s: %w", sweepPath, err)
		}
		if sw.Schema != sim.SweepSchema {
			return nil, fmt.Errorf("sweep %s: schema %q, want %q", sweepPath, sw.Schema, sim.SweepSchema)
		}
		// Strip the machine-dependent fields so baseline diffs stay clean.
		sw.WallSeconds = 0
		sw.Workers = 0
		rep.Sweep = &sw
	}
	return rep, nil
}

// parseBench extracts benchmark lines from `go test -bench` output:
//
//	BenchmarkSweepEngine-4   100   123456 ns/op   789 B/op   10 allocs/op
//
// The -N GOMAXPROCS suffix is stripped so reports compare across machines.
func parseBench(r io.Reader) ([]Benchmark, error) {
	var out []Benchmark
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // e.g. "BenchmarkX	--- FAIL" style lines
		}
		b := Benchmark{Name: name, Iterations: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bench line %q: bad value %q", sc.Text(), fields[i])
			}
			b.Metrics[fields[i+1]] = v
		}
		out = append(out, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// speedupPair names a fast/slow benchmark pair whose within-run wall-clock
// ratio must stay at or above floor. Comparing two benchmarks from the same
// run makes the check immune to runner-to-runner speed differences.
type speedupPair struct {
	fast, slow string
	floor      float64
}

var speedupPairs = []speedupPair{
	{fast: "SweepEngine", slow: "SweepSequential", floor: 3},
	{fast: "DecodeBin", slow: "DecodeText", floor: 2},
	// The mapped decode measured 1.5-1.9x the streamed one on a 2-vCPU
	// host (71-76 ms against 135-141 ms at scale 0.5), but on a 1-vCPU
	// runner it is one worker, ahead only by filling a pre-sized job slice
	// in place, so the floor below 1 polices "never meaningfully slower"
	// rather than asserting the speedup.
	{fast: "DecodeMmap", slow: "DecodeBin", floor: 0.9},
	{fast: "ServeTCPWire", slow: "ServeTCPJSON", floor: 3},
}

// overheadPair names a wrapped/bare benchmark pair whose within-run
// wall-clock ratio must stay at or below ceiling — the inverse of a
// speedupPair, for features that add cost (durability) rather than remove
// it. The ObserveWAL ceiling is sized for a single-core CI runner,
// where the WAL committer's encode and write() serialize with the observe
// path instead of overlapping on another core: measured ~4.5x on a quiet
// 1-vCPU host and ~6.7x under full-suite load, so 10x flags a real
// regression without tripping on runner noise.
type overheadPair struct {
	wrapped, bare string
	ceiling       float64
}

var overheadPairs = []overheadPair{
	{wrapped: "ObserveWAL", bare: "ObserveEngine", ceiling: 10},
}

// metricBound pins one custom benchmark metric (a b.ReportMetric unit like
// "req/s" or "p99-ns") to an absolute range. Unlike the relative checks,
// these ARE machine-dependent — the wire bounds are sized for the slowest
// supported runner (1 vCPU) with an order of magnitude of headroom, so they
// catch a serving path falling off a cliff, not ordinary runner jitter.
// A zero floor or ceiling disables that side; a bound on a benchmark or
// unit absent from the report is a violation (silently skipping would let
// a renamed benchmark disable its own gate).
type metricBound struct {
	bench, unit    string
	floor, ceiling float64
}

var metricBounds = []metricBound{
	{bench: "ServeTCPWire", unit: "req/s", floor: 30000},
	{bench: "ServeTCPWire", unit: "p99-ns", ceiling: 25e6}, // 25 ms
	// Machine-independent: the streamed per-job hot loop amortizes chunk
	// decode to zero allocations per job, and must stay that way.
	{bench: "BinIterate", unit: "allocs/op", ceiling: 1},
	// The KV CSV row decoder pins its zero-allocation steady state.
	{bench: "DecodeKV", unit: "allocs/op", ceiling: 1},
	// The engine's steady-state observe, in absolute numbers. The gate
	// used to require 4x over the map-and-pointer Refiner in the same
	// run; the Refiner is now a test oracle with no benchmark, so its
	// last recorded 2 841 ns/op over that 4x floor stands as the
	// ceiling (the baseline hosts measure 220-240 ns/op). allocs/op
	// prints whole numbers, so any allocation per observe is over 0.5.
	{bench: "ObserveEngine", unit: "ns/op", ceiling: 700},
	{bench: "ObserveEngine", unit: "allocs/op", ceiling: 0.5},
}

// noRelativeNsOp lists benchmarks exempt from the cross-run ns/op tolerance
// band: full TCP round trips on a shared 1-vCPU runner, whose wall clock is
// dominated by scheduler and VM-neighbor noise (25%+ swings between
// back-to-back runs of identical code), and the mapped decode, whose wall
// clock rides on page-cache state and fault costs that move with host
// memory pressure (20% swings observed back to back). They are policed
// instead by checks immune to run-to-run machine speed — the within-run
// ServeTCPWire over ServeTCPJSON and DecodeMmap over DecodeBin speedup
// pairs and the absolute req/s floor + p99 ceiling bounds. B/op stays
// banded: allocation per op is deterministic.
var noRelativeNsOp = map[string]bool{
	"ServeTCPWire": true,
	"ServeTCPJSON": true,
	"DecodeMmap":   true,
}

// coldPath lists the benchmarks with fixed inputs and no concurrency — trace
// preparation, and the snapshot cycle after a re-request — which are held to
// the machine-independent half of their record: B/op like every benchmark,
// allocs/op in its place of ns/op, which the baseline records but a different
// host would not reproduce.
var coldPath = map[string]bool{
	"GenerateWorkload":       true,
	"RequestStream":          true,
	"SortJobsByStart":        true,
	"SnapshotAfterRerequest": true,
}

// gate compares a report against the baseline and returns all violations.
func gate(base, rep *Report, tolerance float64, pairs []speedupPair, ceilings []overheadPair, bounds []metricBound) []string {
	var out []string
	byName := make(map[string]Benchmark, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		byName[b.Name] = b
	}
	names := make([]string, 0, len(base.Benchmarks))
	baseBy := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		names = append(names, b.Name)
		baseBy[b.Name] = b
	}
	sort.Strings(names)
	for _, name := range names {
		bb := baseBy[name]
		rb, ok := byName[name]
		if !ok {
			out = append(out, fmt.Sprintf("%s: present in baseline, missing from report", name))
			continue
		}
		for _, unit := range []string{"ns/op", "B/op", "allocs/op"} {
			if unit == "ns/op" && (noRelativeNsOp[name] || coldPath[name]) || unit == "allocs/op" && !coldPath[name] {
				continue
			}
			bv, bok := bb.Metrics[unit]
			rv, rok := rb.Metrics[unit]
			if !bok || bv == 0 {
				continue
			}
			if !rok {
				out = append(out, fmt.Sprintf("%s: baseline has %s, report does not", name, unit))
				continue
			}
			if rv > bv*(1+tolerance) {
				out = append(out, fmt.Sprintf("%s: %s regressed %.1f%% (%.4g -> %.4g, tolerance %.0f%%)",
					name, unit, (rv/bv-1)*100, bv, rv, tolerance*100))
			}
		}
	}

	// The engines' reasons to exist, each checked within one run.
	for _, p := range pairs {
		fast, fok := byName[p.fast]
		slow, sok := byName[p.slow]
		if fok && sok && fast.Metrics["ns/op"] > 0 {
			if ratio := slow.Metrics["ns/op"] / fast.Metrics["ns/op"]; ratio < p.floor {
				out = append(out, fmt.Sprintf(
					"%s only %.2fx faster than %s, floor %gx", p.fast, ratio, p.slow, p.floor))
			}
		}
	}

	// Features that tax a hot path must keep the tax bounded, again within
	// one run.
	for _, p := range ceilings {
		wrapped, wok := byName[p.wrapped]
		bare, bok := byName[p.bare]
		if wok && bok && bare.Metrics["ns/op"] > 0 {
			if ratio := wrapped.Metrics["ns/op"] / bare.Metrics["ns/op"]; ratio > p.ceiling {
				out = append(out, fmt.Sprintf(
					"%s is %.2fx slower than %s, ceiling %gx", p.wrapped, ratio, p.bare, p.ceiling))
			}
		}
	}

	// Absolute floors/ceilings on custom metrics.
	for _, m := range bounds {
		if m.floor <= 0 && m.ceiling <= 0 {
			continue
		}
		b, ok := byName[m.bench]
		if !ok {
			out = append(out, fmt.Sprintf("%s: bounded by %s limits, missing from report", m.bench, m.unit))
			continue
		}
		v, ok := b.Metrics[m.unit]
		if !ok {
			out = append(out, fmt.Sprintf("%s: does not report %s, which is bounded", m.bench, m.unit))
			continue
		}
		if m.floor > 0 && v < m.floor {
			out = append(out, fmt.Sprintf("%s: %s %.4g under floor %.4g", m.bench, m.unit, v, m.floor))
		}
		if m.ceiling > 0 && v > m.ceiling {
			out = append(out, fmt.Sprintf("%s: %s %.4g over ceiling %.4g", m.bench, m.unit, v, m.ceiling))
		}
	}

	// Sweep miss rates are exact functions of trace + config: any drift is a
	// behavior change, not noise.
	if base.Sweep != nil {
		if rep.Sweep == nil {
			out = append(out, "baseline embeds sweep results, report does not")
		} else {
			out = append(out, gateSweep(base.Sweep, rep.Sweep)...)
		}
	}
	return out
}

func gateSweep(base, rep *sim.SweepResult) []string {
	var out []string
	if base.Scale != rep.Scale || base.Requests != rep.Requests {
		return []string{fmt.Sprintf("sweep workload changed: scale %g/%d requests vs baseline %g/%d — update the baseline deliberately",
			rep.Scale, rep.Requests, base.Scale, base.Requests)}
	}
	type key struct {
		p, g string
		tb   float64
	}
	repBy := make(map[key]sim.CellResult, len(rep.Cells))
	for _, c := range rep.Cells {
		repBy[key{c.Policy, c.Granularity, c.CacheTB}] = c
	}
	for _, b := range base.Cells {
		r, ok := repBy[key{b.Policy, b.Granularity, b.CacheTB}]
		if !ok {
			out = append(out, fmt.Sprintf("sweep cell %s/%s/%gTB missing from report", b.Policy, b.Granularity, b.CacheTB))
			continue
		}
		if r.Metrics != b.Metrics {
			out = append(out, fmt.Sprintf("sweep cell %s/%s/%gTB changed: %+v -> %+v",
				b.Policy, b.Granularity, b.CacheTB, b.Metrics, r.Metrics))
		}
	}
	return out
}

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if rep.Schema != BenchSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, BenchSchema)
	}
	return &rep, nil
}

func writeReport(rep *Report, path string, stdout io.Writer) error {
	if path == "" || path == "-" {
		return encodeReport(stdout, rep)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := encodeReport(f, rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func encodeReport(w io.Writer, rep *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
