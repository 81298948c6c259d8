// Command e2e is the repository's end-to-end benchmark: five closed-loop
// workloads that each follow one journey through the system from trace bytes
// to a verified answer, and a traced mode that attributes the time to layers
// by probing each layer's public functions from outside.
//
//	go run ./bench/e2e -workload <name> [-seed N] [-seconds S] [-trace 1]
//
// bench/run.sh is the same command with the Go build cache and all scratch
// files kept inside the checkout; BENCHMARK.json names it. bench/README.md
// documents workloads, metrics and recorded numbers.
//
// Every timed quantity is a median over equal passes inside one run; load is
// closed-loop from two connections; no fsync sits on a timed path. The input
// is generated from -seed, and product code only ever receives the generated
// trace file and job lists. Any answer that disagrees with its oracle makes
// the run exit non-zero without printing metrics.
//
// The bounded end-to-end metrics are set-up time and peak RSS. Throughput is
// printed by every run but bounded by nothing: the sandbox's speed wanders by
// 20 % and more over minutes, further than any bound the benchmark's contract
// allows (bench/README.md, "Why throughput is not bounded").
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64 // timed seconds one untraced run collects
	traced   bool
	traceOut string
	quick    bool
	repeat   int
	corrupt  bool // test hook: damage the oracle, so verification must fail
}

const (
	minPasses    = 5 // an untraced run never reports a median of fewer
	tracedPasses = 3
	quickScale   = 0.005
)

// phase is how long a serve workload drives its request mix per pass.
func (o *options) phase() time.Duration {
	if o.quick {
		return 100 * time.Millisecond
	}
	return time.Second
}

func main() {
	var o options
	var traced int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated trace and the per-connection request streams")
	flag.Float64Var(&o.seconds, "seconds", 12, "timed seconds to collect: passes repeat until their timed phases add up to this (at least 5 passes)")
	flag.IntVar(&traced, "trace", 0, "1 = traced run: 3 passes recording spans, then the layer probes; prints the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.traceOut, "trace-out", "", "where a traced run writes its spans as JSON lines (default: e2e-spans-<workload>.jsonl in the temp dir)")
	flag.BoolVar(&o.quick, "quick", false, "smoke mode: scale 0.005, one pass, 100 ms phases; numbers mean nothing")
	flag.IntVar(&o.repeat, "repeat", 0, "run K untraced runs per workload (all workloads unless -workload is set) on seeds seed..seed+K-1 and print every end-to-end metric's spread beside its bound")
	flag.Parse()
	o.traced = traced != 0
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "e2e: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	var err error
	if o.repeat > 0 {
		err = repeat(&o, os.Stdout)
	} else {
		err = run(&o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// metric is one reported number. The last line of a run is a result.
type metric struct {
	name  string
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// unboundedPrefix starts the line on which an untraced run reports its
// throughput: the median over passes of work / timed wall, in work units per
// second, and the passes' quartile spread. It is information, not an
// end-to-end metric; -repeat reads it back.
const unboundedPrefix = "unbounded: throughput_per_s="

// passStats is what the pass loop hands to the reporters.
type passStats struct {
	throughput []float64 // work / timed wall, per pass
	setup      []float64 // pass wall - timed wall, per pass
	total      tally
}

func run(o *options, out io.Writer) error {
	runStart := time.Now()
	wl, err := lookupWorkload(o.workload)
	if err != nil {
		return err
	}
	scale := wl.scale
	if o.quick {
		scale = quickScale
	}
	dir, err := os.MkdirTemp("", "e2e-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// One-time preparation: the input, the oracle, the workload's own
	// inputs. Where it is short, a single timing is mostly the host's mood,
	// so it is repeated until a second has gone into it (at most five times)
	// and setup_s takes the median.
	var in *input
	var pass passFunc
	var once []float64
	for spent := 0.0; len(once) == 0 || (spent < 1 && len(once) < 5 && !o.quick); {
		t0 := time.Now()
		if in, err = prepare(o.seed, scale, dir); err != nil {
			return err
		}
		if o.corrupt {
			in.damageOracle()
		}
		if pass, err = wl.setup(in, o); err != nil {
			return err
		}
		once = append(once, time.Since(t0).Seconds())
		spent += once[len(once)-1]
	}

	fmt.Fprintf(out, "e2e: workload=%s seed=%d scale=%g traced=%v seconds=%g unit=%s\n", wl.name, o.seed, scale, o.traced, o.seconds, wl.unit)
	fmt.Fprintf(out, "host: %s\n", hostDescriptor())
	fmt.Fprintf(out, "input: jobs=%d files=%d requests=%d filecules=%d trace_bytes=%d\n",
		len(in.jobs), len(in.t.Files), in.t.NumRequests(), in.oracle.NumFilecules(), in.fileBytes)

	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	ps, err := runPasses(o, pass, tr, out)
	if err != nil {
		return err
	}

	var ms []metric
	if o.traced {
		if ms, err = tracedReport(o, wl, in, tr, ps, out); err != nil {
			return err
		}
	} else {
		ms = []metric{
			// What one pass spends outside its timed phases is a median
			// over passes, so the figure does not grow with the number of
			// passes a fast host fits in.
			{"setup_s", median(once) + median(ps.setup), "s"},
			{"peak_rss_mb", peakRSSMB(), "MB"},
		}
		fmt.Fprintf(out, "passes=%d timed_s=%.3f run_s=%.2f\n", len(ps.setup), ps.total.wall.Seconds(), time.Since(runStart).Seconds())
		fmt.Fprintf(out, "%s%.6g pass_iqr_frac=%.4f\n", unboundedPrefix, median(ps.throughput), iqrFrac(ps.throughput))
	}
	res := result{Correct: true, Attempted: ps.total.attempted, Failed: ps.total.failed, Metrics: map[string]metric{}}
	for _, m := range ms {
		fmt.Fprintf(out, "%-36s %16.6g %s\n", m.name, m.Value, m.Unit)
		res.Metrics[m.name] = m
	}
	fmt.Fprintf(out, "ops: attempted=%d failed=%d\n", res.Attempted, res.Failed)
	return json.NewEncoder(out).Encode(res)
}

// runPasses repeats the pass: three times when traced, once in smoke mode,
// otherwise until the timed phases add up to -seconds. The heap is collected
// and returned to the OS between passes, outside the timers; without that
// peak RSS depends on where the collector happened to be.
func runPasses(o *options, pass passFunc, tr *tracer, out io.Writer) (*passStats, error) {
	ps := &passStats{}
	for p := 0; ; p++ {
		switch {
		case o.quick && p >= 1, o.traced && p >= tracedPasses,
			!o.traced && p >= minPasses && ps.total.wall.Seconds() >= o.seconds:
			return ps, nil
		}
		t0 := time.Now()
		runtime.GC()
		debug.FreeOSMemory()
		sc := scope{tr: tr, pass: p, conn: -1, parent: -1}
		id := sc.open("pass")
		ta, err := pass(p, sc.under(id))
		sc.close(id)
		wall := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", p, err)
		}
		if ta.work <= 0 || ta.wall <= 0 {
			return nil, fmt.Errorf("pass %d did no timed work", p)
		}
		throughput := float64(ta.work) / ta.wall.Seconds()
		ps.throughput = append(ps.throughput, throughput)
		ps.setup = append(ps.setup, (wall - ta.wall).Seconds())
		ps.total.add(ta)
		fmt.Fprintf(out, "pass %d: work=%d timed_s=%.4f setup_s=%.4f throughput_per_s=%.6g failed=%d\n",
			p, ta.work, ta.wall.Seconds(), (wall - ta.wall).Seconds(), throughput, ta.failed)
	}
}

// peakRSSMB is the process's resident-set high-water mark, VmHWM in
// /proc/self/status; 0 where the kernel does not report one.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// hostDescriptor names the machine a number was recorded on; numbers from
// different host classes are not comparable.
func hostDescriptor() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("cores=%d gomaxprocs=%d kernel=%s cpu=%q go=%s %s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), kernel, cpu, runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
