package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// benchmarkSpec is the part of BENCHMARK.json the harness reads: the bounds
// for the repeatability check, the names and units for the smoke test.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []metricSpec                 `json:"end_to_end"`
	PerLayer  []metricSpec                 `json:"per_layer"`
}

type metricSpec struct {
	Name, Unit, Better string
	Bound              float64
}

// repeat is the repeatability check a reviewer runs before trusting a
// comparison: K untraced runs per workload, each a fresh process on its own
// seed, judged the way the benchmark's acceptance is - the quartile spread of
// each end-to-end metric as a share of its median, and how much worse the
// second half's median is than the first half's, both beside the metric's
// bound from BENCHMARK.json in the working directory. Throughput, which has
// no bound, gets the same row for information.
func repeat(o *options, out io.Writer) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-repeat reads the bounds from BENCHMARK.json; run it from the repository root: %w", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	unbounded := metricSpec{Name: "throughput_per_s", Unit: "1/s", Better: "higher"}
	names := workloadNames()
	if o.workload != "" {
		names = []string{o.workload}
	}
	fmt.Fprintf(out, "repeat: %d runs per workload, seeds %d..%d, %gs timed each\nhost: %s\n",
		o.repeat, o.seed, o.seed+int64(o.repeat)-1, o.seconds, hostDescriptor())
	header := fmt.Sprintf("%-15s %-17s %14s %8s %10s %14s %14s %9s %6s\n",
		"workload", "metric", "median", "iqr/med", "max/min-1", "median[:K/2]", "median[K/2:]", "worse_by", "bound")
	flagged := 0
	for _, name := range names {
		values := map[string][]float64{}
		for k := 0; k < o.repeat; k++ {
			res, throughput, err := runChild(exe, name, o.seed+int64(k), o.seconds)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, o.seed+int64(k), err)
			}
			fmt.Fprintf(out, "run: %s seed=%d", name, o.seed+int64(k))
			for _, m := range spec.EndToEnd {
				values[m.Name] = append(values[m.Name], res.Metrics[m.Name].Value)
				fmt.Fprintf(out, " %s=%.6g", m.Name, res.Metrics[m.Name].Value)
			}
			values[unbounded.Name] = append(values[unbounded.Name], throughput)
			fmt.Fprintf(out, " %s=%.6g\n", unbounded.Name, throughput)
		}
		fmt.Fprint(out, header)
		for _, m := range append(spec.EndToEnd, unbounded) {
			vs := values[m.Name]
			half := len(vs) / 2
			first, second := median(vs[:max(half, 1)]), median(vs[half:])
			worse := second/first - 1
			if m.Better == "higher" {
				worse = first/second - 1
			}
			spread := iqrFrac(vs)
			bound, mark := "none", ""
			if m.Bound > 0 {
				bound = strconv.FormatFloat(m.Bound, 'f', 2, 64)
				// setup_s is held to its bound between sets only, like the acceptance check.
				if worse > m.Bound || (spread > m.Bound && m.Name != "setup_s") {
					mark = "  OUTSIDE BOUND"
					flagged++
				}
			}
			fmt.Fprintf(out, "%-15s %-17s %14.6g %8.4f %10.4f %14.6g %14.6g %+9.4f %6s%s\n",
				name, m.Name, median(vs), spread, slices.Max(vs)/slices.Min(vs)-1, first, second, worse, bound, mark)
		}
	}
	if flagged > 0 {
		return fmt.Errorf("%d metric(s) outside their bound", flagged)
	}
	return nil
}

// runChild runs one untraced run in a process of its own - peak RSS is a
// per-process figure - and decodes the result line and the throughput the run
// printed beside it.
func runChild(exe, workload string, seed int64, seconds float64) (*result, float64, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, 0, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, 0, fmt.Errorf("result line: %w", err)
	}
	for _, line := range lines {
		if rest, ok := bytes.CutPrefix(line, []byte(unboundedPrefix)); ok {
			var throughput float64
			_, err := fmt.Sscan(string(rest), &throughput)
			return &res, throughput, err
		}
	}
	return nil, 0, fmt.Errorf("run printed no throughput line")
}
