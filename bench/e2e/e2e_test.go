package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// quickRun runs one smoke-mode run in process and returns what it printed
// and the decoded result line.
func quickRun(t *testing.T, o options) (string, result) {
	t.Helper()
	o.quick = true
	var buf bytes.Buffer
	if err := run(&o, &buf); err != nil {
		t.Fatalf("%s (traced=%v, seed %d): %v\n%s", o.workload, o.traced, o.seed, err, buf.String())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, lines[len(lines)-1])
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", o.workload, res.Correct, res.Attempted, res.Failed)
	}
	return buf.String(), res
}

// checkMetrics holds a run to the metric list BENCHMARK.json promises: every
// name in the result with its unit, nothing else, each printed by name once.
func checkMetrics(t *testing.T, out string, res result, want []metricSpec) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("result has %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, w := range want {
		m, ok := res.Metrics[w.Name]
		if !ok {
			t.Errorf("metric %s missing from the result", w.Name)
			continue
		}
		if m.Unit != w.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		}
		printed := 0
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == w.Name && f[2] == w.Unit {
				printed++
			}
		}
		if printed != 1 {
			t.Errorf("metric %s printed %d times with its unit, want once", w.Name, printed)
		}
	}
}

func TestWorkloadTableMatchesBenchmarkJSON(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name || s.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, s.Workloads[i].Name, s.Workloads[i].Why, w.name, w.why)
		}
	}
}

// TestQuick is the smoke run that keeps the harness from rotting: every
// workload end to end, untraced on one seed and traced on another, with no
// timing assertions.
func TestQuick(t *testing.T) {
	s := loadSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			out, res := quickRun(t, options{workload: w.name, seed: 1})
			checkMetrics(t, out, res, s.EndToEnd)

			spans := filepath.Join(t.TempDir(), "spans.jsonl")
			out, res = quickRun(t, options{workload: w.name, seed: 2, traced: true, traceOut: spans})
			checkMetrics(t, out, res, s.PerLayer)
			f, err := os.Open(spans)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			n := 0
			for sc := bufio.NewScanner(f); sc.Scan(); n++ {
				var sp span
				if err := json.Unmarshal(sc.Bytes(), &sp); err != nil || sp.ID != n || sp.Name == "" || sp.End < sp.Start || sp.Parent >= n {
					t.Fatalf("span line %d is malformed (%v): %s", n, err, sc.Text())
				}
			}
			if got := res.Metrics["harness.spans"].Value; n == 0 || float64(n) != got {
				t.Errorf("spans file has %d lines, harness.spans says %v", n, got)
			}
		})
	}
}

// TestDamagedOracleFails: a run whose outputs disagree with the oracle must
// fail and must not print a result.
func TestDamagedOracleFails(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			err := run(&options{workload: w.name, seed: 1, quick: true, corrupt: true}, &buf)
			if err == nil {
				t.Errorf("run passed against a damaged oracle:\n%s", buf.String())
			}
			t.Logf("failed as it should: %v", err)
			if strings.Contains(buf.String(), `"correct"`) {
				t.Errorf("run printed a result despite failing: %v\n%s", err, buf.String())
			}
		})
	}
}
