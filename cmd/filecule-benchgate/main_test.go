package main

import (
	"strings"
	"testing"

	"filecule/internal/cache"
	"filecule/internal/sim"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: filecule
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSweepEngine-4     	       2	1143987559 ns/op	  18857003 cellreq/s	68932928 B/op	    1697 allocs/op
BenchmarkSweepSequential-4 	       1	10794147786 ns/op	   1998502 cellreq/s	817193200 B/op	16246037 allocs/op
BenchmarkServerAdvise      	   12345	     97531 ns/op	     10250 req/s
PASS
ok  	filecule	12.120s
`

func parseSample(t *testing.T) []Benchmark {
	t.Helper()
	benches, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatalf("parseBench: %v", err)
	}
	return benches
}

func TestParseBench(t *testing.T) {
	benches := parseSample(t)
	if len(benches) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(benches))
	}
	eng := benches[0]
	if eng.Name != "SweepEngine" {
		t.Errorf("name %q: GOMAXPROCS suffix should be stripped", eng.Name)
	}
	if eng.Iterations != 2 || eng.Metrics["ns/op"] != 1143987559 || eng.Metrics["B/op"] != 68932928 {
		t.Errorf("SweepEngine parsed wrong: %+v", eng)
	}
	if benches[2].Name != "ServerAdvise" || benches[2].Metrics["req/s"] != 10250 {
		t.Errorf("unsuffixed custom-metric benchmark parsed wrong: %+v", benches[2])
	}
}

func report(t *testing.T) *Report {
	return &Report{Schema: BenchSchema, Benchmarks: parseSample(t)}
}

func scaleBench(r *Report, name, unit string, factor float64) {
	for i := range r.Benchmarks {
		if r.Benchmarks[i].Name == name {
			r.Benchmarks[i].Metrics[unit] *= factor
		}
	}
}

func sweepPairOnly(floor float64) []speedupPair {
	return []speedupPair{{fast: "SweepEngine", slow: "SweepSequential", floor: floor}}
}

func TestGateWithinTolerance(t *testing.T) {
	base, rep := report(t), report(t)
	scaleBench(rep, "ServerAdvise", "ns/op", 1.10) // +10% < 15% band
	if v := gate(base, rep, 0.15, sweepPairOnly(3), nil, nil); len(v) != 0 {
		t.Errorf("unexpected violations: %v", v)
	}
}

func TestGateNsOpRegression(t *testing.T) {
	base, rep := report(t), report(t)
	scaleBench(rep, "ServerAdvise", "ns/op", 1.30)
	v := gate(base, rep, 0.15, sweepPairOnly(3), nil, nil)
	if len(v) != 1 || !strings.Contains(v[0], "ServerAdvise") || !strings.Contains(v[0], "ns/op") {
		t.Errorf("want one ServerAdvise ns/op violation, got %v", v)
	}
}

func TestGateBytesRegressionAndMissing(t *testing.T) {
	base, rep := report(t), report(t)
	scaleBench(rep, "SweepEngine", "B/op", 2)
	rep.Benchmarks = rep.Benchmarks[:2] // drop ServerAdvise
	v := gate(base, rep, 0.15, nil, nil, nil)
	if len(v) != 2 {
		t.Fatalf("want B/op + missing-benchmark violations, got %v", v)
	}
}

func TestGateSpeedupFloor(t *testing.T) {
	base, rep := report(t), report(t)
	// Slow the engine until the in-report ratio drops under the floor.
	scaleBench(rep, "SweepEngine", "ns/op", 4) // ratio ~9.4/4 = 2.4 < 3
	// Keep ns/op within band by relaxing tolerance; only the floor fires.
	v := gate(base, rep, 10, sweepPairOnly(3), nil, nil)
	if len(v) != 1 || !strings.Contains(v[0], "faster than SweepSequential") {
		t.Errorf("want speedup-floor violation, got %v", v)
	}
}

func TestGateDecodeSpeedupFloor(t *testing.T) {
	mk := func(text, bin float64) *Report {
		return &Report{Schema: BenchSchema, Benchmarks: []Benchmark{
			{Name: "DecodeText", Iterations: 1, Metrics: map[string]float64{"ns/op": text}},
			{Name: "DecodeBin", Iterations: 1, Metrics: map[string]float64{"ns/op": bin}},
		}}
	}
	pairs := []speedupPair{{fast: "DecodeBin", slow: "DecodeText", floor: 2}}
	if v := gate(mk(1400, 600), mk(1400, 600), 0.15, pairs, nil, nil); len(v) != 0 {
		t.Errorf("2.3x decode speedup must pass a 2x floor, got %v", v)
	}
	v := gate(mk(1400, 600), mk(1400, 800), 10, pairs, nil, nil)
	if len(v) != 1 || !strings.Contains(v[0], "faster than DecodeText") {
		t.Errorf("want decode speedup-floor violation, got %v", v)
	}
}

func TestGateMmapDecodeSpeedupFloor(t *testing.T) {
	mk := func(bin, mmap float64) *Report {
		return &Report{Schema: BenchSchema, Benchmarks: []Benchmark{
			{Name: "DecodeBin", Iterations: 1, Metrics: map[string]float64{"ns/op": bin}},
			{Name: "DecodeMmap", Iterations: 1, Metrics: map[string]float64{"ns/op": mmap}},
		}}
	}
	pairs := []speedupPair{{fast: "DecodeMmap", slow: "DecodeBin", floor: 0.9}}
	// A single-core tie (ratio 1.0) must pass the sub-1 floor.
	if v := gate(mk(1000, 1000), mk(1000, 1000), 0.15, pairs, nil, nil); len(v) != 0 {
		t.Errorf("mapped decode tying streaming must pass a 0.9 floor, got %v", v)
	}
	v := gate(mk(1000, 1000), mk(1000, 1300), 10, pairs, nil, nil)
	if len(v) != 1 || !strings.Contains(v[0], "faster than DecodeBin") {
		t.Errorf("want mmap speedup-floor violation, got %v", v)
	}
}

func TestGateBinIterateAllocsCeiling(t *testing.T) {
	mk := func(allocs float64) *Report {
		return &Report{Schema: BenchSchema, Benchmarks: []Benchmark{
			{Name: "BinIterate", Iterations: 1, Metrics: map[string]float64{"ns/op": 700, "allocs/op": allocs}},
		}}
	}
	bounds := []metricBound{{bench: "BinIterate", unit: "allocs/op", ceiling: 1}}
	if v := gate(mk(0), mk(0), 0.15, nil, nil, bounds); len(v) != 0 {
		t.Errorf("allocation-free bin iteration must pass, got %v", v)
	}
	v := gate(mk(0), mk(3), 10, nil, nil, bounds)
	if len(v) != 1 || !strings.Contains(v[0], "over ceiling") {
		t.Errorf("want allocs/op ceiling violation, got %v", v)
	}
}

func TestGateWalOverheadCeiling(t *testing.T) {
	mk := func(bare, wrapped float64) *Report {
		return &Report{Schema: BenchSchema, Benchmarks: []Benchmark{
			{Name: "ObserveEngine", Iterations: 1, Metrics: map[string]float64{"ns/op": bare}},
			{Name: "ObserveWAL", Iterations: 1, Metrics: map[string]float64{"ns/op": wrapped}},
		}}
	}
	ceilings := []overheadPair{{wrapped: "ObserveWAL", bare: "ObserveEngine", ceiling: 8}}
	if v := gate(mk(220, 1200), mk(220, 1200), 0.15, nil, ceilings, nil); len(v) != 0 {
		t.Errorf("5.5x WAL overhead must pass an 8x ceiling, got %v", v)
	}
	v := gate(mk(220, 1200), mk(220, 2000), 10, nil, ceilings, nil)
	if len(v) != 1 || !strings.Contains(v[0], "slower than ObserveEngine") {
		t.Errorf("want wal-overhead-ceiling violation, got %v", v)
	}
	// A report missing either side of the pair is gated only by the
	// baseline-presence checks, not the ratio.
	half := &Report{Schema: BenchSchema, Benchmarks: []Benchmark{
		{Name: "ObserveEngine", Iterations: 1, Metrics: map[string]float64{"ns/op": 220}},
	}}
	if v := gate(half, half, 0.15, nil, ceilings, nil); len(v) != 0 {
		t.Errorf("absent pair must not fire the ceiling, got %v", v)
	}
}

func wireReport(rps, p99ns, wireNs, jsonNs float64) *Report {
	return &Report{Schema: BenchSchema, Benchmarks: []Benchmark{
		{Name: "ServeTCPWire", Iterations: 1, Metrics: map[string]float64{
			"ns/op": wireNs, "req/s": rps, "p99-ns": p99ns}},
		{Name: "ServeTCPJSON", Iterations: 1, Metrics: map[string]float64{"ns/op": jsonNs}},
	}}
}

func TestGateWireSpeedupFloor(t *testing.T) {
	pairs := []speedupPair{{fast: "ServeTCPWire", slow: "ServeTCPJSON", floor: 3}}
	ok := wireReport(300000, 400000, 3000, 50000) // 16.7x
	if v := gate(ok, ok, 10, pairs, nil, nil); len(v) != 0 {
		t.Errorf("16x wire speedup must pass a 3x floor, got %v", v)
	}
	slow := wireReport(300000, 400000, 20000, 50000) // 2.5x
	v := gate(ok, slow, 10, pairs, nil, nil)
	if len(v) != 1 || !strings.Contains(v[0], "faster than ServeTCPJSON") {
		t.Errorf("want wire speedup-floor violation, got %v", v)
	}
}

func TestGateTCPNsOpExempt(t *testing.T) {
	base := wireReport(300000, 400000, 3000, 50000)
	base.Benchmarks[0].Metrics["B/op"] = 96
	// A 2x ns/op swing on the TCP round-trip benches is runner noise and
	// must not fire the cross-run band (they are policed by the within-run
	// pair and the absolute bounds instead)...
	rep := wireReport(300000, 400000, 6000, 100000)
	rep.Benchmarks[0].Metrics["B/op"] = 96
	if v := gate(base, rep, 0.15, nil, nil, nil); len(v) != 0 {
		t.Errorf("TCP ns/op jitter must be exempt, got %v", v)
	}
	// ...but allocation growth is deterministic and stays banded.
	rep.Benchmarks[0].Metrics["B/op"] = 200
	v := gate(base, rep, 0.15, nil, nil, nil)
	if len(v) != 1 || !strings.Contains(v[0], "B/op") {
		t.Errorf("want ServeTCPWire B/op violation, got %v", v)
	}
}

// TestGateColdPathAllocs: the trace-preparation benchmarks are held on B/op
// and allocs/op and have their ns/op recorded only; allocs/op of any other
// benchmark stays unbanded.
func TestGateColdPathAllocs(t *testing.T) {
	mk := func(ns, bytes, allocs float64) *Report {
		m := func() map[string]float64 { return map[string]float64{"ns/op": ns, "B/op": bytes, "allocs/op": allocs} }
		return &Report{Benchmarks: []Benchmark{{Name: "SortJobsByStart", Metrics: m()}, {Name: "ServerAdvise", Metrics: m()}}}
	}
	base := mk(40e6, 2e6, 2)
	if v := gate(base, mk(400e6, 2e6, 2), 0.15, nil, nil, nil); len(v) != 1 || !strings.Contains(v[0], "ServerAdvise: ns/op") {
		t.Errorf("a slower host must fire for ServerAdvise only, got %v", v)
	}
	v := gate(base, mk(40e6, 2e6, 100002), 0.15, nil, nil, nil)
	if len(v) != 1 || !strings.Contains(v[0], "SortJobsByStart: allocs/op") {
		t.Errorf("want one SortJobsByStart allocs/op violation, got %v", v)
	}
	v = gate(base, mk(40e6, 20e6, 2), 0.15, nil, nil, nil)
	if len(v) != 2 || !strings.Contains(v[0], "B/op") || !strings.Contains(v[1], "B/op") {
		t.Errorf("want B/op violations for both, got %v", v)
	}
}

func TestGateMetricBounds(t *testing.T) {
	bounds := []metricBound{
		{bench: "ServeTCPWire", unit: "req/s", floor: 30000},
		{bench: "ServeTCPWire", unit: "p99-ns", ceiling: 25e6},
	}
	ok := wireReport(300000, 400000, 3000, 50000)
	if v := gate(ok, ok, 10, nil, nil, bounds); len(v) != 0 {
		t.Errorf("healthy wire metrics must pass the bounds, got %v", v)
	}
	v := gate(ok, wireReport(12000, 400000, 3000, 50000), 10, nil, nil, bounds)
	if len(v) != 1 || !strings.Contains(v[0], "req/s") || !strings.Contains(v[0], "under floor") {
		t.Errorf("want req/s floor violation, got %v", v)
	}
	v = gate(ok, wireReport(300000, 90e6, 3000, 50000), 10, nil, nil, bounds)
	if len(v) != 1 || !strings.Contains(v[0], "p99-ns") || !strings.Contains(v[0], "over ceiling") {
		t.Errorf("want p99 ceiling violation, got %v", v)
	}
	// A bounded benchmark (or metric) missing from the report is itself a
	// violation — renaming a benchmark must not silently disable its gate.
	v = gate(ok, ok, 10, nil, nil, []metricBound{{bench: "Gone", unit: "req/s", floor: 1}})
	if len(v) != 1 || !strings.Contains(v[0], "missing from report") {
		t.Errorf("want missing-benchmark violation, got %v", v)
	}
	v = gate(ok, ok, 10, nil, nil, []metricBound{{bench: "ServeTCPJSON", unit: "req/s", floor: 1}})
	if len(v) != 1 || !strings.Contains(v[0], "does not report") {
		t.Errorf("want missing-metric violation, got %v", v)
	}
	// Zero floor and ceiling disable the bound entirely.
	off := []metricBound{{bench: "Gone", unit: "req/s"}}
	if v := gate(ok, ok, 10, nil, nil, off); len(v) != 0 {
		t.Errorf("disabled bound must not fire, got %v", v)
	}
	// The observe ceilings: a settled observe near the recorded 240 ns with
	// no allocation passes; a slow one and an allocating one each fire.
	observeBounds := []metricBound{
		{bench: "ObserveEngine", unit: "ns/op", ceiling: 700},
		{bench: "ObserveEngine", unit: "allocs/op", ceiling: 0.5},
	}
	observe := func(ns, allocs float64) *Report {
		return &Report{Schema: BenchSchema, Benchmarks: []Benchmark{
			{Name: "ObserveEngine", Iterations: 1, Metrics: map[string]float64{"ns/op": ns, "allocs/op": allocs}},
		}}
	}
	if v := gate(observe(240, 0), observe(240, 0), 10, nil, nil, observeBounds); len(v) != 0 {
		t.Errorf("a 240 ns allocation-free observe must pass, got %v", v)
	}
	v = gate(observe(240, 0), observe(900, 0), 10, nil, nil, observeBounds)
	if len(v) != 1 || !strings.Contains(v[0], "ns/op") || !strings.Contains(v[0], "over ceiling") {
		t.Errorf("want observe ns/op ceiling violation, got %v", v)
	}
	v = gate(observe(240, 0), observe(240, 1), 10, nil, nil, observeBounds)
	if len(v) != 1 || !strings.Contains(v[0], "allocs/op") || !strings.Contains(v[0], "over ceiling") {
		t.Errorf("want observe allocs/op ceiling violation, got %v", v)
	}
}

func sweepFixture(misses int64) *sim.SweepResult {
	return &sim.SweepResult{
		Schema: sim.SweepSchema, Scale: 0.02, Requests: 100,
		Cells: []sim.CellResult{{
			Policy: "lru", Granularity: "file", CacheTB: 1,
			Metrics: cache.Metrics{Requests: 100, Misses: misses, Hits: 100 - misses},
		}},
	}
}

func TestGateSweepExactness(t *testing.T) {
	base, rep := report(t), report(t)
	base.Sweep = sweepFixture(40)
	rep.Sweep = sweepFixture(41) // off by a single miss
	v := gate(base, rep, 0.15, nil, nil, nil)
	if len(v) != 1 || !strings.Contains(v[0], "lru/file/1TB") {
		t.Errorf("want exact sweep-cell violation, got %v", v)
	}
	rep.Sweep = sweepFixture(40)
	if v := gate(base, rep, 0.15, nil, nil, nil); len(v) != 0 {
		t.Errorf("identical sweeps must pass, got %v", v)
	}
	rep.Sweep = nil
	if v := gate(base, rep, 0.15, nil, nil, nil); len(v) != 1 {
		t.Errorf("missing sweep section must fail, got %v", v)
	}
}

func TestGateSweepWorkloadChange(t *testing.T) {
	base, rep := report(t), report(t)
	base.Sweep = sweepFixture(40)
	rep.Sweep = sweepFixture(40)
	rep.Sweep.Scale = 0.05
	v := gate(base, rep, 0.15, nil, nil, nil)
	if len(v) != 1 || !strings.Contains(v[0], "workload changed") {
		t.Errorf("want workload-change violation, got %v", v)
	}
}
