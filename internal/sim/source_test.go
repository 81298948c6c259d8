package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"filecule/internal/core"
	"filecule/internal/trace"
)

// TestSweepSourceMatchesSweep is the streaming sweep's contract: replaying
// from a Source must be cell-for-cell identical to the materialized Sweep
// over Identify + Requests of the same trace.
func TestSweepSourceMatchesSweep(t *testing.T) {
	tr, p, reqs := workload(t)
	cfg := SweepConfig{
		Scale:        diffScale,
		CapacitiesTB: []float64{1, 10, 100},
	}

	want, err := Sweep(tr, p, reqs, cfg)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	got, err := SweepSource(trace.NewTraceSource(tr), cfg)
	if err != nil {
		t.Fatalf("SweepSource: %v", err)
	}
	if got.Jobs != len(tr.Jobs) || got.Files != len(tr.Files) ||
		got.Requests != len(reqs) || got.Filecules != p.NumFilecules() {
		t.Errorf("header (jobs %d files %d reqs %d fc %d) != (%d %d %d %d)",
			got.Jobs, got.Files, got.Requests, got.Filecules,
			len(tr.Jobs), len(tr.Files), len(reqs), p.NumFilecules())
	}
	diffCells(t, "memory", got, want)

	// The binary codec stores Unix-second timestamps, so the streamed bin
	// sweep is compared against a materialized sweep of the bin-decoded
	// trace (identical job stream, second-truncated times).
	var buf bytes.Buffer
	if err := trace.WriteBin(&buf, tr); err != nil {
		t.Fatalf("WriteBin: %v", err)
	}
	btr, err := trace.ReadBin(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadBin: %v", err)
	}
	bwant, err := Sweep(btr, core.Identify(btr), btr.Requests(), cfg)
	if err != nil {
		t.Fatalf("Sweep(bin): %v", err)
	}
	src, err := trace.NewBinSource(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewBinSource: %v", err)
	}
	bgot, err := SweepSource(src, cfg)
	if err != nil {
		t.Fatalf("SweepSource(bin): %v", err)
	}
	diffCells(t, "binary", bgot, bwant)
}

func diffCells(t *testing.T, name string, got, want *SweepResult) {
	t.Helper()
	if len(got.Cells) != len(want.Cells) {
		t.Fatalf("%s: cell count %d != %d", name, len(got.Cells), len(want.Cells))
	}
	for i := range got.Cells {
		if got.Cells[i] != want.Cells[i] {
			t.Errorf("%s cell %s/%s/%gTB: streamed %+v != materialized %+v",
				name, got.Cells[i].Policy, got.Cells[i].Granularity,
				got.Cells[i].CacheTB, got.Cells[i], want.Cells[i])
		}
	}
}

// TestSweepSourceValidates pins that config validation fires before the
// stream is consumed.
func TestSweepSourceValidates(t *testing.T) {
	tr, _, _ := workload(t)
	if _, err := SweepSource(trace.NewTraceSource(tr), SweepConfig{Policies: []string{"nope"}}); err == nil {
		t.Fatal("SweepSource accepted unknown policy")
	}
	if _, err := SweepSource(trace.NewTraceSource(tr), SweepConfig{Scale: -1}); err == nil {
		t.Fatal("SweepSource accepted negative scale")
	}
}

// TestSweepSourceStreamOrder holds the request stream SweepSource merges to
// the reference ordering — requests concatenated in stream order, then
// stable-sorted by time — on traces built to make order matter: jobs that
// arrive out of start order (a generated stream's order), starts and whole
// runs that tie, zero-duration and empty jobs, and caches of a few files, so
// a request that moves across a tie changes what LRU holds.
func TestSweepSourceStreamOrder(t *testing.T) {
	cfg := SweepConfig{Scale: 1, Policies: []string{"lru"}, Granularities: []string{"file", "filecule"},
		CapacitiesTB: []float64{3e-6, 8e-6}} // 3 and 8 one-megabyte files
	t0 := time.Date(2003, 1, 1, 0, 0, 0, 0, time.UTC)
	r := rand.New(rand.NewSource(18))
	for round := 0; round < 60; round++ {
		tr := &trace.Trace{Users: []trace.User{{}}, Sites: []trace.Site{{}}, Files: make([]trace.File, 24)}
		for i := range tr.Files {
			tr.Files[i] = trace.File{ID: trace.FileID(i), Size: 1e6}
		}
		for i := 0; i < 5+r.Intn(40); i++ {
			start := t0.Add(time.Duration(r.Intn(6)) * time.Second)
			j := trace.Job{ID: trace.JobID(i), Start: start, End: start.Add(time.Duration(r.Intn(4)) * time.Second)}
			for k := r.Intn(6); k > 0; k-- {
				j.Files = append(j.Files, trace.FileID(r.Intn(len(tr.Files))))
			}
			tr.Jobs = append(tr.Jobs, j)
		}
		var reqs []trace.Request
		for i := range tr.Jobs {
			reqs = trace.AppendRequests(reqs, &tr.Jobs[i])
		}
		sort.SliceStable(reqs, func(a, b int) bool { return reqs[a].Time.Before(reqs[b].Time) })
		want, err := Sweep(tr, core.Identify(tr), reqs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SweepSource(trace.NewTraceSource(tr), cfg)
		if err != nil {
			t.Fatal(err)
		}
		diffCells(t, fmt.Sprintf("round %d", round), got, want)
	}
}
