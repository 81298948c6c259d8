package trace_test

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"filecule/internal/trace"
)

// outputsTrace has jobs that read shared datasets and write files of their
// own, over several chunks.
func outputsTrace(nJobs int) *trace.Trace {
	b := trace.NewBuilder()
	s := b.Site("fnal", ".gov", 8)
	users := []trace.UserID{b.User("a", s), b.User("b", s)}
	inputs := make([]trace.FileID, 200)
	for i := range inputs {
		inputs[i] = b.File(fmt.Sprintf("in%03d", i), int64(1000+i), trace.TierRaw)
	}
	t0 := time.Date(2003, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < nJobs; i++ {
		var outs []trace.FileID
		for k := 0; k < i%3; k++ {
			outs = append(outs, b.File(fmt.Sprintf("out%d.%d", i, k), int64(i+k), trace.TierReconstructed))
		}
		from := (i * 13) % 150
		b.Job(trace.Job{
			User: users[i%2], Site: s, Tier: trace.TierRaw, Family: trace.FamilyReconstruction,
			Exec:  &trace.Exec{Node: fmt.Sprintf("n%d", i%5), App: "reco", Version: "p14"},
			Start: t0.Add(time.Duration(i) * time.Minute), End: t0.Add(time.Duration(i)*time.Minute + time.Hour),
			Files: inputs[from : from+1+i%40], Outputs: outs,
		})
	}
	return b.Build()
}

// TestWriteBinRefusesWhatValidateRefuses: WriteBin runs no Validate pass, so
// for each condition Validate checks there is a trace that breaks it, and
// WriteBin must refuse every one, naming the first bad record though a later
// chunk holds another bad job.
func TestWriteBinRefusesWhatValidateRefuses(t *testing.T) {
	const bad, later = 3000, 4500
	cases := []struct {
		name  string
		spoil func(tr *trace.Trace)
		names string // what the error must name
	}{
		{"file ID not dense", func(tr *trace.Trace) { tr.Files[7].ID = 8 }, "file at index 7 has ID 8"},
		{"negative file size", func(tr *trace.Trace) { tr.Files[7].Size = -1 }, "file 7 has negative size"},
		{"site ID not dense", func(tr *trace.Trace) { tr.Sites[1].ID = 0 }, "site at index 1 has ID 0"},
		{"user ID not dense", func(tr *trace.Trace) { tr.Users[1].ID = 5 }, "user at index 1 has ID 5"},
		{"user at an unknown site", func(tr *trace.Trace) { tr.Users[1].Site = 9 }, "user 1 references unknown site 9"},
		{"job ID not dense", func(tr *trace.Trace) { tr.Jobs[bad].ID = bad + 1 }, fmt.Sprintf("job ID %d out of order (want %d)", bad+1, bad)},
		{"job of an unknown user", func(tr *trace.Trace) { tr.Jobs[bad].User = 99 }, fmt.Sprintf("job %d references unknown user 99", bad)},
		{"job at an unknown site", func(tr *trace.Trace) { tr.Jobs[bad].Site = 99 }, fmt.Sprintf("job %d references unknown site 99", bad)},
		{"job that ends before it starts, within its second", func(tr *trace.Trace) {
			j := &tr.Jobs[bad]
			j.Start = j.Start.Add(time.Second / 2)
			j.End = j.Start.Add(-time.Nanosecond)
		}, fmt.Sprintf("job %d ends before it starts", bad)},
		{"job that reads an unknown file", func(tr *trace.Trace) { tr.Jobs[bad].Files = append(slices.Clone(tr.Jobs[bad].Files), 1_000_000) },
			fmt.Sprintf("job %d references unknown file 1000000", bad)},
		{"job that writes an unknown file", func(tr *trace.Trace) { tr.Jobs[bad].Outputs = []trace.FileID{1_000_000} },
			fmt.Sprintf("job %d produces unknown file 1000000", bad)},
	}
	for _, c := range cases {
		tr := outputsTrace(5 * 1024)
		tr.Sites = append(tr.Sites, trace.Site{ID: 1, Name: "bnl", Domain: ".gov"})
		tr.Jobs[later].User = 77
		c.spoil(tr)
		if tr.Validate() == nil {
			t.Fatalf("%s: Validate accepts the trace", c.name)
		}
		if err := trace.WriteBin(io.Discard, tr); err == nil || !strings.Contains(err.Error(), c.names) {
			t.Errorf("%s: WriteBin: %v, want an error naming %q", c.name, err, c.names)
		}
	}
}
