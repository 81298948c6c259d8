package workload_test

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"filecule/internal/synth"
	"filecule/internal/trace"
	workload "filecule/internal/workload"
)

// TestProducersShareExecs: every producer of jobs hands out one *Exec per
// distinct (node, app, version) triple per decoding goroutine — ReadFile's
// mapped fill at one worker and at up to four, the streamed bin decoder, the
// text scanner, the DZero generator and the kv-csv and XRootD adapters — so a
// trace holds a pointer per job and one descriptor per triple, not three
// strings per job.
func TestProducersShareExecs(t *testing.T) {
	dzero, err := synth.Generate(synth.DZero(3, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := encodeBin(t, dzero)
	binPath := filepath.Join(dir, "trace.bin")
	if err := os.WriteFile(binPath, bin, 0o644); err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	tw, err := trace.NewTextWriter(&text, dzero.Files, dzero.Users, dzero.Sites)
	if err == nil {
		_, err = trace.CopySource(tw, trace.NewTraceSource(dzero))
	}
	if err != nil {
		t.Fatal(err)
	}
	csv := filepath.Join(dir, "kv.csv")
	f, err := os.Create(csv)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.GenKVCSV(f, 3, 200, 4000); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	readFileAt := func(procs int) func() (*trace.Trace, error) {
		return func() (*trace.Trace, error) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			return trace.ReadFile(binPath)
		}
	}

	cases := []struct {
		name    string
		workers int // decoding goroutines, each with its own table
		load    func() (*trace.Trace, error)
		triples int // 0: more than one
	}{
		{"ReadFile, GOMAXPROCS=1", 1, readFileAt(1), 0},
		{"ReadFile, GOMAXPROCS=4", 4, readFileAt(4), 0},
		{"ReadBin", 1, func() (*trace.Trace, error) { return trace.ReadBin(bytes.NewReader(bin)) }, 0},
		{"text Read", 1, func() (*trace.Trace, error) { return trace.Read(bytes.NewReader(text.Bytes())) }, 0},
		{"synth.Generate", 1, func() (*trace.Trace, error) { return dzero, nil }, 0},
		{"kv-csv", 1, func() (*trace.Trace, error) { return workload.Load("kv-csv,path=" + csv) }, 1},
		{"xrootd", 1, func() (*trace.Trace, error) { return workload.Load("xrootd,seed=1,scale=0.01") }, 1},
	}
	for _, c := range cases {
		tr, err := c.load()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		execs := make(map[trace.Exec]map[*trace.Exec]bool)
		for i := range tr.Jobs {
			e := tr.Jobs[i].Exec
			if e == nil {
				t.Fatalf("%s: job %d has no Exec", c.name, i)
			}
			if execs[*e] == nil {
				execs[*e] = make(map[*trace.Exec]bool)
			}
			execs[*e][e] = true
		}
		for triple, ptrs := range execs {
			if len(ptrs) > c.workers {
				t.Errorf("%s: %+v is %d values, want at most %d", c.name, triple, len(ptrs), c.workers)
			}
		}
		if c.triples == 0 && len(execs) < 2 || c.triples > 0 && len(execs) != c.triples {
			t.Errorf("%s: %d distinct triples over %d jobs", c.name, len(execs), len(tr.Jobs))
		}
	}
}
