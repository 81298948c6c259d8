package trace

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
)

func TestTraceSourceYieldsAllJobs(t *testing.T) {
	tr := smallTrace(t)
	src := NewTraceSource(tr)
	got, err := Materialize(src)
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if !reflect.DeepEqual(got.Jobs, tr.Jobs) {
		t.Errorf("jobs mismatch:\n got %+v\nwant %+v", got.Jobs, tr.Jobs)
	}
	if _, err := src.Next(); err != io.EOF {
		t.Errorf("Next after drain = %v, want io.EOF", err)
	}
	src.Close()
	if _, err := src.Next(); err == nil || err == io.EOF {
		t.Errorf("Next after Close = %v, want close error", err)
	}
}

func TestCloneJobDetachesSlices(t *testing.T) {
	j := Job{ID: 1, Files: []FileID{1, 2, 3}, Outputs: []FileID{4}}
	c := CloneJob(&j)
	j.Files[0] = 99
	j.Outputs[0] = 99
	if c.Files[0] != 1 || c.Outputs[0] != 4 {
		t.Errorf("clone shares backing arrays: %v %v", c.Files, c.Outputs)
	}
	empty := Job{ID: 2}
	if c := CloneJob(&empty); c.Files != nil || c.Outputs != nil {
		t.Errorf("clone of empty job has non-nil slices: %+v", c)
	}
}

func TestScannerStreamsTextTrace(t *testing.T) {
	tr := smallTrace(t)
	var buf bytes.Buffer
	if err := writeText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	s, err := NewScanner(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewScanner: %v", err)
	}
	if !reflect.DeepEqual(s.Files(), tr.Files) ||
		!reflect.DeepEqual(s.Users(), tr.Users) ||
		!reflect.DeepEqual(s.Sites(), tr.Sites) {
		t.Error("scanner catalog mismatch")
	}
	for i := 0; ; i++ {
		j, err := s.Next()
		if err == io.EOF {
			if i != len(tr.Jobs) {
				t.Fatalf("scanner yielded %d jobs, want %d", i, len(tr.Jobs))
			}
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		want := tr.Jobs[i]
		if j.ID != want.ID || j.User != want.User || *j.Exec != *want.Exec || !reflect.DeepEqual(j.Files, want.Files) {
			t.Fatalf("job %d = %+v, want %+v", i, j, want)
		}
	}
}

// TestScannerAllocsBounded: the text Scanner's per-job buffers are reused,
// so draining jobs allocates O(catalog + distinct names and Execs), not
// O(jobs).
func TestScannerAllocsBounded(t *testing.T) {
	const nJobs = 6000
	tr := buildManyJobs(t, nJobs)
	var buf bytes.Buffer
	if err := writeText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	allocs := testing.AllocsPerRun(3, func() {
		s, err := NewScanner(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		for {
			_, err := s.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > nJobs/20 {
		t.Errorf("scanning %d jobs allocated %.0f times (want O(catalog), not O(jobs))", nJobs, allocs)
	}
}

// TestReadErrorsCarryLineAndKind pins the parse-error message shape:
// "trace: line N: <kind>: ...".
func TestReadErrorsCarryLineAndKind(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  string
	}{
		{
			"job bad user",
			formatHeader + "\nS 0 s .gov 1\nU 0 u 0\nF 0 f 1 raw\nJ 0 x 0 n raw analysis a v 0 1 0\n",
			`trace: line 5: job: bad user ID "x"`,
		},
		{
			"file bad size",
			formatHeader + "\nF 0 f x raw\n",
			`trace: line 2: file: bad size "x"`,
		},
		{
			"site bad node count",
			formatHeader + "\n\n# comment\nS 0 s .gov many\n",
			`trace: line 4: site: bad node count "many"`,
		},
		{
			"user short record",
			formatHeader + "\nS 0 s .gov 1\nU 0\n",
			`trace: line 3: user: record needs 3 fields, got 1`,
		},
		{
			"job dangling file",
			formatHeader + "\nS 0 s .gov 1\nU 0 u 0\nJ 0 0 0 n raw analysis a v 0 1 1 7\n",
			`trace: line 4: job: file ID 7 out of range`,
		},
		{
			"unknown kind",
			formatHeader + "\nX 1 2 3\n",
			`trace: line 2: unknown record kind "X"`,
		},
		{
			"catalog after job",
			formatHeader + "\nS 0 s .gov 1\nU 0 u 0\nJ 0 0 0 n raw analysis a v 0 1 0\nF 0 f 1 raw\n",
			`trace: line 5: catalog record "F" after first job`,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(c.input))
			if err == nil {
				t.Fatal("bad input accepted")
			}
			if err.Error() != c.want {
				t.Errorf("error = %q\n  want  %q", err, c.want)
			}
		})
	}
}

func TestNewSourceAutoDetects(t *testing.T) {
	tr := smallTrace(t)
	var text, bin, gzText bytes.Buffer
	if err := writeText(&text, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteBin(&bin, tr); err != nil {
		t.Fatal(err)
	}
	if err := writeGzip(&gzText, tr); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"text", text.Bytes()},
		{"bin", bin.Bytes()},
		{"gzip text", gzText.Bytes()},
	} {
		t.Run(c.name, func(t *testing.T) {
			src, err := NewSource(bytes.NewReader(c.data))
			if err != nil {
				t.Fatalf("NewSource: %v", err)
			}
			got, err := Materialize(src)
			if err != nil {
				t.Fatalf("Materialize: %v", err)
			}
			if err := src.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
			if !reflect.DeepEqual(got, tr) {
				t.Error("materialized trace differs from original")
			}
		})
	}
	if _, err := NewSource(strings.NewReader("not a trace\n")); err == nil {
		t.Error("NewSource accepted garbage")
	}
}
