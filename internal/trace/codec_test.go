package trace

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
)

// writeText serializes t in the v1 text format.
func writeText(w io.Writer, t *Trace) error {
	tw, err := NewTextWriter(w, t.Files, t.Users, t.Sites)
	if err != nil {
		return err
	}
	_, err = CopySource(tw, NewTraceSource(t))
	return err
}

func TestCodecRoundTrip(t *testing.T) {
	tr := smallTrace(t)
	var buf bytes.Buffer
	if err := writeText(&buf, tr); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, tr)
	}
}

func TestCodecRejectsWhitespaceNames(t *testing.T) {
	b := NewBuilder()
	s := b.Site("bad site", ".gov", 1)
	u := b.User("u", s)
	f := b.File("f", 1, TierRaw)
	b.SimpleJob(u, s, t0, []FileID{f})
	tr := b.Build()
	if err := writeText(&bytes.Buffer{}, tr); err == nil {
		t.Error("Write accepted site name with space")
	}
}

func TestReadRejectsBadInput(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"empty", ""},
		{"bad header", "#not-a-trace\n"},
		{"unknown record", formatHeader + "\nX 1 2 3\n"},
		{"out of order file IDs", formatHeader + "\nF 1 f 10 raw\n"},
		{"bad tier", formatHeader + "\nF 0 f 10 platinum\n"},
		{"short job", formatHeader + "\nJ 0 0 0\n"},
		{"job file count mismatch", formatHeader + "\nS 0 s .gov 1\nU 0 u 0\nF 0 f 1 raw\nJ 0 0 0 n raw analysis a v 0 1 2 0\n"},
		{"dangling job file", formatHeader + "\nS 0 s .gov 1\nU 0 u 0\nJ 0 0 0 n raw analysis a v 0 1 1 7\n"},
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c.input)); err == nil {
			t.Errorf("%s: Read accepted bad input", c.name)
		}
	}
}

func TestReadSkipsCommentsAndBlankLines(t *testing.T) {
	input := formatHeader + "\n\n# a comment\nS 0 s .gov 2\nU 0 u 0\nF 0 f 5 thumbnail\nJ 0 0 0 n thumbnail analysis a v 100 200 1 0\n"
	tr, err := Read(strings.NewReader(input))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(tr.Jobs) != 1 || len(tr.Files) != 1 {
		t.Fatalf("parsed trace = %+v", tr)
	}
	j := tr.Jobs[0]
	if !j.Start.Equal(time.Unix(100, 0).UTC()) || !j.End.Equal(time.Unix(200, 0).UTC()) {
		t.Errorf("job times = %v..%v", j.Start, j.End)
	}
}

func TestCodecLargeJob(t *testing.T) {
	b := NewBuilder()
	s := b.Site("s", ".gov", 1)
	u := b.User("u", s)
	files := make([]FileID, 5000)
	for i := range files {
		files[i] = b.File(fileNameN(i), int64(i+1), TierReconstructed)
	}
	b.SimpleJob(u, s, t0, files)
	tr := b.Build()

	var buf bytes.Buffer
	if err := writeText(&buf, tr); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(got.Jobs[0].Files) != 5000 {
		t.Fatalf("job has %d files after round trip", len(got.Jobs[0].Files))
	}
}

func fileNameN(i int) string {
	const digits = "0123456789"
	if i == 0 {
		return "f0"
	}
	var b []byte
	for n := i; n > 0; n /= 10 {
		b = append([]byte{digits[n%10]}, b...)
	}
	return "f" + string(b)
}

func TestCodecJobOutputs(t *testing.T) {
	b := NewBuilder()
	s := b.Site("s", ".gov", 1)
	u := b.User("u", s)
	raw := b.File("raw", 1<<30, TierRaw)
	reco := b.File("reco", 1<<29, TierReconstructed)
	b.Job(Job{
		User: u, Site: s, Tier: TierRaw, Family: FamilyReconstruction,
		Exec:  &Exec{Node: "n", App: "d0reco", Version: "v1"},
		Start: t0, End: t0.Add(time.Hour),
		Files: []FileID{raw}, Outputs: []FileID{reco},
	})
	tr := b.Build()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := writeText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Errorf("output round trip mismatch:\n got %+v\nwant %+v", got.Jobs[0], tr.Jobs[0])
	}
	if len(got.Jobs[0].Outputs) != 1 || got.Jobs[0].Outputs[0] != reco {
		t.Errorf("outputs = %v", got.Jobs[0].Outputs)
	}
}

func TestCodecRejectsBadOutputBlock(t *testing.T) {
	base := formatHeader + "\nS 0 s .gov 1\nU 0 u 0\nF 0 f 1 raw\n"
	cases := []string{
		base + "J 0 0 0 n raw analysis a v 0 1 1 0 2 0\n", // declares 2 outputs, has 1
		base + "J 0 0 0 n raw analysis a v 0 1 1 0 1 9\n", // dangling output file
		base + "J 0 0 0 n raw analysis a v 0 1 1 0 -1\n",  // negative count
		base + "J 0 0 0 n raw analysis a v 0 1 1 0 1 x\n", // non-numeric
	}
	for i, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: bad output block accepted", i)
		}
	}
}

func TestValidateRejectsDanglingOutputs(t *testing.T) {
	tr := smallTrace(t)
	tr.Jobs[0].Outputs = []FileID{99}
	if err := tr.Validate(); err == nil {
		t.Error("dangling output accepted")
	}
}
