package synth

import (
	"io"
	"math"
	"strings"
	"testing"

	"filecule/internal/trace"
)

func xrootdTestConfig(seed int64) XRootDConfig {
	return XRootDDefaults(seed, 0.01)
}

func TestXRootDGenerateValid(t *testing.T) {
	tr, err := GenerateXRootD(xrootdTestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("xrootd trace invalid: %v", err)
	}
	if len(tr.Jobs) == 0 || len(tr.Files) == 0 {
		t.Fatalf("empty trace: %d jobs %d files", len(tr.Jobs), len(tr.Files))
	}
	for i := 1; i < len(tr.Jobs); i++ {
		if tr.Jobs[i].Start.Before(tr.Jobs[i-1].Start) {
			t.Fatalf("jobs not start-sorted at %d", i)
		}
	}
}

func TestXRootDDeterminism(t *testing.T) {
	a, err := GenerateXRootD(xrootdTestConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateXRootD(xrootdTestConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Jobs) != len(b.Jobs) || len(a.Files) != len(b.Files) {
		t.Fatalf("nondeterministic shape: %d/%d jobs, %d/%d files",
			len(a.Jobs), len(b.Jobs), len(a.Files), len(b.Files))
	}
	for i := range a.Jobs {
		ja, jb := &a.Jobs[i], &b.Jobs[i]
		if ja.User != jb.User || !ja.Start.Equal(jb.Start) || len(ja.Files) != len(jb.Files) {
			t.Fatalf("job %d differs across identical runs", i)
		}
		for k := range ja.Files {
			if ja.Files[k] != jb.Files[k] {
				t.Fatalf("job %d file %d differs", i, k)
			}
		}
	}
	c, err := GenerateXRootD(xrootdTestConfig(43))
	if err != nil {
		t.Fatal(err)
	}
	same := len(c.Jobs) == len(a.Jobs)
	if same {
		for i := range a.Jobs {
			if len(a.Jobs[i].Files) != len(c.Jobs[i].Files) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced an identical-looking trace")
	}
}

// TestXRootDSourceMatchesGenerate: the streaming source emits exactly the
// jobs Generate materializes (source order is already start-sorted).
func TestXRootDSourceMatchesGenerate(t *testing.T) {
	tr, err := GenerateXRootD(xrootdTestConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewXRootDSource(xrootdTestConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if len(src.Files()) != len(tr.Files) {
		t.Fatalf("catalog mismatch: %d vs %d files", len(src.Files()), len(tr.Files))
	}
	for i := 0; ; i++ {
		j, err := src.Next()
		if err == io.EOF {
			if i != len(tr.Jobs) {
				t.Fatalf("stream ended after %d jobs, trace has %d", i, len(tr.Jobs))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		want := &tr.Jobs[i]
		if j.ID != want.ID || j.User != want.User || !j.Start.Equal(want.Start) {
			t.Fatalf("job %d: stream %+v vs generate %+v", i, j, want)
		}
		for k := range j.Files {
			if j.Files[k] != want.Files[k] {
				t.Fatalf("job %d file %d mismatch", i, k)
			}
		}
	}
}

// TestXRootDWorkloadShape sanity-checks the Bellavita-style statistics the
// model exists to reproduce: a substantial one-touch population, small
// input sets, and reuse concentrated on young files.
func TestXRootDWorkloadShape(t *testing.T) {
	tr, err := GenerateXRootD(XRootDDefaults(5, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	touches := make([]int, len(tr.Files))
	requests := 0
	for i := range tr.Jobs {
		requests += len(tr.Jobs[i].Files)
		for _, f := range tr.Jobs[i].Files {
			touches[f]++
		}
	}
	oneTouch, accessed := 0, 0
	for _, n := range touches {
		if n == 1 {
			oneTouch++
		}
		if n > 0 {
			accessed++
		}
	}
	if accessed == 0 {
		t.Fatal("no file accessed")
	}
	frac := float64(oneTouch) / float64(accessed)
	if frac < 0.25 || frac > 0.9 {
		t.Errorf("one-touch fraction %v outside the scientific-cache regime [0.25, 0.9]", frac)
	}
	mean := float64(requests) / float64(len(tr.Jobs))
	if mean < 1.5 || mean > 12 {
		t.Errorf("mean files/job %v outside the XCache regime (few files per job)", mean)
	}
}

// TestXRootDConfigValidation rejects nonsense configurations, naming the
// option key of the refused value.
func TestXRootDConfigValidation(t *testing.T) {
	for _, c := range []struct {
		key    string
		mutate func(*XRootDConfig)
	}{
		{"scale", func(c *XRootDConfig) { c.Scale = 0 }},
		{"scale", func(c *XRootDConfig) { c.Scale = -2 }},
		{"days", func(c *XRootDConfig) { c.Days = 0 }},
		{"one-touch", func(c *XRootDConfig) { c.OneTouchFrac = 1.5 }},
		{"one-touch", func(c *XRootDConfig) { c.OneTouchFrac = math.NaN() }},
		{"group-prob", func(c *XRootDConfig) { c.GroupProb = 2 }},
		{"decay-days", func(c *XRootDConfig) { c.DecayDays = -1 }},
		{"decay-days", func(c *XRootDConfig) { c.DecayDays = 0 }},
		{"group-size", func(c *XRootDConfig) { c.GroupSize = 0.5 }},
		{"mean-files", func(c *XRootDConfig) { c.MeanFilesPerJob = 0 }},
		{"Files", func(c *XRootDConfig) { c.Files = 0 }},
		{"MaxFileSizeMB", func(c *XRootDConfig) { c.MaxFileSizeMB = 0 }},
	} {
		cfg := XRootDDefaults(1, 0.1)
		c.mutate(&cfg)
		_, err := NewXRootDSource(cfg)
		if err == nil || !strings.Contains(err.Error(), " "+c.key+"=") {
			t.Errorf("%+v: err = %v, want one naming %s", cfg, err, c.key)
		}
	}
	if _, err := NewXRootDSource(XRootDConfig{Seed: 1, Scale: 0.1}); err == nil {
		t.Error("a config with only Seed and Scale set was accepted: zero is not a default")
	}
}

// drainCount counts the jobs remaining in a source.
func drainCount(src trace.Source) (int64, error) {
	var n int64
	for {
		if _, err := src.Next(); err != nil {
			if err == io.EOF {
				return n, nil
			}
			return n, err
		}
		n++
	}
}

// TestXRootDDrain uses the stream-count helper against the materialized
// count to pin stream length.
func TestXRootDDrain(t *testing.T) {
	src, err := NewXRootDSource(xrootdTestConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	n, err := drainCount(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Next(); err == nil || err == io.EOF {
		t.Fatal("Next after Close should fail")
	}
	tr, err := GenerateXRootD(xrootdTestConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(tr.Jobs)) {
		t.Fatalf("stream drained %d jobs, generate made %d", n, len(tr.Jobs))
	}
}
