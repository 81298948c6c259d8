package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// fuzzSeedTrace is a tiny but fully featured trace: every record kind, a
// job with duplicate input files, a job with outputs, and an empty input
// set.
func fuzzSeedTrace() *Trace {
	t0 := time.Unix(1000, 0).UTC()
	return &Trace{
		Sites: []Site{
			{ID: 0, Name: "fnal", Domain: ".gov", Nodes: 12},
			{ID: 1, Name: "kit", Domain: ".de", Nodes: 5},
		},
		Users: []User{
			{ID: 0, Name: "alice", Site: 0},
			{ID: 1, Name: "bob", Site: 1},
		},
		Files: []File{
			{ID: 0, Name: "raw-0", Size: 1 << 30, Tier: TierRaw},
			{ID: 1, Name: "reco-0", Size: 600 << 20, Tier: TierReconstructed},
			{ID: 2, Name: "tmb-0", Size: 80 << 20, Tier: TierThumbnail},
		},
		Jobs: []Job{
			{
				ID: 0, User: 0, Site: 0, Tier: TierRaw, Family: FamilyReconstruction,
				Exec:  &Exec{Node: "n0", App: "reco", Version: "p17"},
				Start: t0, End: t0.Add(time.Hour),
				Files: []FileID{0, 0, 1}, Outputs: []FileID{2},
			},
			{
				ID: 1, User: 1, Site: 1, Tier: TierThumbnail, Family: FamilyAnalysis,
				Exec:  &Exec{Node: "n1", App: "ana", Version: "v1"},
				Start: t0.Add(time.Hour), End: t0.Add(2 * time.Hour),
				Files: nil,
			},
		},
	}
}

// FuzzTraceCodec checks that the text codec never panics on arbitrary
// input, and that anything it accepts round-trips stably:
// decode→encode→decode yields the same trace and the same bytes.
func FuzzTraceCodec(f *testing.F) {
	var seed bytes.Buffer
	if err := writeText(&seed, fuzzSeedTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("#filecule-trace v1\n"))
	f.Add([]byte("#filecule-trace v1\nF 0 a 10 raw\nJ 0 0 0 n raw analysis a 1 0 0 1 0\n"))
	f.Add([]byte(""))
	f.Add([]byte("#filecule-trace v1\nX junk\n"))
	f.Add([]byte("#filecule-trace v1\nJ 0 0 0 n raw analysis a 1 0 0 9999999999 0\n"))
	// Truncations and corruptions of the valid seed.
	f.Add(seed.Bytes()[:len(seed.Bytes())/2])
	f.Add(bytes.Replace(seed.Bytes(), []byte(" 0 "), []byte(" -1 "), 3))

	f.Fuzz(func(t *testing.T, data []byte) {
		t1, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		// Whatever was accepted must validate and re-encode.
		if err := t1.Validate(); err != nil {
			t.Fatalf("accepted trace fails Validate: %v", err)
		}
		var enc1 bytes.Buffer
		if err := writeText(&enc1, t1); err != nil {
			// Write rejects names that the reader cannot produce
			// (whitespace is a field separator), so an accepted
			// trace must always encode.
			t.Fatalf("accepted trace fails Write: %v", err)
		}
		t2, err := Read(bytes.NewReader(enc1.Bytes()))
		if err != nil {
			t.Fatalf("re-decode of encoded trace failed: %v", err)
		}
		var enc2 bytes.Buffer
		if err := writeText(&enc2, t2); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Fatalf("codec not stable:\nfirst:  %q\nsecond: %q",
				truncateForLog(enc1.String()), truncateForLog(enc2.String()))
		}
	})
}

func truncateForLog(s string) string {
	if len(s) > 400 {
		return s[:400] + "..."
	}
	return strings.TrimSpace(s)
}
