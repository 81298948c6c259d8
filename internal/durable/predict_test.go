package durable

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"filecule/internal/core"
	"filecule/internal/trace"
)

// predictJobs is the observe count of the directory the prediction tests
// damage: buildInspectDir's two epochs (checkpoint at the halfway mark), one
// WAL each.
const predictJobs = 300

// predictTrials is TestInspectPredictsOpen's trial count; -tags slow raises it.
var predictTrials = 400

// noteTruncates parses the byte count a WAL's Note says recovery drops.
func noteTruncates(t *testing.T, note string) int64 {
	t.Helper()
	var n, off int64
	if i := strings.Index(note, "recovery truncates "); i >= 0 && strings.HasPrefix(note, "torn tail") {
		if _, err := fmt.Sscanf(note[i:], "recovery truncates %d bytes past offset %d", &n, &off); err != nil {
			t.Fatalf("unparseable note %q: %v", note, err)
		}
	}
	return n
}

// checkInspectPredictsOpen runs Inspect and then Open on dir, which holds the
// predictJobs directory with one fault in it, and requires the dump to have
// said what recovery then did. fallback says the fault is in the older epoch,
// which recovery does not read while the newest checkpoint stands.
func checkInspectPredictsOpen(t *testing.T, dir string, fallback bool, label string) (*Report, Recovery, error) {
	t.Helper()
	rep, err := Inspect(dir)
	if err != nil {
		t.Fatalf("%s: Inspect: %v", label, err)
	}
	d, openErr := Open(Options{Dir: dir, SyncCommit: true})
	var rec Recovery
	if openErr == nil {
		rec = d.Recovery()
		if err := d.Close(); err != nil {
			t.Fatalf("%s: close: %v", label, err)
		}
	}
	switch {
	case fallback:
		if openErr != nil || rec.Observed != predictJobs {
			t.Fatalf("%s: fault in the fallback epoch: Open = %+v, %v; want all %d observes", label, rec, openErr, predictJobs)
		}
	case len(rep.Problems) == 0:
		if openErr != nil {
			t.Fatalf("%s: dump reports no corruption, Open fails: %v", label, openErr)
		}
		newest := rep.Checkpoints[len(rep.Checkpoints)-1]
		want, truncated := newest.Observed, int64(0)
		for _, s := range rep.Segments {
			if s.Epoch >= newest.Epoch {
				want += s.Jobs
			}
			truncated = noteTruncates(t, s.Note) // only the newest WAL carries one
		}
		if rec.Observed != want || rec.TruncatedBytes != truncated {
			t.Fatalf("%s: dump predicts %d observes and %d bytes truncated, Open = %+v", label, want, truncated, rec)
		}
	case openErr == nil:
		if rec.SkippedCheckpoints == 0 || rec.Observed != predictJobs {
			t.Fatalf("%s: dump reports %q, yet Open = %+v", label, rep.Problems, rec)
		}
	}
	return rep, rec, openErr
}

// TestInspectPredictsOpen holds the dump and recovery to one reading of a
// state directory. Each trial copies a clean two-epoch directory, puts one
// fault in one file — cut at a random offset, one bit
// flipped, removed, or zero-extended — and checks checkInspectPredictsOpen's
// contract. 400 trials here, 3 000 under -tags slow.
func TestInspectPredictsOpen(t *testing.T) {
	clean, _ := buildInspectDir(t, predictJobs)
	ents, err := os.ReadDir(clean)
	if err != nil {
		t.Fatal(err)
	}

	const seed = 7
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < predictTrials; trial++ {
		dir := copyDir(t, clean)
		name := ents[rng.Intn(len(ents))].Name()
		path := filepath.Join(dir, name)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var fault string
		switch rng.Intn(4) {
		case 0:
			cut := rng.Intn(len(raw))
			fault = fmt.Sprintf("cut to %d of %d bytes", cut, len(raw))
			raw = raw[:cut]
		case 1:
			bit := rng.Intn(8 * len(raw))
			fault = fmt.Sprintf("bit %d flipped", bit)
			raw[bit/8] ^= 1 << (bit % 8)
		case 2:
			fault = "removed"
			raw = nil
		case 3:
			n := 1 + rng.Intn(4096)
			fault = fmt.Sprintf("extended by %d zero bytes", n)
			raw = append(raw, make([]byte, n)...)
		}
		if raw == nil {
			err = os.Remove(path)
		} else {
			err = os.WriteFile(path, raw, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		fallback := name == "checkpoint-0" || name == "wal-0"
		checkInspectPredictsOpen(t, dir, fallback, fmt.Sprintf("seed %d trial %d: %s %s", seed, trial, name, fault))
		os.RemoveAll(dir)
	}

	// A checkpoint that decodes but does not import — one file in two groups —
	// is corruption to both readers: the dump names it, recovery falls back.
	dir := copyDir(t, clean)
	path := ckptPath(dir, 1)
	st, err := readCheckpoint(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	st.Groups = append(st.Groups, core.StateGroup{SigLo: 1, SigHi: 1 << 63, Requests: 1, Files: st.Groups[0].Files[:1]})
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, _, err := writeCheckpoint(dir, 1, st, nil); err != nil {
		t.Fatal(err)
	}
	rep, rec, err := checkInspectPredictsOpen(t, dir, false, "checkpoint-1 with a file in two groups")
	if err != nil || rec.SkippedCheckpoints != 1 || rec.CheckpointEpoch != 0 {
		t.Fatalf("Open = %+v, %v; want checkpoint-1 skipped", rec, err)
	}
	if joined := strings.Join(rep.Problems, "\n"); !strings.Contains(joined, "checkpoint-1") || !strings.Contains(joined, "more than one group") {
		t.Fatalf("dump does not name the overlapping checkpoint: %q", rep.Problems)
	}
}

// TestNewestSegmentBadBaseFailsClosed: on the newest WAL recovery repairs
// exactly two things, a header that never landed and a torn tail. A header
// that parses but does not continue the chain, or a file that cannot be read,
// is neither — Open must fail, naming the file and leaving it as it was, and
// the dump must report the same file as corrupt.
func TestNewestSegmentBadBaseFailsClosed(t *testing.T) {
	clean, opts := buildInspectDir(t, predictJobs)
	newest, before := "wal-1", "wal-0"
	headerEnd := func(raw []byte) int { // magic, then a frame: length byte, payload, CRC
		return len(walMagic) + 1 + int(raw[len(walMagic)]) + 4
	}

	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, dir string)
	}{
		{"the segment before it cut to its header", func(t *testing.T, dir string) {
			// Without checkpoint-1, as a crash between the rotation to wal-1
			// and the checkpoint's publish leaves it, recovery replays wal-0
			// and then wal-1 on top of checkpoint-0.
			if err := os.Remove(ckptPath(dir, 1)); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, before)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, int64(headerEnd(raw))); err != nil {
				t.Fatal(err)
			}
		}},
		{"header names the next epoch", func(t *testing.T, dir string) {
			path := filepath.Join(dir, newest)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			seg, err := walReplay(path, 1, anyBase, func([]trace.FileID) {})
			if err != nil {
				t.Fatal(err)
			}
			hdr := binary.AppendUvarint([]byte{walKindHeader}, 2)
			hdr = binary.AppendUvarint(hdr, uint64(seg.Base))
			forged := append(trace.AppendChunk([]byte(walMagic), hdr), raw[headerEnd(raw):]...)
			if err := os.WriteFile(path, forged, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"cannot be read", func(t *testing.T, dir string) {
			path := filepath.Join(dir, newest)
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			if err := os.Mkdir(path, 0o755); err != nil { // opens, then every read fails
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := copyDir(t, clean)
			tc.damage(t, dir)
			path := filepath.Join(dir, newest)
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			var was []byte
			if !fi.IsDir() {
				if was, err = os.ReadFile(path); err != nil {
					t.Fatal(err)
				}
			}

			rep, err := Inspect(dir)
			if err != nil {
				t.Fatal(err)
			}
			if joined := strings.Join(rep.Problems, "\n"); !strings.Contains(joined, newest) {
				t.Errorf("dump does not report %s as corrupt: %q", newest, rep.Problems)
			}
			opts.Dir = dir
			if d, err := Open(opts); err == nil {
				d.Close()
				t.Errorf("Open recovered %d of %d observes over a newest WAL that does not chain", d.Recovery().Observed, predictJobs)
			} else if !strings.Contains(err.Error(), newest) {
				t.Errorf("Open's error does not name %s: %v", newest, err)
			}
			if !fi.IsDir() {
				if now, err := os.ReadFile(path); err != nil || string(now) != string(was) {
					t.Errorf("Open changed %s: %d bytes before, %d after (%v)", newest, len(was), len(now), err)
				}
			}
		})
	}
}
