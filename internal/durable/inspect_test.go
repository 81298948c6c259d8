package durable

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildInspectDir produces a two-epoch state dir of strict observes:
// checkpoint-0 and wal-0, then checkpoint-1 at the halfway mark and wal-1.
func buildInspectDir(t *testing.T, jobs int) (string, Options) {
	t.Helper()
	dir := t.TempDir()
	opts := Options{Dir: dir, SyncCommit: true}
	d := mustOpen(t, opts)
	work := testJobs(21, jobs)
	observeAll(t, d, work[:jobs/2])
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	observeAll(t, d, work[jobs/2:])
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, opts
}

func TestInspectCleanDir(t *testing.T) {
	dir, _ := buildInspectDir(t, 300)
	// A leftover temp file must survive inspection untouched.
	tmp := filepath.Join(dir, "checkpoint-9.tmp")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	rep, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) != 0 {
		t.Fatalf("clean dir reported problems: %v", rep.Problems)
	}
	if len(rep.Checkpoints) == 0 || len(rep.Segments) < 2 {
		t.Fatalf("report too thin: %d checkpoints, %d segments", len(rep.Checkpoints), len(rep.Segments))
	}
	if len(rep.TempFiles) != 1 || rep.TempFiles[0] != "checkpoint-9.tmp" {
		t.Fatalf("temp files = %v", rep.TempFiles)
	}
	if _, err := os.Stat(tmp); err != nil {
		t.Fatalf("Inspect removed a temp file: %v", err)
	}

	// WAL job counts must chain: each base is the previous end, and the
	// newest checkpoint plus its epoch's jobs cover every observe.
	newest := rep.Checkpoints[len(rep.Checkpoints)-1]
	var epochJobs int64
	for _, s := range rep.Segments {
		if s.Epoch == newest.Epoch {
			if s.Base != newest.Observed+epochJobs {
				t.Fatalf("%s base %d, want %d", filepath.Base(s.Path), s.Base, newest.Observed+epochJobs)
			}
			epochJobs += s.Jobs
		}
	}
	if newest.Observed+epochJobs != 300 {
		t.Fatalf("checkpoint %d + %d WAL jobs != 300 observes", newest.Observed, epochJobs)
	}
	// Per-group counts must sum to the checkpoint totals.
	files, requests := 0, int64(0)
	for _, g := range newest.Groups {
		files += g.Files
		requests += int64(g.Requests)
	}
	if files != newest.Files || requests != newest.Requests {
		t.Fatalf("group sums %d/%d differ from totals %d/%d", files, requests, newest.Files, newest.Requests)
	}
}

func TestInspectTornTailIsNoteNotProblem(t *testing.T) {
	dir, opts := buildInspectDir(t, 300)
	newest := walPath(dir, 1)
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	torn := func(t *testing.T, tail []byte) {
		t.Helper()
		if err := os.WriteFile(newest, tail, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := Inspect(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Problems) != 0 {
			t.Fatalf("torn newest tail reported as corruption: %v", rep.Problems)
		}
		if note := rep.Segments[len(rep.Segments)-1].Note; !strings.Contains(note, "torn tail") {
			t.Fatalf("torn tail note missing: %q", note)
		}
		// And the file itself must be untouched — dump never truncates.
		if fi, err := os.Stat(newest); err != nil || fi.Size() != int64(len(tail)) {
			t.Fatalf("Inspect modified the torn WAL: %v", err)
		}
	}
	// A cut into the last frame.
	torn(t, raw[:len(raw)-3])
	// Zeros past the last frame, what a killed writer leaves where the file
	// had grown but its data never landed: also a torn tail, which recovery
	// truncates without losing a job.
	torn(t, append(raw[:len(raw):len(raw)], make([]byte, 8192)...))
	d := mustOpen(t, opts)
	rec := d.Recovery()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.Observed != 300 || rec.TruncatedBytes != 8192 {
		t.Fatalf("recovery over a zero tail = %+v, want all 300 observes and 8192 bytes truncated", rec)
	}
	if fi, err := os.Stat(newest); err != nil || fi.Size() != int64(len(raw)) {
		t.Fatalf("post-recovery size %v, want %d (err %v)", fi, len(raw), err)
	}
}

func TestInspectReportsCorruption(t *testing.T) {
	dir, _ := buildInspectDir(t, 300)
	rep, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a checkpoint: the problem must carry a byte offset.
	ck := rep.Checkpoints[len(rep.Checkpoints)-1]
	raw, err := os.ReadFile(ck.Path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(ck.Path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) == 0 {
		t.Fatal("corrupt checkpoint not reported")
	}
	joined := strings.Join(rep.Problems, "\n")
	if !strings.Contains(joined, "byte offset") {
		t.Fatalf("corruption findings carry no byte offset: %q", joined)
	}

	// Damage below the newest WAL is a problem too, not a note.
	first := rep.Segments[0]
	wraw, err := os.ReadFile(first.Path)
	if err != nil {
		t.Fatal(err)
	}
	wraw[len(wraw)-10] ^= 0xff
	if err := os.WriteFile(first.Path, wraw, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range rep.Problems {
		if strings.Contains(p, filepath.Base(first.Path)) || strings.Contains(p, first.Path) {
			found = true
		}
	}
	if !found {
		t.Fatalf("corrupt non-newest WAL not in problems: %v", rep.Problems)
	}
}
