package durable

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"filecule/internal/trace"
)

// preallocWorks probes whether fallocate actually reserves space on the
// test filesystem (it is a no-op off Linux and fails on some filesystems).
func preallocWorks(t *testing.T) bool {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "probe"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := preallocate(f, 4096); err != nil {
		return false
	}
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size() == 4096
}

// observeN folds n distinct small jobs into d as one group-commit batch.
func observeN(t *testing.T, d *Engine, start, n int) {
	t.Helper()
	batch := make([][]trace.FileID, 0, n)
	for i := 0; i < n; i++ {
		base := trace.FileID((start + i) * 7)
		batch = append(batch, []trace.FileID{base, base + 1, base + 2, base + 100})
	}
	if err := d.ObserveBatch(batch); err != nil {
		t.Fatalf("observe batch at %d: %v", start, err)
	}
}

// replayClean asserts the segment at path replays end to end with no torn
// or preallocated tail left behind.
func replayClean(t *testing.T, path string, epoch uint64) {
	t.Helper()
	if seg, err := walReplay(path, epoch, anyBase, func([]trace.FileID) {}); err != nil || seg.validTo != seg.Bytes {
		t.Fatalf("%s does not replay cleanly: valid to %d of %d bytes, err %v", path, seg.validTo, seg.Bytes, err)
	}
}

// TestSegmentPreallocation drives the WAL across a roll, a checkpoint
// rotation, and a clean close with preallocation active, checking at each
// retirement that the segment was truncated back to its replayable length
// — and that the active segment really is preallocated to SegmentBytes.
func TestSegmentPreallocation(t *testing.T) {
	if !preallocWorks(t) {
		t.Skip("fallocate not effective on this platform/filesystem")
	}
	dir := t.TempDir()
	const segBytes = 1 << 15
	d, err := Open(Options{Dir: dir, SegmentBytes: segBytes, SyncCommit: true})
	if err != nil {
		t.Fatal(err)
	}

	wal0 := filepath.Join(dir, "wal-0")
	if fi, err := os.Stat(wal0); err != nil || fi.Size() != segBytes {
		t.Fatalf("active segment not preallocated: size %v, err %v", fi, err)
	}

	// A preallocated (stat-size == SegmentBytes) segment must NOT roll
	// until its logical contents cross the threshold: fileBytes tracks the
	// append offset, not the inflated stat size.
	observeN(t, d, 0, 1)
	if _, err := os.Stat(wal0 + ".1"); err == nil {
		t.Fatal("segment rolled after one observe: fileBytes is reading the preallocated stat size")
	}

	// Push past segBytes so wal-0 rolls to wal-0.1.
	n := 1
	for {
		observeN(t, d, n, 64)
		n += 64
		if _, err := os.Stat(wal0 + ".1"); err == nil {
			break
		}
		if n > 1<<16 {
			t.Fatal("segment never rolled")
		}
	}
	// The retired segment must be truncated to its logical length — which
	// may exceed segBytes by up to the final batch — and replay cleanly end
	// to end (an untruncated preallocated tail of zeros would fail replay).
	replayClean(t, wal0, 0)

	// Checkpoint rotates to wal-1; the retiring epoch's newest segment must
	// come out truncated and clean too.
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	replayClean(t, wal0+".1", 0)
	wal1 := filepath.Join(dir, "wal-1")
	if fi, err := os.Stat(wal1); err != nil || fi.Size() != segBytes {
		t.Fatalf("post-rotate segment not preallocated: size %v, err %v", fi, err)
	}

	// Clean close truncates the newest segment as well.
	observeN(t, d, n, 8)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(wal1); err != nil || fi.Size() >= segBytes {
		t.Fatalf("closed segment not truncated: size %v, err %v", fi, err)
	}
	replayClean(t, wal1, 1)

	// And recovery over the whole directory reproduces every observe.
	d2, err := Open(Options{Dir: dir, SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.Core().Observed(); got != int64(n)+8 {
		t.Fatalf("recovered %d observes, want %d", got, n+8)
	}
}

// TestInspectPreallocatedTail checks that `filecule-state dump` tells a
// preallocated-but-untruncated tail (all zeros — what a crash leaves on a
// fallocate-backed segment) apart from a genuinely torn write, and that
// recovery truncates it losslessly. The tail is appended by hand so the
// test runs on filesystems without fallocate.
func TestInspectPreallocatedTail(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir, SyncCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	observeN(t, d, 0, 5)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	wal0 := filepath.Join(dir, "wal-0")
	fi, err := os.Stat(wal0)
	if err != nil {
		t.Fatal(err)
	}
	logical := fi.Size()
	f, err := os.OpenFile(wal0, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 8192)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	segNote := func(t *testing.T) string {
		t.Helper()
		r, err := Inspect(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Problems) != 0 {
			t.Fatalf("newest-tail damage reported as corruption: %v", r.Problems)
		}
		for _, s := range r.Segments {
			if s.Path == wal0 {
				return s.Note
			}
		}
		t.Fatalf("wal-0 missing from report")
		return ""
	}
	if note := segNote(t); !strings.Contains(note, "preallocated tail") || !strings.Contains(note, "8192 zero bytes") {
		t.Fatalf("note %q does not identify the preallocated tail", note)
	}

	// A tail with any non-zero byte is a torn write, not preallocation.
	g, err := os.OpenFile(wal0, os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteAt([]byte{0xff}, logical+100); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if note := segNote(t); !strings.Contains(note, "torn tail") {
		t.Fatalf("note %q should call a non-zero tail torn", note)
	}

	// Recovery truncates the tail and loses nothing either way.
	d2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.Core().Observed(); got != 5 {
		t.Fatalf("recovered %d observes, want 5", got)
	}
	if tb := d2.Recovery().TruncatedBytes; tb != 8192 {
		t.Fatalf("recovery truncated %d bytes, want 8192", tb)
	}
	if fi, err := os.Stat(wal0); err != nil || fi.Size() != logical {
		t.Fatalf("post-recovery size %v, want %d (err %v)", fi, logical, err)
	}
}

// copyDir snapshots a state directory: what a process killed at this instant
// would leave behind (every write the WAL acknowledges is already synced).
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestCheckpointCrashWindows kills the process (by snapshotting the state
// directory) at the two instants inside a checkpoint's WAL rotation — after
// the old segment is sealed, and after the new epoch's segment exists but
// before the checkpoint file is written — and requires both snapshots to
// recover every acknowledged job. Creating the new epoch before trimming the
// old segment's fallocated tail, as Checkpoint once did, leaves a zero tail
// below the newest segment in the first snapshot and recovery refuses it
// ("damaged below the newest segment ... chunk payload length 0").
func TestCheckpointCrashWindows(t *testing.T) {
	if !preallocWorks(t) {
		t.Skip("fallocate not effective on this platform/filesystem")
	}
	dir := t.TempDir()
	const segBytes, jobs = 1 << 15, 40
	d := mustOpen(t, Options{Dir: dir, SegmentBytes: segBytes, SyncCommit: true})
	observeN(t, d, 0, jobs)

	// Checkpoint's rotation, with the file creation spied on.
	if err := d.wal.SyncNow(); err != nil {
		t.Fatal(err)
	}
	var sealed, created string
	err := d.wal.Rotate(d.epoch+1, jobs, func() (*os.File, string, int64, error) {
		if fi, err := os.Stat(filepath.Join(dir, "wal-0")); err != nil || fi.Size() >= segBytes {
			t.Errorf("the old segment still has its preallocated tail when the new epoch is created: %v, %v", fi, err)
		}
		sealed = copyDir(t, dir)
		f, path, n, err := createWalFile(dir, d.epoch+1, jobs, segBytes)
		created = copyDir(t, dir)
		return f, path, n, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for name, snap := range map[string]string{"sealed": sealed, "created": created, "closed": dir} {
		r, err := Open(Options{Dir: snap, SegmentBytes: segBytes})
		if err != nil {
			t.Fatalf("killed after %s: recovery failed: %v", name, err)
		}
		if rec := r.Recovery(); rec.Observed != jobs || rec.ReplayedJobs != jobs {
			t.Errorf("killed after %s: recovered %d jobs (%d replayed), want %d", name, rec.Observed, rec.ReplayedJobs, jobs)
		}
		if err := r.Close(); err != nil {
			t.Error(err)
		}
	}
}
