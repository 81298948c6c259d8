package durable

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// segmentFiles lists the on-disk segment names of one epoch, in chain order.
func segmentFiles(t *testing.T, dir string, epoch uint64) []string {
	t.Helper()
	_, wals, _, err := scanStateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range wals[epoch] {
		names = append(names, walSegPath(dir, epoch, s))
	}
	return names
}

// A tiny segment threshold forces many rolls within one epoch; recovery
// must chain the segments back into the exact uninterrupted state, across
// restarts and checkpoints.
func TestSegmentRollAndRecover(t *testing.T) {
	jobs := testJobs(11, 500)
	want := reference(jobs)
	dir := t.TempDir()
	opts := Options{Dir: dir, SyncCommit: true, SegmentBytes: 1 << 11}

	d := mustOpen(t, opts)
	observeAll(t, d, jobs[:300])
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if segs := segmentFiles(t, dir, 0); len(segs) < 3 {
		t.Fatalf("only %d segment(s) after 300 strict observes at a 2 KiB threshold", len(segs))
	}

	// Restart mid-epoch: recovery replays every segment in order and the
	// writer resumes on the last one.
	d = mustOpen(t, opts)
	if got := d.Core().Observed(); got != 300 {
		t.Fatalf("recovered %d jobs from segmented WAL, want 300", got)
	}
	observeAll(t, d, jobs[300:400])
	if err := d.Checkpoint(); err != nil { // epoch 1: segment chain resets
		t.Fatal(err)
	}
	observeAll(t, d, jobs[400:])
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if segs := segmentFiles(t, dir, 1); len(segs) == 0 || segs[0] != walPath(dir, 1) {
		t.Fatalf("epoch 1 segments %v do not restart at wal-1", segs)
	}

	d = mustOpen(t, opts)
	defer d.Close()
	rec := d.Recovery()
	if rec.Observed != int64(len(jobs)) || rec.CheckpointObserved != 400 {
		t.Fatalf("recovery = %+v, want all %d jobs from the epoch-1 checkpoint", rec, len(jobs))
	}
	if got := d.Core().Snapshot(); !want.Equal(got) {
		t.Fatal("segmented recovery differs from uninterrupted reference")
	}
}

// A torn tail is only legitimate on the newest segment: cutting it at an
// arbitrary byte recovers the longest clean prefix, exactly like the
// single-file torn-tail contract.
func TestSegmentTornTailTruncation(t *testing.T) {
	jobs := testJobs(12, 200)
	dir := t.TempDir()
	opts := Options{Dir: dir, SyncCommit: true, SegmentBytes: 1 << 11}
	d := mustOpen(t, opts)
	observeAll(t, d, jobs)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segmentFiles(t, dir, 0)
	if len(segs) < 2 {
		t.Fatalf("need at least 2 segments, have %d", len(segs))
	}
	last := segs[len(segs)-1]
	whole, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 8; trial++ {
		cut := len(walMagic) + 8 + rng.Intn(len(whole)-len(walMagic)-8)
		if err := os.WriteFile(last, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := Open(opts)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		n := d.Core().Observed()
		if n > int64(len(jobs)) {
			t.Fatalf("cut=%d: recovered %d jobs out of %d", cut, n, len(jobs))
		}
		if got, want := d.Core().Snapshot(), reference(jobs[:n]); !want.Equal(got) {
			t.Fatalf("cut=%d: recovered partition differs from reference over first %d jobs", cut, n)
		}
		d.Close()
	}
}

// Damage below the newest segment is corruption, not a crash artifact:
// recovery must refuse rather than silently skip records.
func TestSegmentCorruptionBelowNewestIsFatal(t *testing.T) {
	jobs := testJobs(14, 400)
	dir := t.TempDir()
	opts := Options{Dir: dir, SyncCommit: true, SegmentBytes: 1 << 11}
	d := mustOpen(t, opts)
	observeAll(t, d, jobs)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segmentFiles(t, dir, 0)
	if len(segs) < 3 {
		t.Fatalf("need at least 3 segments, have %d", len(segs))
	}
	first := segs[0]
	orig, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), orig...)
	raw[len(raw)-10] ^= 0xff
	if err := os.WriteFile(first, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(opts); err == nil {
		t.Fatal("corrupt non-last segment accepted")
	}

	// A missing middle segment likewise breaks the chain for good.
	if err := os.WriteFile(first, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(segs[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(opts); err == nil {
		t.Fatal("gapped segment chain accepted")
	}
}

// Pruning removes every segment of an expired epoch, not just the first.
func TestSegmentPrune(t *testing.T) {
	jobs := testJobs(15, 300)
	dir := t.TempDir()
	opts := Options{Dir: dir, SyncCommit: true, SegmentBytes: 1 << 11}
	d := mustOpen(t, opts)
	observeAll(t, d, jobs)
	if len(segmentFiles(t, dir, 0)) < 2 {
		t.Fatal("epoch 0 did not segment")
	}
	for i := 0; i < 2; i++ { // epochs 1 and 2: prune drops all of epoch 0
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := filepath.Glob(filepath.Join(dir, "wal-0*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("epoch-0 segments survived pruning: %v", ents)
	}
	d = mustOpen(t, opts)
	defer d.Close()
	if d.Core().Observed() != int64(len(jobs)) {
		t.Fatalf("recovered %d of %d jobs after prune", d.Core().Observed(), len(jobs))
	}
}
