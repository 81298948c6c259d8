package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"filecule/internal/trace"
)

// goldenJobs is the fixed 40-job run behind testdata/golden: the adversarial
// small-ID workload (duplicates, empty jobs) plus two jobs whose IDs need
// multi-byte varints and multi-file runs.
func goldenJobs() [][]trace.FileID {
	jobs := testJobs(31, 38)
	wide := [][]trace.FileID{
		{100000, 100001, 100002, 5000000, 17},
		{2000000000, 2000000001, 100001, 100002},
	}
	jobs = append(jobs[:10:10], append(wide[:1], jobs[10:]...)...)
	return append(jobs, wide[1])
}

// TestGoldenStateBytes pins the checkpoint and WAL byte formats.
// testdata/golden/checkpoint-1 and wal-1 were written by this run at the
// commit before the formats' shared opener, frame appender and group-record
// codec were factored out: the run must still write exactly those bytes, and
// those bytes must still recover to the run's partition.
func TestGoldenStateBytes(t *testing.T) {
	jobs := goldenJobs()
	dir := t.TempDir()
	d := mustOpen(t, Options{Dir: dir, SyncCommit: true})
	observeAll(t, d, jobs[:20]) // strict and sequential: one 'O' chunk per job
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	observeAll(t, d, jobs[20:])
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	recovered := t.TempDir()
	for _, name := range []string{"checkpoint-1", "wal-1"} {
		want, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: wrote %d bytes that differ from the %d golden bytes", name, len(got), len(want))
		}
		if err := os.WriteFile(filepath.Join(recovered, name), want, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	r := mustOpen(t, Options{Dir: recovered})
	defer r.Close()
	if rec := r.Recovery(); rec.CheckpointEpoch != 1 || rec.CheckpointObserved != 20 || rec.ReplayedJobs != 20 {
		t.Fatalf("recovery from the golden files = %+v, want checkpoint-1 at 20 jobs plus 20 replayed", rec)
	}
	if got := r.Core().Snapshot(); !reference(jobs).Equal(got) {
		t.Fatal("partition recovered from the golden files differs from the reference")
	}
}
