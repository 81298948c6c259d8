package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"filecule/internal/core"
	"filecule/internal/trace"
)

// testJobs builds a deterministic adversarial workload: small random input
// sets with duplicates and empty jobs, over a small file population so the
// partition splits heavily.
func testJobs(seed int64, n int) [][]trace.FileID {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([][]trace.FileID, n)
	for i := range jobs {
		k := rng.Intn(8)
		files := make([]trace.FileID, 0, k+1)
		for j := 0; j < k; j++ {
			files = append(files, trace.FileID(rng.Intn(60)))
			if j > 0 && rng.Intn(4) == 0 {
				files = append(files, files[rng.Intn(len(files))])
			}
		}
		jobs[i] = files
	}
	return jobs
}

// reference folds jobs into a fresh engine and returns its partition.
func reference(jobs [][]trace.FileID) *core.Partition {
	e := core.NewEngine(0)
	for _, f := range jobs {
		e.Observe(f)
	}
	return e.Snapshot()
}

func mustOpen(t *testing.T, opts Options) *Engine {
	t.Helper()
	d, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func observeAll(t *testing.T, d *Engine, jobs [][]trace.FileID) {
	t.Helper()
	for _, f := range jobs {
		if err := d.Observe(f); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFreshOpenCreatesBaseState(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, Options{Dir: dir})
	if !d.Recovery().Fresh {
		t.Error("fresh dir not reported as fresh")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"checkpoint-0", "wal-0"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("fresh open did not create %s: %v", name, err)
		}
	}
}

// The core property: any interleaving of observes, checkpoints and clean
// restarts recovers a partition identical to the uninterrupted reference.
func TestRecoverAcrossRestarts(t *testing.T) {
	jobs := testJobs(1, 400)
	want := reference(jobs)
	dir := t.TempDir()
	opts := Options{Dir: dir, SyncCommit: true}

	d := mustOpen(t, opts)
	observeAll(t, d, jobs[:150])
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d = mustOpen(t, opts)
	if got := d.Core().Observed(); got != 150 {
		t.Fatalf("recovered %d jobs, want 150", got)
	}
	observeAll(t, d, jobs[150:250])
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	observeAll(t, d, jobs[250:])
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d = mustOpen(t, opts)
	defer d.Close()
	rec := d.Recovery()
	if rec.Observed != int64(len(jobs)) {
		t.Fatalf("recovered %d jobs, want %d", rec.Observed, len(jobs))
	}
	if rec.CheckpointObserved != 250 {
		t.Fatalf("recovered from checkpoint at %d jobs, want 250", rec.CheckpointObserved)
	}
	if rec.ReplayedJobs != int64(len(jobs))-250 {
		t.Fatalf("replayed %d jobs, want %d", rec.ReplayedJobs, len(jobs)-250)
	}
	if got := d.Core().Snapshot(); !want.Equal(got) {
		t.Fatal("recovered partition differs from uninterrupted reference")
	}
}

// A torn WAL tail — the file cut at an arbitrary byte — must recover to the
// longest clean prefix of batches, never panic, and report the truncation.
func TestTornTailTruncation(t *testing.T) {
	jobs := testJobs(2, 120)
	dir := t.TempDir()
	opts := Options{Dir: dir, SyncCommit: true}
	d := mustOpen(t, opts)
	// Strict mode + sequential observes: every job is its own synced batch,
	// so batch boundaries are per-job and a cut loses a suffix of jobs.
	observeAll(t, d, jobs)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	walFile := filepath.Join(dir, "wal-0")
	whole, err := os.ReadFile(walFile)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 12; trial++ {
		cut := len(walMagic) + 8 + rng.Intn(len(whole)-len(walMagic)-8)
		if err := os.WriteFile(walFile, whole[:cut], 0o644); err != nil {
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
		// The truncated log must now be clean: a reopen replays it fully.
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		d = mustOpen(t, opts)
		if d.Core().Observed() != n {
			t.Fatalf("cut=%d: second recovery found %d jobs, first %d", cut, d.Core().Observed(), n)
		}
		d.Close()
	}
}

// A corrupt newest checkpoint falls back one epoch losslessly: the previous
// checkpoint plus its complete WAL reproduce everything.
func TestCorruptCheckpointFallsBack(t *testing.T) {
	jobs := testJobs(4, 200)
	dir := t.TempDir()
	opts := Options{Dir: dir, SyncCommit: true}
	d := mustOpen(t, opts)
	observeAll(t, d, jobs[:120])
	if err := d.Checkpoint(); err != nil { // epoch 1
		t.Fatal(err)
	}
	observeAll(t, d, jobs[120:])
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside checkpoint-1's chunk area.
	path := filepath.Join(dir, "checkpoint-1")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var logs []string
	opts.Logf = func(format string, args ...any) {
		logs = append(logs, format)
	}
	d = mustOpen(t, opts)
	defer d.Close()
	rec := d.Recovery()
	if rec.SkippedCheckpoints != 1 || rec.CheckpointEpoch != 0 {
		t.Fatalf("recovery = %+v, want fallback to epoch 0", rec)
	}
	if rec.Observed != int64(len(jobs)) {
		t.Fatalf("fallback recovered %d jobs, want %d (lossless)", rec.Observed, len(jobs))
	}
	if got := d.Core().Snapshot(); !reference(jobs).Equal(got) {
		t.Fatal("fallback partition differs from reference")
	}
	if len(logs) == 0 {
		t.Error("corrupt checkpoint skipped silently")
	}
}

// With every checkpoint corrupt, Open must fail loudly with the bin-codec
// error style: byte offset and chunk kind.
func TestAllCheckpointsCorruptFailsWithOffset(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, Options{Dir: dir, SyncCommit: true})
	observeAll(t, d, testJobs(5, 40))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "checkpoint-0")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(ckptMagic)+6] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(Options{Dir: dir})
	if err == nil {
		t.Fatal("corrupt sole checkpoint accepted")
	}
	if !strings.Contains(err.Error(), "byte offset") {
		t.Fatalf("error %q does not carry a byte offset", err)
	}
}

// Incremental encoding: a checkpoint after few observes reuses most groups'
// encoded bytes; pruning keeps exactly the last two epochs.
func TestCheckpointReuseAndPrune(t *testing.T) {
	jobs := testJobs(6, 300)
	dir := t.TempDir()
	d := mustOpen(t, Options{Dir: dir})
	observeAll(t, d, jobs)
	if err := d.Checkpoint(); err != nil { // epoch 1: all groups fresh
		t.Fatal(err)
	}
	s1 := d.Stats()
	if s1.LastGroups == 0 || s1.LastReused != 0 {
		t.Fatalf("first checkpoint stats %+v", s1)
	}
	// One repeat observe (no splits): every group's bytes must be reusable.
	if err := d.Observe(jobs[len(jobs)-1]); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil { // epoch 2
		t.Fatal(err)
	}
	s2 := d.Stats()
	if s2.LastReused == 0 || s2.LastReused > s2.LastGroups {
		t.Fatalf("second checkpoint reused %d of %d groups", s2.LastReused, s2.LastGroups)
	}
	if err := d.Checkpoint(); err != nil { // epoch 3: prune epochs < 2
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	ckpts, wals, _, _, err := scanStateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ckpts, []uint64{2, 3}) {
		t.Fatalf("checkpoints after prune: %v, want [2 3]", ckpts)
	}
	if !slices.Equal(wals, []uint64{2, 3}) {
		t.Fatalf("wals after prune: %v, want epochs [2 3]", wals)
	}
	// And the pruned directory still recovers.
	d = mustOpen(t, Options{Dir: dir})
	defer d.Close()
	if d.Core().Observed() != int64(len(jobs))+1 {
		t.Fatalf("recovered %d jobs after prune", d.Core().Observed())
	}
}

// Async mode: Close syncs the tail, so a clean shutdown loses nothing even
// without strict sync.
func TestAsyncCloseSyncsTail(t *testing.T) {
	jobs := testJobs(7, 100)
	dir := t.TempDir()
	opts := Options{Dir: dir, SyncInterval: time.Hour} // cadence never fires
	d := mustOpen(t, opts)
	observeAll(t, d, jobs)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d = mustOpen(t, opts)
	defer d.Close()
	if d.Core().Observed() != int64(len(jobs)) {
		t.Fatalf("clean async shutdown lost jobs: %d of %d", d.Core().Observed(), len(jobs))
	}
	if got := d.Core().Snapshot(); !reference(jobs).Equal(got) {
		t.Fatal("async-recovered partition differs from reference")
	}
}

// Concurrent observes with a checkpoint racing them: everything lands, and
// a restart recovers the same partition (run under -race this also checks
// the locking).
func TestConcurrentObservesWithCheckpoints(t *testing.T) {
	jobs := testJobs(8, 400)
	dir := t.TempDir()
	opts := Options{Dir: dir, SyncInterval: time.Millisecond}
	d := mustOpen(t, opts)
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := w; i < len(jobs); i += 4 {
				if err := d.Observe(jobs[i]); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for i := 0; i < 3; i++ {
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d = mustOpen(t, opts)
	defer d.Close()
	if d.Core().Observed() != int64(len(jobs)) {
		t.Fatalf("recovered %d of %d jobs", d.Core().Observed(), len(jobs))
	}
	if got := d.Core().Snapshot(); !reference(jobs).Equal(got) {
		t.Fatal("recovered partition differs from reference")
	}
}

// Damage below the newest WAL is corruption, not a crash artifact: recovery
// must refuse rather than silently skip records. Recovery reads a WAL below
// the newest when a crash fell between a checkpoint's rotation and its
// publish, so the directory is left that way: checkpoint-1 removed.
func TestSegmentCorruptionBelowNewestIsFatal(t *testing.T) {
	jobs := testJobs(14, 400)
	dir := t.TempDir()
	opts := Options{Dir: dir, SyncCommit: true}
	d := mustOpen(t, opts)
	observeAll(t, d, jobs[:200])
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	observeAll(t, d, jobs[200:])
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(ckptPath(dir, 1)); err != nil {
		t.Fatal(err)
	}
	intact := mustOpen(t, Options{Dir: copyDir(t, dir)})
	if n := intact.Core().Observed(); n != int64(len(jobs)) {
		t.Fatalf("checkpoint-0, wal-0 and wal-1 recovered %d of %d jobs", n, len(jobs))
	}
	intact.Close()

	first := walPath(dir, 0)
	raw, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-10] ^= 0xff
	if err := os.WriteFile(first, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(opts); err == nil || !strings.Contains(err.Error(), "wal-0") {
		t.Fatalf("corrupt non-newest WAL: Open = %v, want an error naming wal-0", err)
	}

	// A missing middle WAL likewise breaks the chain for good.
	if err := os.Remove(first); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(opts); err == nil {
		t.Fatal("gapped WAL chain accepted")
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
// the old WAL is sealed, and after the new epoch's WAL exists but before the
// checkpoint file is written — and requires both snapshots to recover every
// acknowledged job. The spy also pins the order: the old file is closed, and
// replays whole, before the new epoch's file is created.
func TestCheckpointCrashWindows(t *testing.T) {
	dir := t.TempDir()
	const jobs = 40
	d := mustOpen(t, Options{Dir: dir, SyncCommit: true})
	observeAll(t, d, testJobs(18, jobs))

	// Checkpoint's rotation, with the file creation spied on.
	if err := d.wal.SyncNow(); err != nil {
		t.Fatal(err)
	}
	var sealed, created string
	err := d.wal.Rotate(func() (*os.File, string, error) {
		if _, err := d.wal.f.Stat(); !errors.Is(err, os.ErrClosed) {
			t.Errorf("the old WAL is still open when the new epoch's file is created (stat: %v)", err)
		}
		if seg, err := walReplay(walPath(dir, 0), 0, 0, func([]trace.FileID) {}); err != nil || seg.Jobs != jobs {
			t.Errorf("the old WAL replays %d of %d jobs (%v) when the new epoch's file is created", seg.Jobs, jobs, err)
		}
		sealed = copyDir(t, dir)
		f, path, err := createWalFile(dir, d.epoch+1, jobs)
		created = copyDir(t, dir)
		return f, path, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for name, snap := range map[string]string{"sealed": sealed, "created": created, "closed": dir} {
		r, err := Open(Options{Dir: snap})
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

// A closed engine refuses work in both durability modes: Observe,
// ObserveBatch and Checkpoint return an error at once — none blocks, counts
// a job, or acknowledges one it will lose — and a reopen recovers exactly
// what was observed before Close.
func TestClosedEngineRefusesWork(t *testing.T) {
	jobs := testJobs(16, 20)
	for _, strict := range []bool{false, true} {
		t.Run(fmt.Sprintf("strict=%v", strict), func(t *testing.T) {
			opts := Options{Dir: t.TempDir(), SyncCommit: strict}
			d := mustOpen(t, opts)
			observeAll(t, d, jobs[:10])
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			done := make(chan []error, 1)
			go func() {
				done <- []error{d.Observe(jobs[10]), d.ObserveBatch(jobs[11:]), d.Checkpoint()}
			}()
			select {
			case errs := <-done:
				for i, name := range []string{"Observe", "ObserveBatch", "Checkpoint"} {
					if errs[i] == nil {
						t.Errorf("%s after Close returned nil", name)
					}
				}
			case <-time.After(5 * time.Second):
				t.Fatal("a call after Close was still blocked after 5s")
			}
			if n := d.Core().Observed(); n != 10 {
				t.Errorf("the closed engine counts %d jobs, want 10", n)
			}
			d = mustOpen(t, opts)
			defer d.Close()
			if n := d.Core().Observed(); n != 10 {
				t.Fatalf("reopen recovered %d jobs, want 10", n)
			}
		})
	}
}

// A wal-<epoch>.<n> segment an older, segmenting writer left holds observes
// this version does not replay: Open refuses the directory, naming the file
// and changing nothing, and Inspect reports it as corruption.
func TestLegacySegmentRefused(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, Options{Dir: dir, SyncCommit: true})
	observeAll(t, d, testJobs(17, 30))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// The segment as that writer left it: a WAL whose header chains from
	// where wal-0 ends. And a leftover temp file Open would otherwise remove.
	hdr := binary.AppendUvarint(binary.AppendUvarint([]byte{walKindHeader}, 0), 30)
	if err := os.WriteFile(filepath.Join(dir, "wal-0.1"), trace.AppendChunk([]byte(walMagic), hdr), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "checkpoint-1.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	listing := func() map[string]int64 {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		sizes := map[string]int64{}
		for _, e := range ents {
			fi, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			sizes[e.Name()] = fi.Size()
		}
		return sizes
	}
	before := listing()

	if d, err := Open(Options{Dir: dir}); err == nil {
		d.Close()
		t.Fatal("Open accepted a directory holding wal-0.1")
	} else if !strings.Contains(err.Error(), "wal-0.1") {
		t.Fatalf("Open's error does not name wal-0.1: %v", err)
	}
	if after := listing(); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("the refused Open changed the directory: %v, was %v", after, before)
	}
	rep, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if joined := strings.Join(rep.Problems, "\n"); !strings.Contains(joined, "wal-0.1") {
		t.Fatalf("Inspect does not report wal-0.1 as corrupt: %q", rep.Problems)
	}
}

func TestOpenRejectsBadDirs(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Error("empty dir accepted")
	}
	// WALs without any checkpoint: refuse rather than guess.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-3"), []byte(walMagic), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Error("wal-only dir accepted")
	}
}

// TestRecoverStateWrittenBySharded8Engine recovers testdata/state-8shard: a
// state directory written by the engine as it was before the shards were
// collapsed (commit c7c0a2b, default 8 shards) — two retained checkpoints and
// the WAL past the newer one, with exact repeats, duplicates, empty jobs and
// partial reads in the stream (that engine split an epoch's WAL into
// segments; each epoch's are joined into one file, observe chunks unchanged). Its signatures sum whole job sets and
// its groups were glued from per-shard sub-blocks; the formats did not change,
// so it must recover to exactly batch identification of jobs.txt, and keep
// refining correctly from there.
func TestRecoverStateWrittenBySharded8Engine(t *testing.T) {
	const fixture = "testdata/state-8shard"
	dir := t.TempDir()
	ents, err := os.ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if ent.Name() == "jobs.txt" {
			continue
		}
		buf, err := os.ReadFile(filepath.Join(fixture, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ent.Name()), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(filepath.Join(fixture, "jobs.txt"))
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{}
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		var files []trace.FileID
		for _, w := range strings.Fields(line) {
			id, err := strconv.Atoi(w)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, trace.FileID(id))
		}
		tr.Jobs = append(tr.Jobs, trace.Job{ID: trace.JobID(len(tr.Jobs)), Files: files})
	}

	d := mustOpen(t, Options{Dir: dir, SyncCommit: true})
	defer d.Close()
	rec := d.Recovery()
	if rec.CheckpointEpoch != 2 || rec.CheckpointObserved != 280 || rec.ReplayedJobs != 80 || rec.SkippedCheckpoints != 0 {
		t.Fatalf("recovery = %+v, want checkpoint-2 at 280 jobs plus 80 replayed", rec)
	}
	if got := d.Core().Snapshot(); !core.Identify(tr).Equal(got) {
		t.Fatal("recovered partition differs from core.Identify of the jobs that wrote the fixture")
	}

	// Splits of imported groups must mint signatures no imported group
	// carries: observe partial reads, checkpoint, and recover once more.
	for i := 0; i < 40; i++ {
		files := tr.Jobs[(7*i)%len(tr.Jobs)].Files
		files = files[:len(files)/2]
		if err := d.Observe(files); err != nil {
			t.Fatal(err)
		}
		tr.Jobs = append(tr.Jobs, trace.Job{ID: trace.JobID(len(tr.Jobs)), Files: files})
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := mustOpen(t, Options{Dir: dir})
	defer d2.Close()
	if got := d2.Core().Snapshot(); !core.Identify(tr).Equal(got) {
		t.Fatal("partition after further splits and a second recovery differs from core.Identify")
	}
}

// TestWALRefusesWhatReplayRefuses: an append replay could not read back is
// an error for that call alone — a job over trace.MaxJobFiles, a negative
// ID, a batch over trace.MaxBatchFiles — and the jobs around it, one of
// exactly MaxJobFiles files among them, survive a restart.
func TestWALRefusesWhatReplayRefuses(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, SyncCommit: true}
	d := mustOpen(t, opts)
	full := make([]trace.FileID, trace.MaxJobFiles)
	jobs := [][]trace.FileID{{1, 2}, full, {2, 3}}
	tooMany := make([][]trace.FileID, trace.MaxBatchFiles/trace.MaxJobFiles+1)
	for i := range tooMany {
		tooMany[i] = full
	}
	refused := map[string]func() error{
		"job over the bound":   func() error { return d.Observe(make([]trace.FileID, trace.MaxJobFiles+1)) },
		"negative file ID":     func() error { return d.Observe([]trace.FileID{4, -1}) },
		"batch over the bound": func() error { return d.ObserveBatch(tooMany) },
	}
	observeAll(t, d, jobs[:2])
	for name, try := range refused {
		if err := try(); err == nil {
			t.Errorf("%s: appended", name)
		}
	}
	observeAll(t, d, jobs[2:])
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d = mustOpen(t, opts)
	defer d.Close()
	if rec := d.Recovery(); rec.Observed != int64(len(jobs)) || rec.TruncatedBytes != 0 {
		t.Fatalf("recovered %d jobs with %d bytes truncated, want %d and none", rec.Observed, rec.TruncatedBytes, len(jobs))
	}
	if !reference(jobs).Equal(d.Core().Snapshot()) {
		t.Fatal("recovered partition differs from reference")
	}
}

// largestFrameBatch returns the batch of the most file IDs one wire frame
// carries when every ID costs the most a run encoding spends: IDs alternate
// between 0 and the ceiling, runs of one at 6 bytes each. Its jobs share one
// backing array.
func largestFrameBatch(t *testing.T) [][]trace.FileID {
	ids := make([]trace.FileID, trace.MaxJobFiles)
	for i := 1; i < len(ids); i += 2 {
		ids[i] = trace.FileIDCeiling - 1
	}
	// A job of m IDs encodes as its run count, a first run of 2 bytes and
	// 6 bytes for each later ID; a 'B' frame adds its kind and job count.
	enc := func(m int) int { return len(binary.AppendUvarint(nil, uint64(m))) + 2 + 6*(m-1) }
	room := trace.MaxChunkPayload - 2
	var batch [][]trace.FileID
	for room >= enc(1) {
		m := min(trace.MaxJobFiles, room/6)
		for enc(m) > room {
			m--
		}
		batch = append(batch, ids[:m])
		room -= enc(m)
	}
	size, m := 2, 0
	var rec []byte
	for _, files := range batch {
		rec = trace.AppendFileRuns(rec[:0], files)
		size += len(rec)
		m += len(files)
	}
	if len(batch) > 127 || size > trace.MaxChunkPayload || size+6 <= trace.MaxChunkPayload {
		t.Fatalf("batch of %d jobs, %d IDs encodes to %d bytes: not the largest a %d-byte frame holds", len(batch), m, size, trace.MaxChunkPayload)
	}
	return batch
}

// TestLargestFrameBatchBesidePendingJob appends, behind a job still pending
// in the arena, the largest batch a wire frame carries. Together they pass
// the frame bound replay enforces, so the committer writes them as two
// frames, and a restart recovers both.
func TestLargestFrameBatchBesidePendingJob(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, SyncInterval: time.Hour} // the pending job stays pending
	d := mustOpen(t, opts)
	jobs := append([][]trace.FileID{{7}}, largestFrameBatch(t)...)
	if err := d.Observe(jobs[0]); err != nil {
		t.Fatal(err)
	}
	if err := d.ObserveBatch(jobs[1:]); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d = mustOpen(t, opts)
	defer d.Close()
	if rec := d.Recovery(); rec.Observed != int64(len(jobs)) || rec.TruncatedBytes != 0 {
		t.Fatalf("recovered %d jobs with %d bytes truncated, want %d and none", rec.Observed, rec.TruncatedBytes, len(jobs))
	}
	if !reference(jobs).Equal(d.Core().Snapshot()) {
		t.Fatal("recovered partition differs from reference")
	}
}

// TestCheckpointRecoveryWouldRefuseIsNotWritten: a state of more files than
// a checkpoint may declare is refused by the writer, which leaves nothing
// behind, rather than written for recovery to reject once older epochs are
// pruned.
func TestCheckpointRecoveryWouldRefuseIsNotWritten(t *testing.T) {
	dir := t.TempDir()
	files := make([]trace.FileID, 1<<20)
	for i := range files {
		files[i] = trace.FileID(i)
	}
	st := &core.EngineState{Groups: make([]core.StateGroup, maxStateFiles/len(files)+1)}
	for i := range st.Groups {
		st.Groups[i] = core.StateGroup{SigLo: uint64(i), Requests: 1, Files: files}
	}
	if _, _, err := writeCheckpoint(dir, 1, st, nil); err == nil {
		t.Fatal("wrote a checkpoint of more files than recovery reads")
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Fatalf("left %v (%v) behind", left, err)
	}

	st.Groups = st.Groups[:maxStateFiles/len(files)]
	if _, _, err := writeCheckpoint(dir, 1, st, nil); err != nil {
		t.Fatalf("a checkpoint at the bound: %v", err)
	}
	if _, err := readCheckpoint(ckptPath(dir, 1), 1); err != nil {
		t.Fatalf("a checkpoint at the bound does not read back: %v", err)
	}
}
