// Package durable makes the online identification engine's state survive
// process death: an incremental checkpoint of the engine's filecule groups
// plus a write-ahead observe log, both built on the CRC32C chunk frame the
// filecule-bin codec uses.
//
// The state directory holds, per epoch e, a self-contained checkpoint-e and
// a wal-e of every observe since that checkpoint. Recovery loads the newest
// valid checkpoint and replays the WAL chain from its epoch forward; a
// crash-torn tail on the newest WAL is detected by the CRC frame, logged
// with its byte offset and chunk kind, and truncated. Retention keeps two
// epochs, so a corrupt newest checkpoint (real corruption — checkpoints are
// written atomically) still recovers losslessly from the previous one plus
// the complete intervening WAL.
//
// Durability contract: in strict mode (SyncCommit) an Observe returns only
// after its WAL record is fsynced — a crash never loses an acknowledged
// observe. In async mode (the default) batches are written as they fill
// and fsynced on the SyncInterval cadence, so a crash loses at most the
// observes of the last sync interval; observes never block on fsync.
package durable

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"filecule/internal/core"
	"filecule/internal/trace"
)

// Options configures Open.
type Options struct {
	// Dir is the state directory (required; created if absent).
	Dir string
	// SyncCommit makes every Observe wait for its WAL fsync (group
	// commit). Off, records sync on the SyncInterval cadence.
	SyncCommit bool
	// SyncInterval is the async group-commit cadence (default 50ms).
	SyncInterval time.Duration
	// CheckpointInterval starts a background checkpoint loop when > 0.
	CheckpointInterval time.Duration
	// Logf receives recovery and background-checkpoint diagnostics
	// (default: discarded).
	Logf func(format string, args ...any)
}

// Recovery summarizes what Open reconstructed.
type Recovery struct {
	Fresh              bool   // no prior state existed
	CheckpointEpoch    uint64 // epoch of the checkpoint recovery loaded
	CheckpointObserved int64  // jobs covered by that checkpoint
	ReplayedJobs       int64  // jobs replayed from the WAL chain
	TruncatedBytes     int64  // bytes dropped from the newest WAL's torn tail
	SkippedCheckpoints int    // corrupt checkpoints skipped (fell back an epoch)
	Observed           int64  // total jobs after recovery
}

// Stats is a point-in-time view of the durability layer.
type Stats struct {
	Epoch        uint64
	Checkpoints  int64 // checkpoints written by this process
	WALAppended  int64 // jobs accepted into the WAL
	WALSynced    int64 // jobs durably synced
	LastGroups   int   // groups in the last checkpoint
	LastReused   int   // of those, encoded-bytes reused from cache
	LastBytes    int64 // last checkpoint's file size
	LastDuration time.Duration
}

// Engine wraps a core.Engine with WAL-ahead observes and checkpointing.
type Engine struct {
	dir  string
	logf func(string, ...any)

	// mu orders observes (read side) against checkpoint quiesce (write
	// side): an observe appends to the WAL then applies to the engine
	// under the read side, so a checkpoint — which syncs and rotates the
	// WAL, then exports engine state under the write side — always sees
	// engine state ⊆ synced WAL. Observe order between WAL and engine may
	// differ across concurrent holders; identification is commutative, so
	// replay converges to the same partition.
	mu  sync.RWMutex
	eng *core.Engine
	wal *wal

	// ckptMu serializes checkpoints; epoch and cache are written under it
	// (epoch also under mu's write side for readers).
	ckptMu sync.Mutex
	epoch  uint64
	cache  map[groupKey][]byte

	recovery    Recovery
	checkpoints atomic.Int64

	statsMu   sync.Mutex
	lastStats ckptStats
	lastDur   time.Duration

	stopCkpt chan struct{}
	doneCkpt chan struct{}
	closed   atomic.Bool
}

// Open recovers (or initializes) engine state from opts.Dir and returns a
// ready engine. A fresh directory gets an empty checkpoint-0 immediately,
// so a valid state directory always holds at least one checkpoint.
func Open(opts Options) (*Engine, error) {
	if opts.Dir == "" {
		return nil, errors.New("durable: state directory not set")
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	d := &Engine{dir: opts.Dir, logf: logf}

	ckpts, wals, tmps, refused, err := scanStateDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	if len(refused) > 0 {
		return nil, refused[0]
	}
	for _, name := range tmps { // an interrupted checkpoint write
		if err := os.Remove(filepath.Join(opts.Dir, name)); err != nil {
			return nil, fmt.Errorf("durable: %w", err)
		}
	}
	if len(ckpts) == 0 && len(wals) > 0 {
		return nil, fmt.Errorf("durable: %s holds WAL files but no checkpoint", opts.Dir)
	}

	if len(ckpts) == 0 {
		// Fresh directory: persist the empty state so recovery always has
		// a base, then open wal-0.
		eng := core.NewEngine(0)
		cache, stats, err := writeCheckpoint(opts.Dir, 0, eng.ExportState(), nil)
		if err != nil {
			return nil, err
		}
		f, path, err := createWalFile(opts.Dir, 0, 0)
		if err != nil {
			return nil, err
		}
		d.eng, d.cache, d.lastStats = eng, cache, stats
		d.wal = newWAL(f, path, opts.SyncCommit, opts.SyncInterval)
		d.recovery = Recovery{Fresh: true}
	} else {
		if err := d.recover(opts, ckpts, wals); err != nil {
			return nil, err
		}
	}

	if opts.CheckpointInterval > 0 {
		d.stopCkpt = make(chan struct{})
		d.doneCkpt = make(chan struct{})
		go d.checkpointLoop(opts.CheckpointInterval)
	}
	return d, nil
}

// recover rebuilds the engine from the newest usable checkpoint plus its WAL
// chain and leaves d.wal appending to the newest WAL. The chain walk is
// replayChain, shared with Inspect; what it cannot call a crash artifact
// aborts recovery with every checkpoint and WAL left as it was.
func (d *Engine) recover(opts Options, ckpts, wals []uint64) error {
	var lastErr error
	for i := len(ckpts) - 1; i >= 0; i-- {
		c := ckpts[i]
		var eng *core.Engine
		var st *core.EngineState
		err := chainGap(wals, c)
		if err == nil {
			eng, st, err = loadCheckpoint(d.dir, c)
		}
		if err != nil {
			lastErr = err
			d.logf("durable: skipping checkpoint-%d: %v", c, err)
			d.recovery.SkippedCheckpoints++
			continue
		}
		d.recovery.CheckpointEpoch = c
		d.recovery.CheckpointObserved = st.Observed

		segs, problems := replayChain(d.dir, wals, c, st.Observed, eng.Observe)
		if len(problems) > 0 {
			return problems[0]
		}
		// The newest WAL; with none at or above c that is a wal-c to create.
		last := SegmentInfo{Epoch: c, noHeader: true}
		for _, s := range segs {
			d.recovery.ReplayedJobs += s.Jobs
			last = s
		}
		var f *os.File
		path := walPath(d.dir, last.Epoch)
		if last.Note != "" {
			d.logf("durable: %s: %s", path, last.Note)
		}
		if last.noHeader {
			f, path, err = createWalFile(d.dir, last.Epoch, eng.Observed())
			if err != nil {
				return err
			}
		} else {
			if last.validTo < last.Bytes {
				d.recovery.TruncatedBytes = last.Bytes - last.validTo
				if err := os.Truncate(path, last.validTo); err != nil {
					return fmt.Errorf("durable: truncate %s: %w", path, err)
				}
			}
			f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("durable: reopen %s: %w", path, err)
			}
		}
		d.eng = eng
		d.epoch = last.Epoch
		d.wal = newWAL(f, path, opts.SyncCommit, opts.SyncInterval)
		d.recovery.Observed = eng.Observed()
		return nil
	}
	return fmt.Errorf("durable: no usable checkpoint in %s: %w", d.dir, lastErr)
}

// chainGap reports why the WAL chain recovery would replay on top of
// checkpoint-c is not all on disk — every epoch from c to the newest present
// — or nil. A directory with no WAL at or above c is tolerated: the
// checkpoint alone is the state and wal-c is created anew.
func chainGap(wals []uint64, c uint64) error {
	want := c
	for _, e := range wals {
		if e < c {
			continue
		}
		if e != want {
			return fmt.Errorf("durable: checkpoint-%d has no contiguous WAL chain to wal-%d (wal-%d missing)", c, wals[len(wals)-1], want)
		}
		want++
	}
	return nil
}

// replayChain is the one walk over a state directory's WAL files, under
// recovery (apply is the engine's Observe) and under the dump (apply does
// nothing): it replays the WAL of every epoch >= from in order, each exactly
// once, expecting the first to start at base and each later one where its
// predecessor ended, and returns one SegmentInfo per file plus the conditions
// recovery cannot repair. It alone decides what a file's ending means. On the
// newest WAL — the one file the writer had open — a header that cannot be
// read is a crash inside createWalFile (noHeader: recreate) and an unreadable
// tail past a good header is a torn tail (validTo < Bytes: truncate); both
// are Notes. Everything else is a problem: any damage below the newest WAL
// (those files were synced and closed before their successor existed), a
// header that parses but names another epoch or a base that does not chain,
// and any failed system call. After a problem the walk goes on with anyBase
// so the dump can show the rest.
func replayChain(dir string, wals []uint64, from uint64, base int64, apply func([]trace.FileID)) (segs []SegmentInfo, problems []error) {
	for i, e := range wals {
		if e < from {
			continue
		}
		path := walPath(dir, e)
		seg, err := walReplay(path, e, base, apply)
		base = seg.Base + seg.Jobs
		var failed *fs.PathError
		artifact := i == len(wals)-1 && !errors.As(err, &failed)
		switch {
		case err == nil:
		case artifact && errors.Is(err, errNoWalHeader):
			seg.noHeader = true
			seg.Note = fmt.Sprintf("unusable header (%v); recovery recreates the file", err)
		case artifact && seg.validTo > 0:
			seg.Note = fmt.Sprintf("torn tail: durable: %s: %v; recovery truncates %d bytes past offset %d",
				path, err, seg.Bytes-seg.validTo, seg.validTo)
		default:
			problems = append(problems, fmt.Errorf("durable: %s: %w", path, err))
			base = anyBase
		}
		segs = append(segs, seg)
	}
	return segs, problems
}

// Recovery reports what Open reconstructed.
func (d *Engine) Recovery() Recovery { return d.recovery }

// Core exposes the underlying engine for reads (snapshots, counters).
// Mutations must go through Observe/ObserveBatch or they bypass the WAL.
func (d *Engine) Core() *core.Engine { return d.eng }

// Observe logs one job's input set to the WAL, then folds it into the
// engine. In strict mode the error reports a failed fsync — the job may
// not be durable and was not applied.
func (d *Engine) Observe(files []trace.FileID) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if err := d.wal.Append(files); err != nil {
		return err
	}
	d.eng.Observe(files)
	return nil
}

// ObserveBatch logs and applies several jobs; strict mode pays one group
// commit for the whole batch.
func (d *Engine) ObserveBatch(jobs [][]trace.FileID) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if err := d.wal.AppendBatch(jobs); err != nil {
		return err
	}
	d.eng.ObserveBatch(jobs)
	return nil
}

// Checkpoint writes a new checkpoint epoch: quiesce observes, sync the WAL,
// export engine state, rotate the WAL to the new epoch — then write the
// checkpoint file and prune old epochs with observes already flowing again.
func (d *Engine) Checkpoint() error {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	start := time.Now()

	d.mu.Lock()
	if err := d.wal.SyncNow(); err != nil {
		d.mu.Unlock()
		return err
	}
	st := d.eng.ExportState()
	epoch := d.epoch + 1
	err := d.wal.Rotate(func() (*os.File, string, error) {
		return createWalFile(d.dir, epoch, st.Observed)
	})
	if err != nil {
		d.mu.Unlock()
		return err
	}
	d.epoch = epoch
	d.mu.Unlock()

	cache, stats, err := writeCheckpoint(d.dir, epoch, st, d.cache)
	if err != nil {
		// The rotated WAL is already in place; recovery still works from
		// the previous checkpoint plus the full chain.
		return err
	}
	d.cache = cache
	d.statsMu.Lock()
	d.lastStats = stats
	d.lastDur = time.Since(start)
	d.statsMu.Unlock()
	d.checkpoints.Add(1)
	d.prune(epoch)
	return nil
}

// prune removes state files older than the previous epoch. Keeping two
// epochs makes a corrupt newest checkpoint recoverable: checkpoint-(e-1)
// plus the complete wal-(e-1) reproduce everything checkpoint-e held.
func (d *Engine) prune(epoch uint64) {
	if epoch < 2 {
		return
	}
	ckpts, wals, _, _, err := scanStateDir(d.dir)
	if err != nil {
		d.logf("durable: prune scan: %v", err)
		return
	}
	for _, e := range ckpts {
		if e < epoch-1 {
			if err := os.Remove(ckptPath(d.dir, e)); err != nil {
				d.logf("durable: prune: %v", err)
			}
		}
	}
	for _, e := range wals {
		if e < epoch-1 {
			if err := os.Remove(walPath(d.dir, e)); err != nil {
				d.logf("durable: prune: %v", err)
			}
		}
	}
}

func (d *Engine) checkpointLoop(interval time.Duration) {
	defer close(d.doneCkpt)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-d.stopCkpt:
			return
		case <-t.C:
			if err := d.Checkpoint(); err != nil {
				d.logf("durable: background checkpoint: %v", err)
			}
		}
	}
}

// Stats returns current durability counters.
func (d *Engine) Stats() Stats {
	d.mu.RLock()
	epoch := d.epoch
	d.mu.RUnlock()
	d.statsMu.Lock()
	last, dur := d.lastStats, d.lastDur
	d.statsMu.Unlock()
	return Stats{
		Epoch:        epoch,
		Checkpoints:  d.checkpoints.Load(),
		WALAppended:  d.wal.appended.Load(),
		WALSynced:    d.wal.synced.Load(),
		LastGroups:   last.groups,
		LastReused:   last.reused,
		LastBytes:    last.bytes,
		LastDuration: dur,
	}
}

// Close stops background work, waits out in-flight observes, and syncs and
// closes the WAL. Every later Observe, ObserveBatch and Checkpoint returns
// an error. It does not checkpoint; call Checkpoint first for a fast next
// startup.
func (d *Engine) Close() error {
	if !d.closed.CompareAndSwap(false, true) {
		return nil
	}
	if d.stopCkpt != nil {
		close(d.stopCkpt)
		<-d.doneCkpt
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.wal.Close()
}

// scanStateDir is the one parser of a state directory's listing: checkpoint
// and WAL epochs (each sorted ascending), the names of leftover temporary
// files from an interrupted checkpoint write, which Open removes and Inspect
// prints, and one error per wal-<epoch>.<n> file. An older writer split an
// epoch's WAL into such segments; replaying the epoch without them would drop
// acknowledged observes, so Open refuses them and Inspect reports them.
func scanStateDir(dir string) (ckpts, wals []uint64, tmps []string, refused []error, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("durable: %w", err)
	}
	for _, ent := range ents {
		name := ent.Name()
		if strings.HasSuffix(name, ".tmp") {
			tmps = append(tmps, name)
		} else if e, ok := parseEpoch(name, "checkpoint-"); ok {
			ckpts = append(ckpts, e)
		} else if e, ok := parseEpoch(name, "wal-"); ok {
			wals = append(wals, e)
		} else if head, seg, ok := strings.Cut(name, "."); ok && isEpoch(head, "wal-") && isEpoch(seg, "") {
			refused = append(refused, fmt.Errorf("durable: %s: a WAL segment from an older, segmenting writer; "+
				"this version replays one wal-<epoch> per epoch and will not drop its observes", filepath.Join(dir, name)))
		}
	}
	slices.Sort(ckpts)
	slices.Sort(wals)
	return ckpts, wals, tmps, refused, nil
}

func parseEpoch(name, prefix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) {
		return 0, false
	}
	e, err := strconv.ParseUint(name[len(prefix):], 10, 64)
	return e, err == nil
}

func isEpoch(name, prefix string) bool {
	_, ok := parseEpoch(name, prefix)
	return ok
}

// syncDir fsyncs a directory so renames and creates within it are durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("durable: sync %s: %w", dir, err)
	}
	return nil
}
