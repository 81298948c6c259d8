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
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
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
	// SegmentBytes rolls the WAL to a new segment file (wal-<epoch>.N)
	// once the current one crosses this size, bounding any single log
	// file within an epoch (default 64 MiB).
	SegmentBytes int64
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
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 64 << 20
	}
	d := &Engine{dir: opts.Dir, logf: logf}

	ckpts, wals, tmps, err := scanStateDir(opts.Dir)
	if err != nil {
		return nil, err
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
		f, path, logical, err := createWalFile(opts.Dir, 0, 0, opts.SegmentBytes)
		if err != nil {
			return nil, err
		}
		d.eng, d.cache, d.lastStats = eng, cache, stats
		d.wal = newWAL(f, path, walPosition{dir: opts.Dir}, logical, opts.SegmentBytes, opts.SyncCommit, opts.SyncInterval)
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
// chain and leaves d.wal appending to the newest segment. The chain walk is
// replayChain, shared with Inspect; what it cannot call a crash artifact
// aborts recovery with every checkpoint and segment left as it was.
func (d *Engine) recover(opts Options, ckpts []uint64, wals map[uint64][]int) error {
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
		// The newest segment's place in its epoch: with no WAL at or above c
		// that is a wal-c still to create.
		pos := walPosition{dir: d.dir, epoch: c}
		for _, s := range segs {
			d.recovery.ReplayedJobs += s.Jobs
			if s.Epoch != pos.epoch {
				pos.epoch, pos.epochJobs = s.Epoch, 0
			}
			pos.seg = s.Seg
			pos.epochJobs += s.Jobs
		}
		pos.epochBase = eng.Observed() - pos.epochJobs

		var last *SegmentInfo // nil: no WAL at or above c
		if len(segs) > 0 {
			last = &segs[len(segs)-1]
		}
		path := walSegPath(d.dir, pos.epoch, pos.seg)
		if last != nil && last.Note != "" {
			d.logf("durable: %s: %s", path, last.Note)
		}
		var f *os.File
		var logical int64
		if last == nil || last.noHeader {
			f, path, logical, err = createWalSeg(d.dir, pos.epoch, pos.seg, eng.Observed(), opts.SegmentBytes)
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
			logical = last.validTo
		}
		d.eng = eng
		d.epoch = pos.epoch
		d.wal = newWAL(f, path, pos, logical, opts.SegmentBytes, opts.SyncCommit, opts.SyncInterval)
		d.recovery.Observed = eng.Observed()
		return nil
	}
	return fmt.Errorf("durable: no usable checkpoint in %s: %w", d.dir, lastErr)
}

// chainGap reports why the WAL chain recovery would replay on top of
// checkpoint-c is not all on disk — every epoch from c to the newest present,
// each with its segments gap-free from 0 — or nil. A directory with no WAL at
// or above c is tolerated: the checkpoint alone is the state and wal-c is
// created anew.
func chainGap(wals map[uint64][]int, c uint64) error {
	top, found := c, false
	for e := range wals {
		if e >= top {
			top, found = e, true
		}
	}
	for k := c; found && k <= top; k++ {
		segs := wals[k]
		gapped := len(segs) == 0
		for i, s := range segs {
			gapped = gapped || s != i
		}
		if gapped {
			return fmt.Errorf("durable: checkpoint-%d has no contiguous WAL chain to wal-%d (epoch %d gapped or missing)", c, top, k)
		}
	}
	return nil
}

// replayChain is the one walk over a state directory's WAL files, under
// recovery (apply is the engine's Observe) and under the dump (apply does
// nothing): it replays every segment of every epoch >= from in order, each
// exactly once, expecting the first to start at base and each later one where
// its predecessor ended, and returns one SegmentInfo per file plus the
// conditions recovery cannot repair. It alone decides what a segment's ending
// means. On the newest segment — the one file the writer had open — a header
// that cannot be read is a crash inside createWalSeg (noHeader: recreate) and
// an unreadable tail past a good header is a torn or preallocated tail
// (validTo < Bytes: truncate); both are Notes. Everything else is a problem:
// any damage below the newest segment (those files were synced and closed
// before their successor existed), a header that parses but names another
// epoch or a base that does not chain, and any failed system call. After a
// problem the walk goes on with anyBase so the dump can show the rest.
func replayChain(dir string, wals map[uint64][]int, from uint64, base int64, apply func([]trace.FileID)) (segs []SegmentInfo, problems []error) {
	var epochs []uint64
	for e := range wals {
		if e >= from {
			epochs = append(epochs, e)
		}
	}
	sort.Slice(epochs, func(a, b int) bool { return epochs[a] < epochs[b] })
	for ei, e := range epochs {
		for si, s := range wals[e] {
			path := walSegPath(dir, e, s)
			newest := ei == len(epochs)-1 && si == len(wals[e])-1
			seg, err := walReplay(path, e, base, apply)
			seg.Seg = s
			base = seg.Base + seg.Jobs
			var failed *fs.PathError
			artifact := newest && !errors.As(err, &failed)
			switch {
			case err == nil:
			case artifact && errors.Is(err, errNoWalHeader):
				seg.noHeader = true
				seg.Note = fmt.Sprintf("unusable header (%v); recovery recreates this segment", err)
			case artifact && seg.validTo > 0 && zeroTail(path, seg.validTo):
				seg.Note = fmt.Sprintf("preallocated tail: %d zero bytes past offset %d; recovery truncates them",
					seg.Bytes-seg.validTo, seg.validTo)
			case artifact && seg.validTo > 0:
				seg.Note = fmt.Sprintf("torn tail: durable: %s: %v; recovery truncates %d bytes past offset %d",
					path, err, seg.Bytes-seg.validTo, seg.validTo)
			default:
				problems = append(problems, fmt.Errorf("durable: %s: %w", path, err))
				base = anyBase
			}
			segs = append(segs, seg)
		}
	}
	return segs, problems
}

// zeroTail reports whether every byte of path from off to the end is zero —
// the signature of a preallocated segment the writer had not yet filled or
// truncated when the process died, as opposed to a torn write (which ends
// in a partial frame of real bytes before any zeros).
func zeroTail(path string, off int64) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return false
	}
	buf := make([]byte, 64<<10)
	for {
		n, err := f.Read(buf)
		for _, b := range buf[:n] {
			if b != 0 {
				return false
			}
		}
		if err == io.EOF {
			return true
		}
		if err != nil {
			return false
		}
	}
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
	err := d.wal.Rotate(epoch, st.Observed, func() (*os.File, string, int64, error) {
		return createWalFile(d.dir, epoch, st.Observed, d.wal.segBytes)
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
	ckpts, wals, _, err := scanStateDir(d.dir)
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
	for e, segs := range wals {
		if e < epoch-1 {
			for _, s := range segs {
				if err := os.Remove(walSegPath(d.dir, e, s)); err != nil {
					d.logf("durable: prune: %v", err)
				}
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

// Close stops background work and syncs and closes the WAL. It does not
// checkpoint; call Checkpoint first for a fast next startup.
func (d *Engine) Close() error {
	if !d.closed.CompareAndSwap(false, true) {
		return nil
	}
	if d.stopCkpt != nil {
		close(d.stopCkpt)
		<-d.doneCkpt
	}
	return d.wal.Close()
}

// scanStateDir is the one parser of a state directory's listing: checkpoint
// epochs (sorted ascending), WAL segments per epoch (each list sorted
// ascending), and the names of leftover temporary files from an interrupted
// checkpoint write, which Open removes and Inspect prints.
func scanStateDir(dir string) (ckpts []uint64, wals map[uint64][]int, tmps []string, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("durable: %w", err)
	}
	wals = make(map[uint64][]int)
	for _, ent := range ents {
		name := ent.Name()
		if strings.HasSuffix(name, ".tmp") {
			tmps = append(tmps, name)
		} else if e, ok := parseEpoch(name, "checkpoint-"); ok {
			ckpts = append(ckpts, e)
		} else if e, s, ok := parseWalSeg(name); ok {
			wals[e] = append(wals[e], s)
		}
	}
	sort.Slice(ckpts, func(a, b int) bool { return ckpts[a] < ckpts[b] })
	for _, segs := range wals {
		sort.Ints(segs)
	}
	return ckpts, wals, tmps, nil
}

func parseEpoch(name, prefix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) {
		return 0, false
	}
	e, err := strconv.ParseUint(name[len(prefix):], 10, 64)
	return e, err == nil
}

// parseWalSeg recognizes wal-<epoch> (segment 0) and wal-<epoch>.<seg>.
func parseWalSeg(name string) (epoch uint64, seg int, ok bool) {
	rest, found := strings.CutPrefix(name, "wal-")
	if !found {
		return 0, 0, false
	}
	epochStr, segStr, dotted := strings.Cut(rest, ".")
	epoch, err := strconv.ParseUint(epochStr, 10, 64)
	if err != nil {
		return 0, 0, false
	}
	if !dotted {
		return epoch, 0, true
	}
	s, err := strconv.Atoi(segStr)
	if err != nil || s < 1 {
		return 0, 0, false
	}
	return epoch, s, true
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
