package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"filecule/internal/trace"
)

// The write-ahead observe log: one file per epoch, wal-<epoch>, laid out as
//
//	"filecule-wal/v1\n"
//	'H' header chunk: uvarint epoch, uvarint base observed-count
//	'O' chunks:       uvarint job count, then per job a uvarint file count
//	                  followed by (zigzag delta-start, uvarint length) runs
//	                  covering exactly that many files (order and
//	                  duplicates preserved)
//
// An epoch's base is where the previous epoch's log ended, so replaying the
// files in epoch order chains the bases. A file is fsynced and closed before
// its successor is created; recovery therefore tolerates a torn tail only on
// the newest file and treats damage anywhere earlier as corruption.
//
// There is no end chunk: the log is append-only and a clean EOF at a frame
// boundary is the only well-formed ending. Every 'O' chunk is one group
// -commit batch, written with a single write(), so a crash can only tear
// the final frame — which the CRC frame detects and recovery truncates.
//
// Group commit: appenders copy their raw file lists into an in-memory
// arena under a short mutex — run-encoding is deferred to the committer
// goroutine, keeping the observe hot path to a memcpy. The committer
// encodes and write()s a batch whenever the arena fills, and fsyncs on
// the sync cadence (async mode) or before releasing appenders (strict
// mode — the classic group commit, so concurrent appenders amortize one
// fsync). Async mode never blocks an observe on fsync; the price is that
// a crash loses at most the observes of the last sync interval.

const walMagic = "filecule-wal/v1\n"

const (
	walKindHeader   = 'H'
	walKindObserves = 'O'
)

// walFlushIDs triggers an early flush when a batch's arena grows past this
// many file IDs, keeping memory bounded under observe bursts faster than
// the sync cadence.
const walFlushIDs = 1 << 18

// walChunkIDs caps the file IDs of one 'O' frame, so one corrupt record
// cannot force a huge allocation on replay. An appender finds fewer than
// walFlushIDs IDs pending and adds one batch of at most trace.MaxBatchFiles.
const walChunkIDs = trace.MaxBatchFiles + walFlushIDs

// frameFits reports whether jobs records of recBytes in all fit one 'O'
// frame: its kind byte, the job count and the records.
func frameFits(jobs, recBytes int) bool {
	var count [binary.MaxVarintLen64]byte
	return 1+binary.PutUvarint(count[:], uint64(jobs))+recBytes <= trace.MaxChunkPayload
}

// appendUv is binary.AppendUvarint with a fast path for one-byte values,
// which run deltas and lengths almost always are. The committer encodes
// two varints per run for every observed job, so the branch pays for
// itself many times over on a single-core host where committer CPU is
// stolen directly from the observe path.
func appendUv(dst []byte, v uint64) []byte {
	if v < 0x80 {
		return append(dst, byte(v))
	}
	return binary.AppendUvarint(dst, v)
}

// appendJobIDs encodes one job record: a uvarint file count, then runs of
// consecutive IDs as (zigzag delta from the previous run's end, uvarint
// length). Prefixing the file count instead of the run count (as
// trace.AppendFileRuns does) lets the committer encode in a single pass —
// this is the WAL's hot loop, fed the raw arena for every observed job.
func appendJobIDs(dst []byte, ids []trace.FileID) []byte {
	dst = appendUv(dst, uint64(len(ids)))
	prev := int64(0)
	for i := 0; i < len(ids); {
		j := i + 1
		for j < len(ids) && ids[j] == ids[j-1]+1 {
			j++
		}
		start := int64(ids[i])
		d := uint64(start-prev) << 1 // inline zigzag
		if start < prev {
			d = ^d
		}
		dst = appendUv(dst, d)
		dst = appendUv(dst, uint64(j-i))
		prev = start + int64(j-i)
		i = j
	}
	return dst
}

// recordBytes refuses, before anything is logged, a batch that replay would
// refuse — a job of more than trace.MaxJobFiles files or with a negative ID,
// more than trace.MaxBatchFiles IDs in all, records that no frame holds —
// and returns the bytes its records take, or a bound on them.
func recordBytes(jobs [][]trace.FileID) (int, error) {
	ids := 0
	for i, files := range jobs {
		if len(files) > trace.MaxJobFiles {
			return 0, fmt.Errorf("durable: job %d of %d files exceeds the limit %d", i, len(files), trace.MaxJobFiles)
		}
		for _, f := range files {
			if f < 0 {
				return 0, fmt.Errorf("durable: job %d names file ID %d", i, f)
			}
		}
		ids += len(files)
	}
	if ids > trace.MaxBatchFiles {
		return 0, fmt.Errorf("durable: batch of %d file IDs exceeds the limit %d", ids, trace.MaxBatchFiles)
	}
	// A record is a count of at most 4 bytes and runs of at most 6 bytes an
	// ID. Only a batch of millions of IDs can pass the frame on that bound;
	// it is measured exactly.
	size := 4*len(jobs) + 6*ids
	if !frameFits(len(jobs), size) {
		size = 0
		var rec []byte
		for _, files := range jobs {
			rec = appendJobIDs(rec[:0], files)
			size += len(rec)
		}
		if !frameFits(len(jobs), size) {
			return 0, fmt.Errorf("durable: batch of %d record bytes passes the %d-byte frame", size, trace.MaxChunkPayload)
		}
	}
	return size, nil
}

// jobIDs decodes one appendJobIDs record into dst, validating that the
// runs cover exactly the declared file count and every ID is in range.
func jobIDs(p *trace.Payload, dst []trace.FileID) []trace.FileID {
	nf := p.Uvarint()
	if p.Err() != nil {
		return dst
	}
	if nf > trace.MaxJobFiles {
		p.Fail("job of %d files exceeds limit %d", nf, trace.MaxJobFiles)
		return dst
	}
	left := int64(nf)
	prev := int64(0)
	for left > 0 {
		start := prev + p.Zvarint()
		length := p.Uvarint()
		if p.Err() != nil {
			return dst
		}
		if length == 0 || int64(length) > left {
			p.Fail("run length %d with %d files left in job", length, left)
			return dst
		}
		if start < 0 || start+int64(length) > trace.FileIDCeiling {
			p.Fail("run [%d,%d) outside file-ID range", start, start+int64(length))
			return dst
		}
		for id := start; id < start+int64(length); id++ {
			dst = append(dst, trace.FileID(id))
		}
		prev = start + int64(length)
		left -= int64(length)
	}
	return dst
}

// errClosed is what a closed log answers every later append and sync with.
var errClosed = errors.New("durable: engine closed")

// wal is the group-commit writer. It survives rotations: Checkpoint swaps
// the underlying file while the committer goroutine and counters carry on.
type wal struct {
	strict   bool
	interval time.Duration

	mu          sync.Mutex
	cond        *sync.Cond
	f           *os.File
	path        string
	pendIDs     []trace.FileID // flat arena of the accumulating batch's file lists
	pendLens    []int          // per-job list lengths within pendIDs
	pendBytes   int            // what recordBytes said of the pending batches
	spareIDs    []trace.FileID // committer-returned buffers for the next batch
	spareLens   []int
	seq         int64 // batch number the accumulating records belong to
	writtenSeq  int64 // highest batch number handed to write()
	syncedSeq   int64 // highest batch number durably on disk
	writtenJobs int64 // jobs written since the last fsync
	err         error // sticky: the first write/sync failure, or errClosed, poisons the log

	kick     chan struct{} // write the arena out (fsync only if strict)
	kickSync chan struct{} // write and fsync everything appended so far
	stop     chan struct{}
	done     chan struct{}

	appended atomic.Int64 // jobs accepted into the log
	synced   atomic.Int64 // jobs durably synced

	payload []byte // committer-owned payload assembly buffer
	frame   []byte // committer-owned frame assembly buffer
}

// newWAL returns a writer over f (already positioned at its append point,
// magic and header written) and starts the committer.
func newWAL(f *os.File, path string, strict bool, interval time.Duration) *wal {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	w := &wal{
		strict:   strict,
		interval: interval,
		f:        f,
		path:     path,
		seq:      1, // batch 0 is "already synced": nothing
		kick:     make(chan struct{}, 1),
		kickSync: make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	w.cond = sync.NewCond(&w.mu)
	go w.run()
	return w
}

// AppendBatch copies jobs into the accumulating batch's arena. In strict
// mode it returns once the records are fsynced (an error means they may
// not be durable); in async mode it returns after the in-memory copy and
// the committer encodes and syncs on its cadence. A batch replay would
// refuse is refused here, with an error for this call only.
func (w *wal) AppendBatch(jobs [][]trace.FileID) error {
	size, err := recordBytes(jobs)
	if err != nil {
		return err
	}
	w.mu.Lock()
	// Backpressure: when observes outrun the committer, wait for the
	// in-flight flush instead of growing the arena without bound. This
	// caps memory (and the async-mode loss window) at about two batches.
	// A batch that would carry the pending frame past its bound also waits,
	// so a frame ends at a batch boundary and a batch is never split.
	for len(w.pendLens) > 0 && (len(w.pendIDs) >= walFlushIDs || !frameFits(len(w.pendLens)+len(jobs), w.pendBytes+size)) && w.err == nil {
		w.kickCommitter()
		w.cond.Wait()
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return err
	}
	for _, files := range jobs {
		w.pendIDs = append(w.pendIDs, files...)
		w.pendLens = append(w.pendLens, len(files))
	}
	w.pendBytes += size
	w.appended.Add(int64(len(jobs)))
	seq := w.seq
	if w.strict {
		w.kickCommitter()
		for w.syncedSeq < seq && w.err == nil {
			w.cond.Wait()
		}
		err := w.err
		w.mu.Unlock()
		return err
	}
	big := len(w.pendIDs) >= walFlushIDs
	w.mu.Unlock()
	if big {
		w.kickCommitter()
	}
	return nil
}

// Append encodes one job's input set (see AppendBatch).
func (w *wal) Append(files []trace.FileID) error {
	return w.AppendBatch([][]trace.FileID{files})
}

func (w *wal) kickCommitter() {
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

// SyncNow flushes the accumulating batch and blocks until everything
// appended so far is durably on disk.
func (w *wal) SyncNow() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	target := w.seq - 1
	if len(w.pendLens) > 0 {
		target = w.seq
	}
	for w.syncedSeq < target && w.err == nil {
		select {
		case w.kickSync <- struct{}{}:
		default:
		}
		w.cond.Wait()
	}
	return w.err
}

// Rotate seals the current file — fsynced, closed — and only then has create
// make the next epoch's file (see createWalFile) and swaps it in. The order
// matters to a crash in between: once the new epoch exists the old file is no
// longer "newest", and recovery treats any damage below the newest file as
// corruption. The caller must have quiesced appends and called SyncNow. Any
// failure is sticky: a sealed log takes no more appends.
func (w *wal) Rotate(create func() (f *os.File, path string, err error)) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.pendLens) != 0 {
		return fmt.Errorf("durable: wal rotate with %d unsynced jobs pending", len(w.pendLens))
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		if f, path, cerr := create(); cerr == nil {
			w.f, w.path = f, path
		} else {
			err = cerr
		}
	}
	if err != nil && w.err == nil {
		w.err = err
	}
	return err
}

// Close stops the committer, whose last flush writes and fsyncs every job
// appended so far, closes the file, and leaves errClosed behind: every later
// append or SyncNow returns it. The caller must have quiesced appends.
func (w *wal) Close() error {
	close(w.stop)
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.err
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	if w.err == nil {
		w.err = errClosed
	}
	w.cond.Broadcast()
	return err
}

// run is the committer: it owns all file writes, so batches hit the log in
// seq order with no write lock held during write or fsync. Arena-full
// kicks only write (bounding memory without paying fsync latency); the
// ticker and SyncNow kicks also fsync, bounding the async loss window to
// the sync interval.
func (w *wal) run() {
	defer close(w.done)
	t := time.NewTicker(w.interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			w.flush(true)
			return
		case <-w.kickSync:
			w.flush(true)
		case <-w.kick:
			w.flush(false)
		case <-t.C:
			w.flush(true)
		}
	}
}

// flush swaps the accumulating batch's arena out under the mutex, then
// run-encodes it into one 'O' frame and writes it — all outside the lock,
// overlapping with new appends. With sync (or in strict mode) it also
// fsyncs, marking every written batch durable.
func (w *wal) flush(sync bool) {
	w.mu.Lock()
	sync = sync || w.strict
	n := len(w.pendLens)
	if w.err != nil || (n == 0 && (!sync || w.syncedSeq == w.writtenSeq)) {
		w.mu.Unlock()
		return
	}
	var seq int64
	ids, lens := w.pendIDs, w.pendLens
	if n > 0 {
		seq = w.seq
		w.pendIDs, w.pendLens, w.pendBytes = w.spareIDs[:0], w.spareLens[:0], 0
		w.seq++
		// The arena is empty again: wake appenders blocked on backpressure
		// now, so they refill it while this batch encodes and writes.
		w.cond.Broadcast()
	}
	f := w.f
	w.mu.Unlock()

	var payload, full []byte
	var err error
	if n > 0 {
		payload = append(w.payload[:0], walKindObserves)
		payload = binary.AppendUvarint(payload, uint64(n))
		off := 0
		for _, l := range lens {
			payload = appendJobIDs(payload, ids[off:off+l])
			off += l
		}
		full = trace.AppendChunk(w.frame[:0], payload)
		_, err = f.Write(full)
	}
	if err == nil && sync {
		err = f.Sync()
	}

	w.mu.Lock()
	if n > 0 {
		w.payload, w.frame = payload, full
		w.spareIDs, w.spareLens = ids, lens
	}
	if err != nil {
		if w.err == nil {
			w.err = fmt.Errorf("durable: wal %s: %w", w.path, err)
		}
	} else {
		if n > 0 {
			w.writtenSeq = seq
			w.writtenJobs += int64(n)
		}
		if sync {
			w.syncedSeq = w.writtenSeq
			w.synced.Add(w.writtenJobs)
			w.writtenJobs = 0
		}
	}
	w.cond.Broadcast()
	w.mu.Unlock()
}

// createWalFile creates dir/wal-<epoch> with magic and header written and
// fsynced, and the directory entry fsynced, returning the open file
// positioned for appends. base is the observed-count the epoch starts at. A
// crash before the header is durable leaves a short or zero-filled file, which replay
// reports as errNoWalHeader and recovery recreates.
func createWalFile(dir string, epoch uint64, base int64) (*os.File, string, error) {
	path := walPath(dir, epoch)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, "", err
	}
	hdr := []byte{walKindHeader}
	hdr = binary.AppendUvarint(hdr, epoch)
	hdr = binary.AppendUvarint(hdr, uint64(base))
	if _, err := f.Write(trace.AppendChunk([]byte(walMagic), hdr)); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, "", fmt.Errorf("durable: create %s: %w", path, err)
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, "", err
	}
	return f, path, nil
}

// anyBase is the wantBase that accepts whatever base a WAL's header names:
// the dump's walk uses it to keep reporting past a break in the chain.
const anyBase = -1

// errNoWalHeader marks the one replay failure recovery repairs by recreating
// the file: the magic line or header chunk could not be read (short,
// zero-filled, torn or CRC-failed), which is what a crash inside
// createWalFile leaves. A header that parses but names another epoch or base
// is not this.
var errNoWalHeader = errors.New("no readable WAL header")

// noWalHeader wraps the cause so it matches errNoWalHeader and prints as
// itself.
type noWalHeader struct{ error }

func (e noWalHeader) Is(target error) bool { return target == errNoWalHeader }
func (e noWalHeader) Unwrap() error        { return e.error }

// walReplay is the only reader of a WAL file. It streams path into apply
// batch-atomically — a chunk's jobs are fully decoded and validated before any
// is applied, so a corrupt chunk never half-applies — and describes the file:
// size, the base its header names, the jobs applied, and validTo, the offset
// the file is well-formed up to (its size when err is nil). The header must
// name wantEpoch and, unless wantBase is anyBase, chain from wantBase. A
// failure before the first 'O' chunk — open, stat, errNoWalHeader, or a
// header that does not chain — leaves validTo 0; one past it is a tail that
// ends at validTo.
func walReplay(path string, wantEpoch uint64, wantBase int64, apply func([]trace.FileID)) (seg SegmentInfo, err error) {
	seg = SegmentInfo{Epoch: wantEpoch, Path: path}
	f, err := os.Open(path)
	if err != nil {
		return seg, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return seg, err
	}
	seg.Bytes = fi.Size()

	cr, p, err := trace.OpenChunks(f, walMagic, walKindHeader)
	if err != nil {
		return seg, noWalHeader{err}
	}
	epoch := p.Uvarint()
	seg.Base = int64(p.Uvarint())
	if p.Err() != nil || p.Remaining() != 0 {
		return seg, noWalHeader{fmt.Errorf("malformed header: %v", p.Err())}
	}
	if epoch != wantEpoch {
		return seg, fmt.Errorf("header epoch %d, want %d", epoch, wantEpoch)
	}
	if wantBase != anyBase && seg.Base != wantBase {
		return seg, fmt.Errorf("base observed-count %d does not chain from %d", seg.Base, wantBase)
	}

	var batch [][]trace.FileID
	var arena []trace.FileID
	for {
		seg.validTo = int64(len(walMagic)) + cr.Offset()
		kind, payload, err := cr.ReadChunk()
		if err == io.EOF {
			return seg, nil
		}
		if err != nil {
			return seg, err
		}
		if kind != walKindObserves {
			return seg, fmt.Errorf("chunk at byte offset %d: unexpected kind %q", seg.validTo, kind)
		}
		p := trace.NewPayload(payload)
		n := p.Count("job")
		batch = batch[:0]
		arena = arena[:0]
		for i := 0; i < n && p.Err() == nil; i++ {
			start := len(arena)
			arena = jobIDs(p, arena)
			batch = append(batch, arena[start:len(arena):len(arena)])
			if len(arena) > walChunkIDs {
				p.Fail("frame passes %d file IDs", walChunkIDs)
			}
		}
		if p.Err() == nil && p.Remaining() != 0 {
			p.Fail("%d bytes after last job record", p.Remaining())
		}
		if p.Err() != nil {
			return seg, fmt.Errorf("chunk %q at byte offset %d: %v", kind, seg.validTo, p.Err())
		}
		for _, files := range batch {
			apply(files)
		}
		seg.Jobs += int64(n)
	}
}
