package durable

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"filecule/internal/core"
	"filecule/internal/trace"
)

// Engine checkpoints. One self-contained file per epoch, checkpoint-<epoch>:
//
//	"filecule-ckpt/v1\n"
//	'H' header chunk: uvarint epoch, observed, next-gen, group count,
//	                  total file count
//	'G' group chunks: uvarint record count, then one core.AppendStateGroup
//	                  record per group (16-byte LE signature, uvarint
//	                  request count, run-encoded sorted member file list)
//	'E' end chunk:    uvarint group count (cross-check; its presence proves
//	                  the file is complete)
//
// Groups appear in canonical order (by smallest member file), so two
// checkpoints of the same engine state are byte-identical. Files are
// written to a .tmp sibling, fsynced, renamed into place, and the directory
// fsynced — a visible checkpoint is always complete, which is why recovery
// treats a malformed one as real corruption rather than a crash artifact.
//
// Checkpoints are incremental at the encode level: the writer caches each
// group's encoded record keyed by (signature, stamp) — the engine stamps a
// group with the version it was materialized at and reuses materializations
// for groups no observe touched — so a steady-state checkpoint re-encodes
// only dirty groups and memcpys the rest. The file itself stays
// self-contained: recovery never chains deltas.

const ckptMagic = "filecule-ckpt/v1\n"

const (
	ckptKindHeader = 'H'
	ckptKindGroups = 'G'
	ckptKindEnd    = 'E'
)

// maxStateFiles bounds the total file count a checkpoint may declare
// (allocation guard; ~16M files is an order of magnitude beyond the paper's
// DZero catalog).
const maxStateFiles = 1 << 24

// ckptGroupChunkBytes is the target size of one 'G' chunk.
const ckptGroupChunkBytes = 1 << 18

// groupKey identifies one group's encoded bytes across checkpoints.
type groupKey struct {
	sigLo, sigHi, stamp uint64
}

// ckptStats reports what one checkpoint wrote.
type ckptStats struct {
	groups  int
	reused  int // groups whose encoded record came from the cache
	bytes   int64
	observe int64
}

// writeCheckpoint writes dir/checkpoint-<epoch> atomically. cache holds the
// previous checkpoint's encoded records; the returned map holds this one's
// (stale entries dropped).
func writeCheckpoint(dir string, epoch uint64, st *core.EngineState, cache map[groupKey][]byte) (map[groupKey][]byte, ckptStats, error) {
	stats := ckptStats{groups: len(st.Groups), observe: st.Observed}
	path := ckptPath(dir, epoch)
	totalFiles := 0
	for i := range st.Groups {
		totalFiles += len(st.Groups[i].Files)
	}
	// A checkpoint recovery would refuse is not written: the WAL chain
	// behind the previous one stays, and keeps the state.
	if totalFiles > maxStateFiles {
		return cache, stats, fmt.Errorf("durable: write %s: %d files, past the %d a checkpoint may hold", path, totalFiles, maxStateFiles)
	}
	next := make(map[groupKey][]byte, len(st.Groups))

	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return cache, stats, err
	}
	// cw counts bytes so stats.bytes needs no Stat call.
	bw := bufio.NewWriterSize(f, 1<<20)
	cw := &countWriter{w: bw}
	fail := func(err error) (map[groupKey][]byte, ckptStats, error) {
		f.Close()
		os.Remove(tmp)
		return cache, stats, fmt.Errorf("durable: write %s: %w", path, err)
	}

	if _, err := io.WriteString(cw, ckptMagic); err != nil {
		return fail(err)
	}
	hdr := []byte{ckptKindHeader}
	hdr = binary.AppendUvarint(hdr, epoch)
	hdr = binary.AppendUvarint(hdr, uint64(st.Observed))
	hdr = binary.AppendUvarint(hdr, st.NextGen)
	hdr = binary.AppendUvarint(hdr, uint64(len(st.Groups)))
	hdr = binary.AppendUvarint(hdr, uint64(totalFiles))
	if err := trace.WriteChunk(cw, hdr); err != nil {
		return fail(err)
	}

	chunk := []byte{ckptKindGroups, 0} // count patched per flush
	var pending [][]byte
	flushGroups := func() error {
		if len(pending) == 0 {
			return nil
		}
		payload := chunk[:1]
		payload = binary.AppendUvarint(payload, uint64(len(pending)))
		for _, rec := range pending {
			payload = append(payload, rec...)
		}
		pending = pending[:0]
		return trace.WriteChunk(cw, payload)
	}
	chunkBytes := 0
	for i := range st.Groups {
		g := &st.Groups[i]
		key := groupKey{sigLo: g.SigLo, sigHi: g.SigHi, stamp: g.Stamp}
		rec, ok := cache[key]
		if ok {
			stats.reused++
		} else {
			rec = core.AppendStateGroup(nil, g)
		}
		next[key] = rec
		pending = append(pending, rec)
		chunkBytes += len(rec)
		if chunkBytes >= ckptGroupChunkBytes {
			if err := flushGroups(); err != nil {
				return fail(err)
			}
			chunkBytes = 0
		}
	}
	if err := flushGroups(); err != nil {
		return fail(err)
	}
	end := []byte{ckptKindEnd}
	end = binary.AppendUvarint(end, uint64(len(st.Groups)))
	if err := trace.WriteChunk(cw, end); err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return cache, stats, err
	}
	if err := syncDir(dir); err != nil {
		return cache, stats, err
	}
	stats.bytes = cw.n
	return next, stats, nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// loadCheckpoint reads dir/checkpoint-<epoch> and imports it into a fresh
// engine — the whole validation a checkpoint gets, for recovery and for the
// dump alike. A checkpoint that fails it is skipped, never repaired.
func loadCheckpoint(dir string, epoch uint64) (*core.Engine, *core.EngineState, error) {
	path := ckptPath(dir, epoch)
	st, err := readCheckpoint(path, epoch)
	if err != nil {
		return nil, nil, err
	}
	eng := core.NewEngine(0)
	if err := eng.ImportState(st); err != nil {
		return nil, nil, fmt.Errorf("durable: %s: %w", path, err)
	}
	return eng, st, nil
}

// readCheckpoint decodes dir/checkpoint-<epoch> and checks its framing,
// counts and bounds. Any malformation — bad magic, torn or corrupt chunk,
// count mismatch, missing end chunk — is an error; checkpoints are atomic, so
// there is no tail to salvage.
func readCheckpoint(path string, wantEpoch uint64) (*core.EngineState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := decodeCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("durable: %s: %w", path, err)
	}
	if st.epoch != wantEpoch {
		return nil, fmt.Errorf("durable: %s: header epoch %d, want %d", path, st.epoch, wantEpoch)
	}
	return st.EngineState, nil
}

// ckptState is a decoded checkpoint plus its header epoch.
type ckptState struct {
	*core.EngineState
	epoch uint64
}

// decodeCheckpoint parses a checkpoint stream. Structural validation
// (strictly sorted member lists, disjoint groups, distinct signatures) is
// ImportState's job; this layer enforces the framing, counts and bounds.
func decodeCheckpoint(r io.Reader) (*ckptState, error) {
	cr, p, err := trace.OpenChunks(r, ckptMagic, ckptKindHeader)
	if err != nil {
		return nil, err
	}
	epoch := p.Uvarint()
	observed := p.Uvarint()
	nextGen := p.Uvarint()
	nGroups := p.Uvarint()
	totalFiles := p.Uvarint()
	if p.Err() == nil && p.Remaining() != 0 {
		p.Fail("%d bytes after header fields", p.Remaining())
	}
	if p.Err() != nil {
		return nil, &trace.ChunkError{Kind: ckptKindHeader, Err: fmt.Errorf("malformed header: %v", p.Err())}
	}
	if observed > 1<<62 {
		return nil, fmt.Errorf("header observed count %d out of range", observed)
	}
	if totalFiles > maxStateFiles {
		return nil, fmt.Errorf("header declares %d files (max %d)", totalFiles, maxStateFiles)
	}
	if nGroups > totalFiles {
		return nil, fmt.Errorf("header declares %d groups for %d files", nGroups, totalFiles)
	}

	st := &ckptState{
		EngineState: &core.EngineState{
			Observed: int64(observed),
			NextGen:  nextGen,
			Groups:   make([]core.StateGroup, 0, nGroups),
		},
		epoch: epoch,
	}
	filesLeft := int(totalFiles)
	for {
		boundary := cr.Offset()
		kind, payload, err := cr.ReadChunk()
		if err == io.EOF {
			return nil, fmt.Errorf("truncated checkpoint (missing end chunk): %w", io.ErrUnexpectedEOF)
		}
		if err != nil {
			return nil, err
		}
		switch kind {
		case ckptKindGroups:
			p := trace.NewPayload(payload)
			st.Groups = core.ReadStateGroups(p, st.Groups, trace.FileIDCeiling, &filesLeft)
			if p.Err() != nil {
				return nil, &trace.ChunkError{Offset: boundary, Kind: kind, Err: p.Err()}
			}
			if uint64(len(st.Groups)) > nGroups {
				return nil, fmt.Errorf("more than the declared %d groups", nGroups)
			}
		case ckptKindEnd:
			p := trace.NewPayload(payload)
			declared := p.Uvarint()
			if p.Err() != nil || p.Remaining() != 0 {
				return nil, &trace.ChunkError{Offset: boundary, Kind: kind, Err: fmt.Errorf("malformed end chunk")}
			}
			if declared != uint64(len(st.Groups)) || declared != nGroups {
				return nil, fmt.Errorf("end chunk declares %d groups, header %d, stream had %d", declared, nGroups, len(st.Groups))
			}
			if filesLeft != 0 {
				return nil, fmt.Errorf("header declares %d files, groups carry %d", totalFiles, int(totalFiles)-filesLeft)
			}
			if _, _, err := cr.ReadChunk(); err != io.EOF {
				return nil, fmt.Errorf("data after end chunk")
			}
			return st, nil
		case ckptKindHeader:
			return nil, fmt.Errorf("duplicate header chunk")
		default:
			return nil, &trace.ChunkError{Offset: boundary, Kind: kind, Err: fmt.Errorf("unknown chunk kind")}
		}
	}
}

func ckptPath(dir string, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("checkpoint-%d", epoch))
}

func walPath(dir string, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%d", epoch))
}
