package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"filecule/internal/core"
	"filecule/internal/trace"
)

// seedJobs is a small workload whose encoded state seeds both fuzzers.
var seedJobs = [][]trace.FileID{
	{1, 2, 3},
	{2, 3},
	{7, 8, 9, 10},
	{1, 2, 3},
	{100, 200, 300},
	{7, 9},
}

// seedCheckpointBytes writes a real checkpoint for seedJobs and returns the
// file's bytes.
func seedCheckpointBytes(f *testing.F, epoch uint64) []byte {
	f.Helper()
	eng := core.NewEngine(0)
	for _, j := range seedJobs {
		eng.Observe(j)
	}
	dir := f.TempDir()
	if _, _, err := writeCheckpoint(dir, epoch, eng.ExportState(), nil); err != nil {
		f.Fatal(err)
	}
	b, err := os.ReadFile(ckptPath(dir, epoch))
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// FuzzCheckpoint feeds arbitrary bytes through the checkpoint decoder. The
// decoder must never panic, and anything it accepts that the engine imports
// must re-encode to an equivalent checkpoint (decode → import → export →
// encode → decode is a fixpoint).
func FuzzCheckpoint(f *testing.F) {
	valid := seedCheckpointBytes(f, 3)
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add(valid[:len(ckptMagic)+2])
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/2] ^= 0x20
	f.Add(corrupt)
	f.Add([]byte(ckptMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		eng := core.NewEngine(0)
		if err := eng.ImportState(st.EngineState); err != nil {
			return
		}
		out := eng.ExportState()
		dir := t.TempDir()
		if _, _, err := writeCheckpoint(dir, st.epoch, out, nil); err != nil {
			t.Fatalf("re-encode accepted state: %v", err)
		}
		back, err := readCheckpoint(ckptPath(dir, st.epoch), st.epoch)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if back.Observed != out.Observed || back.NextGen != out.NextGen || len(back.Groups) != len(out.Groups) {
			t.Fatalf("round trip drifted: observed %d/%d nextGen %d/%d groups %d/%d",
				back.Observed, out.Observed, back.NextGen, out.NextGen, len(back.Groups), len(out.Groups))
		}
		for i := range back.Groups {
			a, b := &back.Groups[i], &out.Groups[i]
			if a.SigLo != b.SigLo || a.SigHi != b.SigHi || a.Requests != b.Requests || len(a.Files) != len(b.Files) {
				t.Fatalf("group %d drifted: %+v vs %+v", i, a, b)
			}
			for k := range a.Files {
				if a.Files[k] != b.Files[k] {
					t.Fatalf("group %d file %d drifted: %d vs %d", i, k, a.Files[k], b.Files[k])
				}
			}
		}
	})
}

// seedWalBytes writes a real two-batch WAL for seedJobs and returns the
// file's bytes.
func seedWalBytes(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	wf, path, err := createWalFile(dir, 0, 0)
	if err != nil {
		f.Fatal(err)
	}
	w := newWAL(wf, path, true, 0)
	if err := w.AppendBatch(seedJobs[:3]); err != nil {
		f.Fatal(err)
	}
	if err := w.AppendBatch(seedJobs[3:]); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// FuzzWAL feeds arbitrary bytes through WAL replay. Replay must never panic,
// and whenever it reports a bad tail with a valid-to boundary, truncating at
// that boundary must yield a log that replays cleanly with the same jobs —
// the exact contract crash recovery relies on.
func FuzzWAL(f *testing.F) {
	valid := seedWalBytes(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:len(walMagic)+1])
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-10] ^= 0x04
	f.Add(corrupt)
	f.Add([]byte(walMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal-0")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		seg, err := walReplay(path, 0, 0, func(files []trace.FileID) {
			if len(files) > trace.MaxJobFiles {
				t.Fatalf("applied job with %d files, above trace.MaxJobFiles", len(files))
			}
		})
		if err == nil {
			if seg.validTo != int64(len(data)) {
				t.Fatalf("clean replay of %d bytes reported boundary %d", len(data), seg.validTo)
			}
			return
		}
		if seg.validTo == 0 {
			// Nothing was scanned. Either the header could not be read, and
			// recovery recreates the file; or it parsed and names another
			// epoch or base, and recovery aborts. Nothing else may end a
			// replay before the first 'O' chunk.
			_, p, herr := trace.OpenChunks(bytes.NewReader(data), walMagic, walKindHeader)
			var epoch, base uint64
			if herr == nil {
				epoch, base = p.Uvarint(), p.Uvarint()
			}
			readable := herr == nil && p.Err() == nil && p.Remaining() == 0
			switch {
			case errors.Is(err, errNoWalHeader) && !readable:
			case !errors.Is(err, errNoWalHeader) && readable && (epoch != 0 || base != 0):
			default:
				t.Fatalf("replay ended before the first chunk with %v (errNoWalHeader: %v) on a header that is readable: %v, epoch %d, base %d",
					err, errors.Is(err, errNoWalHeader), readable, epoch, base)
			}
			return
		}
		if seg.validTo < int64(len(walMagic)) || seg.validTo >= int64(len(data)) {
			t.Fatalf("valid-to boundary %d outside file of %d bytes", seg.validTo, len(data))
		}
		if err := os.Truncate(path, seg.validTo); err != nil {
			t.Fatal(err)
		}
		seg2, err2 := walReplay(path, 0, 0, func([]trace.FileID) {})
		if err2 != nil {
			t.Fatalf("replay after truncating at reported boundary %d: %v", seg.validTo, err2)
		}
		if seg2.validTo != seg.validTo || seg2.Jobs != seg.Jobs {
			t.Fatalf("truncated replay drifted: %d jobs (boundary %d), want %d", seg2.Jobs, seg2.validTo, seg.Jobs)
		}
	})
}
