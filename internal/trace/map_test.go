package trace

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// mmapWorks reports whether this platform actually maps files (the !unix
// stub makes every mmap attempt fall back to streaming, which the
// fallback tests cover; the mapped-path tests skip).
func mmapWorks(t *testing.T) bool {
	t.Helper()
	path := writeBinFile(t, buildManyJobs(t, 10))
	src, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer src.Close()
	return isMapped(src)
}

// isMapped reports whether src is the bin cursor over the mapped backing.
func isMapped(src Source) bool {
	bs, ok := src.(*BinSource)
	if !ok {
		return false
	}
	_, ok = bs.d.cur.(*mapCursor)
	return ok
}

func writeBinFile(t *testing.T, tr *Trace) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBin(&buf, tr); err != nil {
		t.Fatalf("WriteBin: %v", err)
	}
	return writeFile(t, buf.Bytes())
}

func writeFile(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMapSourceMatchesBinSource is the tentpole differential: the mapped
// cursor and the streamed decoder must yield byte-identical traces job
// for job, and re-encoding either must reproduce the input bytes.
func TestMapSourceMatchesBinSource(t *testing.T) {
	if !mmapWorks(t) {
		t.Skip("mmap unavailable on this platform")
	}
	tr := buildManyJobs(t, 3*binChunkJobs+77)
	var buf bytes.Buffer
	if err := WriteBin(&buf, tr); err != nil {
		t.Fatal(err)
	}
	path := writeFile(t, buf.Bytes())

	src, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer src.Close()
	if !isMapped(src) {
		t.Fatalf("Open returned %T, want the mapped cursor", src)
	}
	ms := src
	if !reflect.DeepEqual(ms.Files(), tr.Files) || !reflect.DeepEqual(ms.Users(), tr.Users) ||
		!reflect.DeepEqual(ms.Sites(), tr.Sites) {
		t.Error("mapped catalogs differ from the encoded trace")
	}

	streamed, err := NewBinSource(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer streamed.Close()
	for i := 0; ; i++ {
		mj, merr := ms.Next()
		sj, serr := streamed.Next()
		if (merr == nil) != (serr == nil) {
			t.Fatalf("job %d: mapped err %v, streamed err %v", i, merr, serr)
		}
		if merr == io.EOF {
			break
		}
		if merr != nil {
			t.Fatalf("job %d: %v", i, merr)
		}
		if !reflect.DeepEqual(CloneJob(mj), CloneJob(sj)) {
			t.Fatalf("job %d differs:\n mapped %+v\nstreamed %+v", i, mj, sj)
		}
	}

	// A materialized mapped decode must re-encode byte-identically.
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	var buf2 bytes.Buffer
	if err := WriteBin(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("re-encode of mapped decode is not byte-identical to the input")
	}
}

// TestReadMapSerialParallelEqual forces both ReadMap paths (GOMAXPROCS
// selects) and pins them to the streamed ReadBin result.
func TestReadMapSerialParallelEqual(t *testing.T) {
	if !mmapWorks(t) {
		t.Skip("mmap unavailable on this platform")
	}
	tr := buildManyJobs(t, 3*binChunkJobs+77)
	path := writeBinFile(t, tr)
	decodeAt := func(procs int) (*Trace, error) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return ReadFile(path)
	}
	serial, err := decodeAt(1)
	if err != nil {
		t.Fatalf("serial ReadFile: %v", err)
	}
	parallel, err := decodeAt(4)
	if err != nil {
		t.Fatalf("parallel ReadFile: %v", err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("serial and parallel ReadMap decode differently")
	}
	if !reflect.DeepEqual(serial, tr) {
		t.Error("mapped decode does not round-trip the trace")
	}
}

// TestOpenFallsBack pins the fallback matrix: text files, gzip framing,
// and non-regular files all stream; only regular bin files map.
func TestOpenFallsBack(t *testing.T) {
	tr := buildManyJobs(t, 200)

	check := func(t *testing.T, path string) {
		src, err := Open(path)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer src.Close()
		if isMapped(src) {
			t.Fatalf("Open(%s) took the mapped path, want streamed fallback", path)
		}
		got, err := Materialize(src)
		if err != nil {
			t.Fatalf("Materialize: %v", err)
		}
		if len(got.Jobs) != len(tr.Jobs) {
			t.Errorf("got %d jobs, want %d", len(got.Jobs), len(tr.Jobs))
		}
	}

	t.Run("text", func(t *testing.T) {
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatal(err)
		}
		check(t, writeFile(t, buf.Bytes()))
	})
	t.Run("gzip bin", func(t *testing.T) {
		var bin, gz bytes.Buffer
		if err := WriteBin(&bin, tr); err != nil {
			t.Fatal(err)
		}
		zw := gzip.NewWriter(&gz)
		if _, err := zw.Write(bin.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		check(t, writeFile(t, gz.Bytes()))
	})
	t.Run("pipe", func(t *testing.T) {
		// A pipe is the canonical non-regular file: tryMap must decline
		// without consuming any bytes, leaving the streamed decoder a
		// clean stream.
		var buf bytes.Buffer
		if err := WriteBin(&buf, tr); err != nil {
			t.Fatal(err)
		}
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		go func() {
			w.Write(buf.Bytes())
			w.Close()
		}()
		m, err := tryMap(r)
		if err != nil {
			t.Fatalf("tryMap(pipe): %v", err)
		}
		if m != nil {
			m.Close()
			t.Fatal("tryMap mapped a pipe")
		}
		src, err := NewSource(r)
		if err != nil {
			t.Fatalf("NewSource after declined map: %v", err)
		}
		defer src.Close()
		got, err := Materialize(src)
		if err != nil {
			t.Fatalf("Materialize: %v", err)
		}
		if len(got.Jobs) != len(tr.Jobs) {
			t.Errorf("got %d jobs, want %d", len(got.Jobs), len(tr.Jobs))
		}
	})
	t.Run("empty file", func(t *testing.T) {
		path := writeFile(t, nil)
		if _, err := Open(path); err == nil {
			t.Fatal("Open(empty) succeeded")
		}
	})
}

// TestReadFileRejectsCorruption mirrors TestBinRejectsCorruption on the
// mapped path: every corruption the streamed decoder rejects, the mapped
// decode must reject too.
func TestReadFileRejectsCorruption(t *testing.T) {
	tr := buildManyJobs(t, 300)
	var buf bytes.Buffer
	if err := WriteBin(&buf, tr); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	t.Run("bit flips", func(t *testing.T) {
		for _, off := range []int{len(binMagic) + 10, len(valid) / 2, len(valid) - 3} {
			bad := append([]byte(nil), valid...)
			bad[off] ^= 0x40
			if _, err := ReadFile(writeFile(t, bad)); err == nil {
				t.Errorf("corruption at offset %d accepted", off)
			}
		}
	})
	t.Run("truncation", func(t *testing.T) {
		for _, keep := range []int{len(valid) / 4, len(valid) / 2, len(valid) - 1} {
			if _, err := ReadFile(writeFile(t, valid[:keep])); err == nil {
				t.Errorf("truncation to %d bytes accepted", keep)
			}
		}
	})
	t.Run("missing end chunk", func(t *testing.T) {
		if _, err := ReadFile(writeFile(t, valid[:len(valid)-8])); err == nil ||
			!strings.Contains(err.Error(), "missing end chunk") {
			t.Errorf("missing end chunk: err = %v", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), valid...)
		bad[2] ^= 0xff
		if _, err := ReadFile(writeFile(t, bad)); err == nil {
			t.Error("bad magic accepted")
		}
	})
}

// TestMapSourceLazyCRC pins the first-touch checksum contract: a corrupt
// job chunk does not fail Open (only the structure walk and the catalog
// and end chunks are touched there) — it fails the cursor when the drain
// reaches it, with the same offset wording as the streamed decoder.
func TestMapSourceLazyCRC(t *testing.T) {
	if !mmapWorks(t) {
		t.Skip("mmap unavailable on this platform")
	}
	tr := buildManyJobs(t, 3*binChunkJobs+77)
	var buf bytes.Buffer
	if err := WriteBin(&buf, tr); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), buf.Bytes()...)
	bad[len(bad)/2] ^= 0x20 // lands in a middle job chunk
	path := writeFile(t, bad)

	src, err := Open(path)
	if err != nil {
		t.Fatalf("Open should defer job-chunk CRC to first touch, got: %v", err)
	}
	defer src.Close()
	if !isMapped(src) {
		t.Fatalf("Open returned %T, want the mapped cursor", src)
	}
	n := 0
	for {
		_, err := src.Next()
		if err == io.EOF {
			t.Fatal("corrupt stream drained cleanly")
		}
		if err != nil {
			if !strings.Contains(err.Error(), "CRC mismatch") {
				t.Fatalf("drain failed with %v, want CRC mismatch", err)
			}
			break
		}
		n++
	}
	if n == 0 || n >= len(tr.Jobs) {
		t.Errorf("drained %d jobs before the corrupt chunk, want a strict prefix", n)
	}

	// A second cursor over the same mapping must fail identically (the
	// verified ledger only latches successes).
	if _, err := ReadFile(path); err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Errorf("ReadFile over corrupt chunk: err = %v, want CRC mismatch", err)
	}
}

// TestMappingSharedCursors checks that several cursors can drain one
// Mapping independently and that decoded jobs survive Close.
func TestMappingSharedCursors(t *testing.T) {
	if !mmapWorks(t) {
		t.Skip("mmap unavailable on this platform")
	}
	tr := buildManyJobs(t, binChunkJobs+50)
	path := writeBinFile(t, tr)
	m, err := OpenMapping(path)
	if err != nil {
		t.Fatalf("OpenMapping: %v", err)
	}
	if m.Jobs() != int64(len(tr.Jobs)) {
		t.Errorf("Jobs() = %d, want %d", m.Jobs(), len(tr.Jobs))
	}
	a, b := m.Source(), m.Source()
	ja, err := a.Next()
	if err != nil {
		t.Fatal(err)
	}
	first := CloneJob(ja)
	got, err := Materialize(b) // drains b fully while a sits mid-chunk
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Error("second cursor decoded a different trace")
	}
	a.Close()
	b.Close()
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	// The cloned job must not alias the unmapped region.
	if !reflect.DeepEqual(first, tr.Jobs[0]) {
		t.Error("job decoded before Close is no longer intact")
	}
	// And the materialized trace must stay valid after unmap.
	if got.Jobs[len(got.Jobs)-1].ID != tr.Jobs[len(tr.Jobs)-1].ID {
		t.Error("materialized trace damaged by Close")
	}
}

// TestOpenMappingRejectsIneligible pins OpenMapping's explicit contract
// (no fallback).
func TestOpenMappingRejectsIneligible(t *testing.T) {
	tr := buildManyJobs(t, 50)
	var text bytes.Buffer
	if err := Write(&text, tr); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMapping(writeFile(t, text.Bytes())); err == nil {
		t.Error("OpenMapping mapped a text trace")
	}
	if _, err := OpenMapping(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Error("OpenMapping opened a missing file")
	}
}
