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
// stub makes every mmap attempt fall back to streaming, which the fallback
// tests cover; the tests that need the mapped fast path skip).
func mmapWorks(t *testing.T) bool {
	t.Helper()
	f, err := os.Open(writeBinFile(t, buildManyJobs(t, 10)))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data := tryMap(f)
	if data == nil {
		return false
	}
	munmapFile(data)
	return true
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

// TestMapSourceMatchesBinSource: ReadFile's mapped fill and the streamed
// BinSource must yield identical traces job for job, and re-encoding the
// mapped decode must reproduce the input bytes.
func TestMapSourceMatchesBinSource(t *testing.T) {
	if !mmapWorks(t) {
		t.Skip("mmap unavailable on this platform")
	}
	tr := buildManyJobs(t, 3*binChunkJobs+77)
	var buf bytes.Buffer
	if err := WriteBin(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(writeFile(t, buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !reflect.DeepEqual(got.Files, tr.Files) || !reflect.DeepEqual(got.Users, tr.Users) ||
		!reflect.DeepEqual(got.Sites, tr.Sites) {
		t.Error("mapped catalogs differ from the encoded trace")
	}

	streamed, err := NewBinSource(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer streamed.Close()
	for i := 0; ; i++ {
		sj, err := streamed.Next()
		if err == io.EOF {
			if i != len(got.Jobs) {
				t.Fatalf("streamed %d jobs, mapped %d", i, len(got.Jobs))
			}
			break
		}
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if i >= len(got.Jobs) || !reflect.DeepEqual(got.Jobs[i], CloneJob(sj)) {
			t.Fatalf("job %d differs from the streamed decode", i)
		}
	}

	var buf2 bytes.Buffer
	if err := WriteBin(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("re-encode of mapped decode is not byte-identical to the input")
	}
}

// TestReadMapSerialParallelEqual runs ReadFile's mapped fill with one worker
// and with four (GOMAXPROCS selects) and pins both to the encoded trace.
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
		t.Error("one worker and four decode differently")
	}
	if !reflect.DeepEqual(serial, tr) {
		t.Error("mapped decode does not round-trip the trace")
	}
}

// TestOpenFallsBack pins the fallback matrix: text files, gzip framing,
// and non-regular files all stream through both Open and ReadFile; only
// regular bin files are mapped, and only by ReadFile.
func TestOpenFallsBack(t *testing.T) {
	tr := buildManyJobs(t, 200)

	check := func(t *testing.T, path string) {
		src, err := Open(path)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer src.Close()
		got, err := Materialize(src)
		if err != nil {
			t.Fatalf("Materialize: %v", err)
		}
		if len(got.Jobs) != len(tr.Jobs) {
			t.Errorf("Open: got %d jobs, want %d", len(got.Jobs), len(tr.Jobs))
		}
		if got, err = ReadFile(path); err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		if len(got.Jobs) != len(tr.Jobs) {
			t.Errorf("ReadFile: got %d jobs, want %d", len(got.Jobs), len(tr.Jobs))
		}
	}

	t.Run("text", func(t *testing.T) {
		var buf bytes.Buffer
		if err := writeText(&buf, tr); err != nil {
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
		if data := tryMap(r); data != nil {
			munmapFile(data)
			t.Fatal("tryMap mapped a pipe")
		}
		got, err := ReadAuto(r)
		if err != nil {
			t.Fatalf("ReadAuto after declined map: %v", err)
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
		if _, err := ReadFile(path); err == nil {
			t.Fatal("ReadFile(empty) succeeded")
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
