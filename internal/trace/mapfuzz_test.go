package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzMmapDecode differentially fuzzes the mapped decode against the
// streamed one over arbitrary bytes written to a real file: both must
// accept exactly the same inputs (torn tails, truncation mid-varint, CRC
// corruption anywhere — all must be rejected by both or neither), and on
// acceptance the mapped trace must re-encode byte-identically to the
// streamed trace's re-encoding. Error wording may differ — the mapped
// path validates stream structure at open, the streamed path as it goes —
// but accept/reject must never diverge, or Open's substrate choice would
// change observable behavior.
func FuzzMmapDecode(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteBin(&seed, fuzzSeedTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	var empty bytes.Buffer
	if err := WriteBin(&empty, &Trace{}); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Add([]byte(binMagic))
	f.Add([]byte(""))
	f.Add(seed.Bytes()[:len(seed.Bytes())/2]) // torn tail
	corrupted := append([]byte(nil), seed.Bytes()...)
	corrupted[len(corrupted)/2] ^= 0x10 // CRC corruption mid-file
	f.Add(corrupted)
	var multi bytes.Buffer
	if err := WriteBin(&multi, buildManyJobs(f, 2*binChunkJobs+13)); err != nil {
		f.Fatal(err)
	}
	f.Add(multi.Bytes())

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "fuzz.bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// ReadAuto is the streamed reference: ReadFile promises the same
		// auto-detection (bin, text, gzip), differing only in substrate.
		mapped, merr := ReadFile(path)
		streamed, serr := ReadAuto(bytes.NewReader(data))
		if (merr == nil) != (serr == nil) {
			t.Fatalf("accept/reject divergence: mapped err %v, streamed err %v", merr, serr)
		}
		if merr != nil {
			return
		}
		if !reflect.DeepEqual(mapped, streamed) {
			t.Fatal("mapped and streamed decoders accept but disagree")
		}
		var encM, encS bytes.Buffer
		if err := WriteBin(&encM, mapped); err != nil {
			t.Fatalf("re-encode of mapped decode failed: %v", err)
		}
		if err := WriteBin(&encS, streamed); err != nil {
			t.Fatalf("re-encode of streamed decode failed: %v", err)
		}
		if !bytes.Equal(encM.Bytes(), encS.Bytes()) {
			t.Fatal("mapped and streamed decodes re-encode differently")
		}

		// The sequential mapped cursor must agree with the materializer.
		src, err := Open(path)
		if err != nil {
			t.Fatalf("Open accepted by ReadFile failed: %v", err)
		}
		defer src.Close()
		cursor, err := Materialize(src)
		if err != nil {
			t.Fatalf("cursor decode of accepted file failed: %v", err)
		}
		if !reflect.DeepEqual(cursor, mapped) {
			t.Fatal("mapped cursor and ReadMap disagree")
		}
	})
}
