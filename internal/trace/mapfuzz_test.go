package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzMmapDecode differentially fuzzes ReadFile against ReadAuto over
// arbitrary bytes written to a real file. A file that starts with the bin
// magic takes ReadFile's mapped fast path, which falls back to the streamed
// decoder on anything it cannot fill, so the two must agree exactly: the same
// trace, or the same error text behind the file's path. A trace either
// returns must pass Validate.
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
	f.Add(lateCRCFault(f)) // released pages read again by the fallback

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "fuzz.bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(path)
		want, werr := ReadAuto(bytes.NewReader(data))
		if (err == nil) != (werr == nil) {
			t.Fatalf("accept/reject divergence: ReadFile err %v, ReadAuto err %v", err, werr)
		}
		if err != nil {
			if err.Error() != path+": "+werr.Error() {
				t.Fatalf("ReadFile says %q, ReadAuto %q", err, werr)
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("ReadFile and ReadAuto accept but disagree")
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("ReadFile returned a trace that fails Validate: %v", err)
		}
	})
}
