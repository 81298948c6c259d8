package trace

import (
	"bytes"
	"compress/gzip"
	"io"
	"reflect"
	"testing"
)

// writeGzip serializes t in the v1 text format, gzip-compressed: the input
// the format sniffer is tested with. No tool writes gzip; operators do.
func writeGzip(w io.Writer, t *Trace) error {
	zw := gzip.NewWriter(w)
	if err := writeText(zw, t); err != nil {
		zw.Close()
		return err
	}
	return zw.Close()
}

func TestGzipRoundTrip(t *testing.T) {
	tr := smallTrace(t)
	var buf bytes.Buffer
	if err := writeGzip(&buf, tr); err != nil {
		t.Fatalf("writeGzip: %v", err)
	}
	got, err := ReadAuto(&buf)
	if err != nil {
		t.Fatalf("ReadAuto(gzip): %v", err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Error("gzip round trip mismatch")
	}
}

func TestReadAutoPlain(t *testing.T) {
	tr := smallTrace(t)
	var buf bytes.Buffer
	if err := writeText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAuto(&buf)
	if err != nil {
		t.Fatalf("ReadAuto(plain): %v", err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Error("plain round trip mismatch")
	}
}

func TestGzipActuallyCompresses(t *testing.T) {
	tr := smallTrace(t)
	var plain, packed bytes.Buffer
	writeText(&plain, tr)
	writeGzip(&packed, tr)
	if packed.Len() >= plain.Len() {
		t.Errorf("gzip output %d >= plain %d", packed.Len(), plain.Len())
	}
}

func TestReadAutoRejectsGarbage(t *testing.T) {
	if _, err := ReadAuto(bytes.NewReader([]byte{0x1f, 0x8b, 0xff})); err == nil {
		t.Error("corrupt gzip accepted")
	}
	if _, err := ReadAuto(bytes.NewReader([]byte("not a trace"))); err == nil {
		t.Error("garbage accepted")
	}
}

func FuzzRead(f *testing.F) {
	tr := &Trace{}
	b := NewBuilder()
	s := b.Site("s", ".gov", 1)
	u := b.User("u", s)
	fid := b.File("f", 100, TierThumbnail)
	b.SimpleJob(u, s, t0, []FileID{fid})
	tr = b.Build()
	var buf bytes.Buffer
	writeText(&buf, tr)
	f.Add(buf.Bytes())
	f.Add([]byte(formatHeader + "\nF 0 f 10 raw\n"))
	f.Add([]byte(formatHeader + "\nJ 0 0 0 n raw analysis a v 0 1 1 0\n"))
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			return // malformed input must error, not panic
		}
		// Anything accepted must satisfy the model invariants and
		// round-trip identically.
		if vErr := got.Validate(); vErr != nil {
			t.Fatalf("Read accepted invalid trace: %v", vErr)
		}
		var out bytes.Buffer
		if wErr := writeText(&out, got); wErr != nil {
			return // names with exotic bytes may be unwritable; fine
		}
		again, err := Read(&out)
		if err != nil {
			t.Fatalf("round trip of accepted trace failed: %v", err)
		}
		if len(again.Jobs) != len(got.Jobs) || len(again.Files) != len(got.Files) {
			t.Fatal("round trip changed the trace")
		}
	})
}
