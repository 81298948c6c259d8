package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzBinRoundTrip checks that the binary codec never panics on arbitrary
// input and that anything it accepts round-trips stably: every trace a
// decoder returns passes Validate (the streaming BinSource runs no Validate
// pass, so its chunk checks must cover every condition), a decoded trace
// re-encodes, the re-encoding decodes to the same trace (through both the
// serial materialiser and the streaming BinSource), and a second
// re-encoding is byte-identical to the first — the encoder is a canonical
// function of the job stream regardless of the input's chunking.
func FuzzBinRoundTrip(f *testing.F) {
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
	f.Add(seed.Bytes()[:len(seed.Bytes())/2])
	corrupted := append([]byte(nil), seed.Bytes()...)
	corrupted[len(corrupted)/2] ^= 0x10
	f.Add(corrupted)

	f.Fuzz(func(t *testing.T, data []byte) {
		t1, err := ReadBin(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics and OOMs are not
		}
		if err := t1.Validate(); err != nil {
			t.Fatalf("accepted trace fails Validate: %v", err)
		}
		var enc1 bytes.Buffer
		if err := WriteBin(&enc1, t1); err != nil {
			t.Fatalf("accepted trace fails WriteBin: %v", err)
		}
		t2, err := ReadBin(bytes.NewReader(enc1.Bytes()))
		if err != nil {
			t.Fatalf("re-decode of encoded trace failed: %v", err)
		}
		src, err := NewBinSource(bytes.NewReader(enc1.Bytes()))
		if err != nil {
			t.Fatalf("streaming open of encoded trace failed: %v", err)
		}
		t3, err := Materialize(src)
		if err != nil {
			t.Fatalf("streaming decode of encoded trace failed: %v", err)
		}
		for _, dec := range []*Trace{t2, t3} {
			if err := dec.Validate(); err != nil {
				t.Fatalf("decoded trace fails Validate: %v", err)
			}
		}
		if !reflect.DeepEqual(t2, t3) {
			t.Fatal("materialising and streaming decoders disagree")
		}
		var enc2 bytes.Buffer
		if err := WriteBin(&enc2, t2); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
			t.Fatal("bin codec not stable across encode->decode->encode")
		}
	})
}
