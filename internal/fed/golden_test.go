package fed

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"filecule/internal/core"
	"filecule/internal/trace"
)

// TestGoldenWireBytes pins the filecule-fed/v1 byte format. The files under
// testdata/golden were encoded from this fixed state at the commit before the
// group-record codec and the frame appender were shared with the checkpoint:
// the encoders must still produce exactly those bytes and the decoders must
// read them back to the same messages.
func TestGoldenWireBytes(t *testing.T) {
	st := &core.EngineState{
		Observed: 1234,
		NextGen:  77,
		Version:  300,
		Groups: []core.StateGroup{
			{SigLo: 0x0123456789abcdef, SigHi: 0xfedcba9876543210, Requests: 3, Files: []trace.FileID{1, 2, 3, 10, 11, 500}, Stamp: 300},
			{SigLo: 2, SigHi: 0, Requests: 1, Files: []trace.FileID{4}, Stamp: 12},
			{SigLo: 1 << 63, SigHi: 1, Requests: 200000, Files: []trace.FileID{100000, 100001, 2000000000}, Stamp: 150},
		},
	}
	const inc = 0x1122334455667788
	full := buildDelta("fnal", inc, 0, st)
	partial := buildDelta("fnal", inc, 100, st)
	heartbeat := buildDelta("fnal", inc, st.Version, st)
	reply := &ack{Site: "cern", Held: 300, Status: ackCurrent}

	golden := func(name string, got []byte) []byte {
		t.Helper()
		want, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoded %d bytes that differ from the %d golden bytes", name, len(got), len(want))
		}
		return want
	}
	for name, d := range map[string]*delta{"delta-full": full, "delta-partial": partial, "delta-heartbeat": heartbeat} {
		back, err := decodeDelta(golden(name, encodeDelta(d)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Stamps are not carried on the wire, and an empty list decodes as
		// empty, not nil.
		want := *d
		want.Records = append([]core.StateGroup{}, d.Records...)
		for i := range want.Records {
			want.Records[i].Stamp = 0
		}
		want.Live = append([]sigKey{}, d.Live...)
		if !reflect.DeepEqual(back, &want) {
			t.Errorf("%s decoded to %+v, want %+v", name, back, &want)
		}
	}
	back, err := decodeAck(golden("ack", encodeAck(reply)))
	if err != nil {
		t.Fatal(err)
	}
	if *back != *reply {
		t.Errorf("ack decoded to %+v, want %+v", back, reply)
	}
}

// TestGoldenLargeDeltaHash pins where a delta too large for one chunk is cut:
// the 'G' and 'L' chunk boundaries are part of the byte format. The digest was
// recorded at the same commit as testdata/golden.
func TestGoldenLargeDeltaHash(t *testing.T) {
	st := &core.EngineState{Observed: 90000, NextGen: 90001, Version: 50}
	for i := 0; i < 30000; i++ {
		st.Groups = append(st.Groups, core.StateGroup{
			SigLo:    uint64(i) * 0x9e3779b97f4a7c15,
			SigHi:    uint64(i),
			Requests: i%7 + 1,
			Files:    []trace.FileID{trace.FileID(3 * i), trace.FileID(3*i + 2)},
			Stamp:    uint64(i%50 + 1),
		})
	}
	d := buildDelta("fnal", 7, 10, st)
	b := encodeDelta(d)
	if len(b) < 3*fedChunkBytes {
		t.Fatalf("delta of %d bytes does not span several chunks", len(b))
	}
	const want = "5e66057cfda8502a751566bebd5dc3236abe4a6f4b5b77b043c02729493ba661"
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != want {
		t.Errorf("large delta digest %s, want %s", got, want)
	}
	back, err := decodeDelta(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != len(d.Records) || len(back.Live) != len(d.Live) {
		t.Fatalf("decoded %d records / %d live, want %d / %d", len(back.Records), len(back.Live), len(d.Records), len(d.Live))
	}
}
