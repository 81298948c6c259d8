package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func TestChunkRoundTripAndOffsets(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{
		append([]byte{'H'}, bytes.Repeat([]byte{0xab}, 10)...),
		{'G'},
		append([]byte{'E'}, bytes.Repeat([]byte{0x01}, 300)...),
	}
	var appended []byte
	for _, p := range payloads {
		if err := WriteChunk(&buf, p); err != nil {
			t.Fatalf("WriteChunk: %v", err)
		}
		appended = AppendChunk(appended, p)
	}
	if !bytes.Equal(appended, buf.Bytes()) {
		t.Fatalf("AppendChunk and WriteChunk frame differently:\n%x\n%x", appended, buf.Bytes())
	}
	cr := NewChunkReader(bytes.NewReader(buf.Bytes()))
	var lastOff int64
	for i, want := range payloads {
		kind, got, err := cr.ReadChunk()
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if kind != want[0] || !bytes.Equal(got, want) {
			t.Fatalf("chunk %d: kind %q payload %d bytes, want kind %q %d bytes", i, kind, len(got), want[0], len(want))
		}
		if cr.Offset() <= lastOff {
			t.Fatalf("chunk %d: offset %d did not advance past %d", i, cr.Offset(), lastOff)
		}
		lastOff = cr.Offset()
	}
	if lastOff != int64(buf.Len()) {
		t.Fatalf("final offset %d, want stream length %d", lastOff, buf.Len())
	}
	if _, _, err := cr.ReadChunk(); err != io.EOF {
		t.Fatalf("at clean boundary got %v, want io.EOF", err)
	}
}

// OpenChunks is the shared opening of the state formats: the magic line, then
// a first chunk of the header kind, and nothing else.
func TestOpenChunks(t *testing.T) {
	const magic = "filecule-test/v1\n"
	stream := AppendChunk(AppendChunk([]byte(magic), []byte{'H', 7, 9}), []byte{'G', 1})
	cr, p, err := OpenChunks(bytes.NewReader(stream), magic, 'H')
	if err != nil {
		t.Fatal(err)
	}
	if a, b := p.Uvarint(), p.Uvarint(); a != 7 || b != 9 || p.Err() != nil || p.Remaining() != 0 {
		t.Fatalf("header fields %d, %d (err %v, %d left), want 7, 9", a, b, p.Err(), p.Remaining())
	}
	if kind, _, err := cr.ReadChunk(); err != nil || kind != 'G' {
		t.Fatalf("chunk after the header: kind %q, err %v", kind, err)
	}
	if cr.Offset() != int64(len(stream)-len(magic)) {
		t.Fatalf("offset %d is not relative to the end of the magic (%d bytes follow it)", cr.Offset(), len(stream)-len(magic))
	}

	flipped := append([]byte(nil), stream...)
	flipped[len(magic)+2] ^= 1 // inside the header payload: CRC fails
	for name, in := range map[string][]byte{
		"empty":            nil,
		"short magic":      stream[:5],
		"wrong magic":      append([]byte("filecule-tset/v1\n"), stream[len(magic):]...),
		"magic only":       stream[:len(magic)],
		"torn header":      stream[:len(magic)+3],
		"corrupt header":   flipped,
		"wrong first kind": stream,
	} {
		kind := byte('H')
		if name == "wrong first kind" {
			kind = 'A'
		}
		if _, _, err := OpenChunks(bytes.NewReader(in), magic, kind); err == nil {
			t.Errorf("%s: opened", name)
		}
	}
}

// A frame cut short anywhere — inside the length prefix, payload, or CRC —
// must classify as torn at the last good boundary; flipped payload bytes
// must not.
func TestChunkTornVsCorrupt(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChunk(&buf, append([]byte{'A'}, bytes.Repeat([]byte{7}, 200)...)); err != nil {
		t.Fatal(err)
	}
	whole := buf.Len()
	if err := WriteChunk(&buf, append([]byte{'B'}, bytes.Repeat([]byte{9}, 200)...)); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()

	for cut := whole + 1; cut < len(stream); cut++ {
		cr := NewChunkReader(bytes.NewReader(stream[:cut]))
		if _, _, err := cr.ReadChunk(); err != nil {
			t.Fatalf("cut=%d: first chunk: %v", cut, err)
		}
		_, _, err := cr.ReadChunk()
		var ce *ChunkError
		if !errors.As(err, &ce) {
			t.Fatalf("cut=%d: got %v, want *ChunkError", cut, err)
		}
		if !ce.Torn() {
			t.Fatalf("cut=%d: error %v not classified as torn", cut, ce)
		}
		// Unwrap hands the cause on, so errors.Is sees the truncation
		// without naming ChunkError.
		if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, errTornLength) {
			t.Fatalf("cut=%d: errors.Is does not reach the cause of %v", cut, err)
		}
		if ce.Offset != int64(whole) {
			t.Fatalf("cut=%d: torn offset %d, want %d", cut, ce.Offset, whole)
		}
		// The kind is reported once its byte has arrived, and not before: a
		// frame cut right after its two-byte length prefix must not inherit
		// 'A' from the reused payload buffer.
		wantKind := byte(0)
		if cut > whole+2 {
			wantKind = 'B'
		}
		if ce.Kind != wantKind {
			t.Fatalf("cut=%d: torn chunk kind %q, want %q", cut, ce.Kind, wantKind)
		}
		// The mapped frame walker must not take the torn frame either.
		mapped := append([]byte(binMagic), stream[:cut]...)
		if _, _, _, ok := mapFrame(mapped, len(binMagic)+whole); ok {
			t.Fatalf("cut=%d: mapped frame walker accepted a torn frame", cut)
		}
	}

	// Flip one payload byte of the second chunk: corrupt, not torn.
	bad := append([]byte(nil), stream...)
	bad[whole+5] ^= 0xff
	cr := NewChunkReader(bytes.NewReader(bad))
	if _, _, err := cr.ReadChunk(); err != nil {
		t.Fatal(err)
	}
	_, _, err := cr.ReadChunk()
	var ce *ChunkError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v, want *ChunkError", err)
	}
	if ce.Torn() {
		t.Fatalf("CRC mismatch %v wrongly classified as torn", ce)
	}
	if ce.Kind != 'B' {
		t.Fatalf("corrupt chunk kind %q, want 'B'", ce.Kind)
	}
}

func TestChunkRejectsOversizedLength(t *testing.T) {
	// A hand-built frame declaring a payload beyond MaxChunkPayload must be
	// rejected without allocating it.
	frame := binary.AppendUvarint(nil, uint64(MaxChunkPayload)+1)
	cr := NewChunkReader(bytes.NewReader(frame))
	_, _, err := cr.ReadChunk()
	var ce *ChunkError
	if !errors.As(err, &ce) || ce.Torn() {
		t.Fatalf("got %v, want non-torn *ChunkError", err)
	}
}

func TestPayloadFileRunsBounds(t *testing.T) {
	ids := []FileID{3, 4, 5, 9, 2, 2}
	enc := AppendFileRuns([]byte{'X'}, ids)
	got := NewPayload(enc).FileRuns(nil, 10, len(ids))
	if len(got) != len(ids) {
		t.Fatalf("decoded %d ids, want %d", len(got), len(ids))
	}
	for i := range ids {
		if got[i] != ids[i] {
			t.Fatalf("id[%d] = %d, want %d", i, got[i], ids[i])
		}
	}

	// Out-of-range ID rejected.
	p := NewPayload(enc)
	p.FileRuns(nil, 9, len(ids))
	if p.Err() == nil {
		t.Fatal("maxID=9 accepted id 9")
	}
	// Length cap rejected.
	p = NewPayload(enc)
	p.FileRuns(nil, 10, len(ids)-1)
	if p.Err() == nil {
		t.Fatal("maxLen below list length accepted")
	}
}

func TestPayloadUint64(t *testing.T) {
	enc := AppendUint64([]byte{'X'}, 0xdeadbeefcafef00d)
	p := NewPayload(enc)
	if v := p.Uint64(); v != 0xdeadbeefcafef00d || p.Err() != nil {
		t.Fatalf("got %x err %v", v, p.Err())
	}
	if p.Remaining() != 0 {
		t.Fatalf("remaining %d, want 0", p.Remaining())
	}
	p.Uint64()
	if p.Err() == nil {
		t.Fatal("short read not flagged")
	}
}
