package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// The CRC32C chunk frame shared by every durable filecule byte format: the
// filecule-bin/v1 trace codec, the engine checkpoint files, the write-ahead
// observe log, and the federation exchange. A stream is a printable magic
// line (owned by the outer format) followed by frames of the form
//
//	frame := uvarint(len(payload)) payload crc32c(payload, 4 bytes LE)
//
// where payload[0] is the chunk kind byte. The frame makes truncation and
// corruption detectable at every boundary, which is what recovery leans on:
// a consumer can always say at which byte offset, and in which kind of
// chunk, a stream went bad.

// MaxChunkPayload bounds a single chunk payload so corrupt length prefixes
// cannot force huge allocations.
const MaxChunkPayload = maxBinChunkPayload

// The bounds of the observe path, stated once for every codec that carries
// jobs: the bin trace chunks, the wire frames, the JSON bodies and the
// write-ahead log. Each writer refuses what its reader refuses, so a job a
// writer accepted can always be read back. Runs expand cheaply, so readers
// check these before they allocate.
const (
	// MaxJobFiles bounds one job's file list.
	MaxJobFiles = 1 << 22
	// MaxBatchFiles bounds the file IDs of one batch of jobs: a 32 MiB JSON
	// body, at two bytes or more an ID, holds fewer.
	MaxBatchFiles = 1 << 24
	// FileIDCeiling bounds every file ID from above (exclusive): FileID is an
	// int32.
	FileIDCeiling = 1 << 31
)

// ChunkError reports a frame that could not be read: the byte offset of the
// frame's first byte within the stream (after any magic the caller consumed
// before handing the reader its io.Reader), the chunk kind when the kind
// byte was recovered (0 otherwise), and the underlying cause.
type ChunkError struct {
	Offset int64
	Kind   byte
	Err    error
}

func (e *ChunkError) Error() string {
	if e.Kind != 0 {
		return fmt.Sprintf("chunk %q at byte offset %d: %v", e.Kind, e.Offset, e.Err)
	}
	return fmt.Sprintf("chunk at byte offset %d: %v", e.Offset, e.Err)
}

func (e *ChunkError) Unwrap() error { return e.Err }

// Torn reports whether the frame was cut short by end of input — the
// signature a crash leaves at the tail of an append-only file. CRC
// mismatches and malformed lengths are not torn: the bytes are all there
// and they are wrong.
func (e *ChunkError) Torn() bool {
	return errors.Is(e.Err, io.ErrUnexpectedEOF) || errors.Is(e.Err, errTornLength)
}

var errTornLength = errors.New("truncated chunk length")

// AppendChunk appends one frame — uvarint length, payload, CRC32C — to dst,
// for writers that assemble several frames (or a magic line and a header)
// into one write call. The payload must be non-empty (payload[0] is the
// chunk kind).
func AppendChunk(dst, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, binCRC))
}

// WriteChunk writes the frame AppendChunk builds straight to w, without
// copying the payload.
func WriteChunk(w io.Writer, payload []byte) error {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(payload)))
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload, binCRC))
	_, err := w.Write(crc[:])
	return err
}

// ChunkReader reads CRC-checked frames sequentially, reusing one payload
// buffer and tracking byte offsets so failures are reportable (and, for
// write-ahead logs, truncatable) at an exact position.
type ChunkReader struct {
	br      *bufio.Reader
	payload []byte
	off     int64 // bytes consumed from the underlying stream
}

// NewChunkReader returns a reader positioned at offset 0 of r. If the
// stream begins with a magic line, consume it from r before calling (the
// reader's offsets are then relative to the end of the magic).
func NewChunkReader(r io.Reader) *ChunkReader {
	return &ChunkReader{br: newBufReader(r)}
}

// OpenChunks is how every state format built on the frame (checkpoint, WAL
// segment, federation delta and ack) begins reading: it consumes the magic
// line from r, reads the first chunk, which must be of headerKind, and returns
// the reader positioned after it together with a cursor over the header's
// fields. The cursor aliases the reader's buffer: parse it before the next
// ReadChunk. Offsets the reader reports are relative to the end of the magic.
func OpenChunks(r io.Reader, magic string, headerKind byte) (*ChunkReader, *Payload, error) {
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(r, got); err != nil {
		return nil, nil, fmt.Errorf("bad magic: %w", err)
	}
	if string(got) != magic {
		return nil, nil, fmt.Errorf("bad magic %q", got)
	}
	cr := NewChunkReader(r)
	kind, payload, err := cr.ReadChunk()
	if err != nil {
		return nil, nil, fmt.Errorf("header: %w", err)
	}
	if kind != headerKind {
		return nil, nil, fmt.Errorf("first chunk kind %q, want %q", kind, headerKind)
	}
	return cr, NewPayload(payload), nil
}

// Offset returns the stream offset of the next unread frame — after a
// successful ReadChunk, the boundary the stream is valid up to.
func (cr *ChunkReader) Offset() int64 { return cr.off }

// ReadChunk returns the next frame's kind and payload. The payload aliases
// an internal buffer valid until the next call. io.EOF means the input
// ended cleanly at a frame boundary; every other failure is a *ChunkError
// carrying the frame's start offset.
func (cr *ChunkReader) ReadChunk() (byte, []byte, error) {
	start := cr.off
	n, werr := cr.readUvarint()
	if werr != nil {
		if werr == io.EOF && cr.off == start {
			return 0, nil, io.EOF
		}
		if werr == io.EOF || werr == io.ErrUnexpectedEOF {
			werr = errTornLength
		}
		return 0, nil, &ChunkError{Offset: start, Err: fmt.Errorf("bad chunk length: %w", werr)}
	}
	if n == 0 || n > MaxChunkPayload {
		return 0, nil, &ChunkError{Offset: start, Err: fmt.Errorf("chunk payload length %d out of range", n)}
	}
	if uint64(cap(cr.payload)) < n {
		cr.payload = make([]byte, n)
	}
	payload := cr.payload[:n]
	if got, err := io.ReadFull(cr.br, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		// The buffer is reused: with nothing read, payload[0] is still the
		// previous frame's kind byte.
		var kind byte
		if got > 0 {
			kind = payload[0]
		}
		return 0, nil, &ChunkError{Offset: start, Kind: kind, Err: fmt.Errorf("truncated chunk payload: %w", err)}
	}
	cr.off += int64(n)
	var crc [4]byte
	if _, err := io.ReadFull(cr.br, crc[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, &ChunkError{Offset: start, Kind: payload[0], Err: fmt.Errorf("truncated chunk CRC: %w", err)}
	}
	cr.off += 4
	if got, want := crc32.Checksum(payload, binCRC), binary.LittleEndian.Uint32(crc[:]); got != want {
		return 0, nil, &ChunkError{Offset: start, Kind: payload[0],
			Err: fmt.Errorf("chunk CRC mismatch (got %08x, want %08x)", got, want)}
	}
	return payload[0], payload, nil
}

// readUvarint reads a length prefix byte by byte so the consumed-offset
// stays exact even on failure.
func (cr *ChunkReader) readUvarint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		b, err := cr.br.ReadByte()
		if err != nil {
			return 0, err
		}
		cr.off++
		if b < 0x80 {
			return v | uint64(b)<<shift, nil
		}
		v |= uint64(b&0x7f) << shift
	}
	return 0, fmt.Errorf("varint overflows 64 bits")
}

// Payload is a bounds-checked varint cursor over one chunk payload — the
// exported face of the decoder the bin codec uses, for the checkpoint and
// WAL formats built on the same frame. Errors are sticky: after the first
// malformed read every getter returns zero and Err reports the first
// failure.
type Payload struct{ b binBuf }

// NewPayload returns a cursor over p positioned after the kind byte.
func NewPayload(p []byte) *Payload {
	return &Payload{b: binBuf{b: p, pos: 1}}
}

// Reset repositions the cursor over a new payload (after the kind byte) and
// clears any sticky error, so frame-per-request consumers like the wire
// protocol can reuse one cursor for a connection's lifetime instead of
// allocating per frame.
func (p *Payload) Reset(payload []byte) {
	p.b = binBuf{b: payload, pos: 1}
}

// Err returns the first decode failure, or nil.
func (p *Payload) Err() error { return p.b.err }

// Remaining returns the number of unread payload bytes.
func (p *Payload) Remaining() int { return p.b.rem() }

// Fail records a decode failure at the current position (first one wins).
func (p *Payload) Fail(format string, args ...any) { p.b.fail(format, args...) }

// Uvarint reads one unsigned varint.
func (p *Payload) Uvarint() uint64 { return p.b.uvarint() }

// Zvarint reads one zigzag-encoded signed varint.
func (p *Payload) Zvarint() int64 { return p.b.zvarint() }

// Byte reads one byte.
func (p *Payload) Byte() byte { return p.b.byte() }

// Bytes reads n bytes, aliasing the payload.
func (p *Payload) Bytes(n int) []byte { return p.b.bytes(n) }

// Uint64 reads a fixed-width little-endian 64-bit value (used for values
// with no small-magnitude bias, like hash signatures, where varints only
// add bytes).
func (p *Payload) Uint64() uint64 {
	raw := p.b.bytes(8)
	if p.b.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(raw)
}

// Count reads an element count and rejects values that cannot fit in the
// remaining payload (each element is at least one byte), so corrupt counts
// never drive huge allocations.
func (p *Payload) Count(what string) int { return p.b.count(what) }

// AppendUint64 appends a fixed-width little-endian 64-bit value.
func AppendUint64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

// AppendFileRuns encodes ids as (zigzag start delta, run length) pairs over
// maximal runs of consecutive ascending IDs, preceded by the run count. The
// encoding is lossless for arbitrary sequences (order and duplicates
// survive); sorted inputs compress to a handful of runs.
func AppendFileRuns(dst []byte, ids []FileID) []byte {
	return appendListRuns(dst, ids)
}

// FileRuns decodes one run-encoded file-ID list, appending to dst. IDs must
// lie in [0, maxID); the expanded list may not exceed maxLen entries beyond
// what dst already holds. On failure the cursor error is set and dst is
// returned unchanged in length beyond what was validly decoded.
func (p *Payload) FileRuns(dst []FileID, maxID int64, maxLen int) []FileID {
	nRuns := p.Count("run")
	if p.b.err != nil {
		return dst
	}
	base := len(dst)
	prev := int64(0)
	for r := 0; r < nRuns; r++ {
		start := prev + p.Zvarint()
		length := p.Uvarint()
		if p.b.err != nil {
			return dst
		}
		if length == 0 || length > uint64(maxLen) {
			p.Fail("run %d length %d out of range", r, length)
			return dst
		}
		if start < 0 || start+int64(length) > maxID {
			p.Fail("run %d references file IDs %d..%d outside [0, %d)", r, start, start+int64(length)-1, maxID)
			return dst
		}
		if len(dst)-base+int(length) > maxLen {
			p.Fail("file list exceeds %d entries", maxLen)
			return dst
		}
		for k := int64(0); k < int64(length); k++ {
			dst = append(dst, FileID(start+k))
		}
		prev = start + int64(length)
	}
	return dst
}
