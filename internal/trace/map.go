package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
)

// The mmap substrate: a filecule-bin/v1 file on disk IS the decoded
// representation, minus varint expansion. Instead of streaming the bytes
// through a bufio copy and a chunk-payload copy (ChunkReader), a Mapping
// maps the file once and decodes every chunk in place — the second backing
// of the chunk cursor in bin.go:
//
//   - The chunk frames are indexed in one cheap pass at open time (length
//     prefixes only, no checksums), so the job chunks are addressable and
//     the stream structure — catalog, jobs, end, clean EOF — is validated
//     before the first job is decoded.
//   - CRC32C is verified lazily, per chunk, on first touch. The catalog
//     and end chunks are touched at open (their contents gate everything
//     else); job chunks are checked by whichever cursor reaches them
//     first, and re-reads of a hot trace skip the checksum entirely.
//   - Job file-lists expand from the mapped run-length bytes straight into
//     the decoder's arena: no intermediate payload buffer exists anywhere
//     on the mapped path.
//   - Parallel materialization (ReadMap) hands disjoint chunk-index ranges
//     to per-worker cursors, each with its own interner and reused column
//     buffers, writing into one pre-sized job slice — no channels, no
//     payload copies, no reassembly sort.
//
// Decoded jobs do not alias the mapping (strings are copied on intern,
// file lists live in heap arenas), so traces and cloned jobs stay valid
// after Close. Only decoding itself needs the mapping alive.

// Mapping is a read-only memory map of a filecule-bin/v1 file with its
// chunk frames indexed and its catalogs decoded. It serves any number of
// sequential cursors (Source) and parallel materializations (ReadMap);
// all of them share one lazy CRC ledger. Close unmaps; it is the caller's
// contract that no cursor is mid-Next when that happens.
type Mapping struct {
	data  []byte
	files []File
	users []User
	sites []Site
	total int64 // job count declared by the end chunk

	chunks   []mapChunk
	verified []atomic.Bool // lazy CRC ledger, one flag per job chunk

	closed atomic.Bool
}

// mapChunk locates one job-chunk payload inside the mapping. off is the
// frame's start offset relative to the end of the magic line — the same
// coordinate system ChunkReader reports — so mapped and streamed decodes
// fail with identical positions.
type mapChunk struct {
	start, end int // payload bounds within data; CRC is data[end:end+4]
	off        int64
}

// mapFrame walks one chunk frame at absolute position pos, returning the
// payload bounds and the position after the frame. Errors mirror
// ChunkReader exactly, including the frame-start offsets.
func mapFrame(data []byte, pos int) (start, end, next int, err error) {
	off := int64(pos - len(binMagic))
	n, w := binary.Uvarint(data[pos:])
	if w == 0 {
		return 0, 0, 0, &ChunkError{Offset: off, Err: fmt.Errorf("bad chunk length: %w", errTornLength)}
	}
	if w < 0 {
		return 0, 0, 0, &ChunkError{Offset: off, Err: fmt.Errorf("bad chunk length: varint overflows 64 bits")}
	}
	if n == 0 || n > MaxChunkPayload {
		return 0, 0, 0, &ChunkError{Offset: off, Err: fmt.Errorf("chunk payload length %d out of range", n)}
	}
	start = pos + w
	if start > len(data) || uint64(len(data)-start) < n {
		var kind byte
		if start < len(data) {
			kind = data[start]
		}
		return 0, 0, 0, &ChunkError{Offset: off, Kind: kind,
			Err: fmt.Errorf("truncated chunk payload: %w", io.ErrUnexpectedEOF)}
	}
	end = start + int(n)
	if len(data)-end < 4 {
		return 0, 0, 0, &ChunkError{Offset: off, Kind: data[start],
			Err: fmt.Errorf("truncated chunk CRC: %w", io.ErrUnexpectedEOF)}
	}
	return start, end, end + 4, nil
}

// crcCheck verifies one payload against its trailing frame checksum.
func crcCheck(data []byte, start, end int, off int64) error {
	got := crc32.Checksum(data[start:end], binCRC)
	want := binary.LittleEndian.Uint32(data[end : end+4])
	if got != want {
		return fmt.Errorf("trace: bin: %w", &ChunkError{Offset: off, Kind: data[start],
			Err: fmt.Errorf("chunk CRC mismatch (got %08x, want %08x)", got, want)})
	}
	return nil
}

// newMapping indexes and validates an already-mapped filecule-bin/v1
// byte range. It owns data on success; on error the caller unmaps.
func newMapping(data []byte) (*Mapping, error) {
	if len(data) < len(binMagic) || string(data[:len(binMagic)]) != binMagic {
		return nil, fmt.Errorf("trace: bin: bad magic")
	}
	m := &Mapping{data: data}

	pos := len(binMagic)
	if pos == len(data) {
		return nil, fmt.Errorf("trace: bin: missing catalog chunk")
	}
	start, end, next, err := mapFrame(data, pos)
	if err != nil {
		return nil, fmt.Errorf("trace: bin: %w", err)
	}
	if err := crcCheck(data, start, end, int64(pos-len(binMagic))); err != nil {
		return nil, err
	}
	if m.files, m.users, m.sites, err = decodeBinCatalog(data[start:end]); err != nil {
		return nil, err
	}
	pos = next

	sawEnd := false
	for pos < len(data) {
		if sawEnd {
			return nil, fmt.Errorf("trace: bin: data after end chunk")
		}
		start, end, next, err = mapFrame(data, pos)
		if err != nil {
			return nil, fmt.Errorf("trace: bin: %w", err)
		}
		switch data[start] {
		case binChunkKindJobs:
			m.chunks = append(m.chunks, mapChunk{start: start, end: end, off: int64(pos - len(binMagic))})
		case binChunkKindEnd:
			if err := crcCheck(data, start, end, int64(pos-len(binMagic))); err != nil {
				return nil, err
			}
			total, err := decodeBinEnd(data[start:end])
			if err != nil {
				return nil, err
			}
			m.total = int64(total)
			sawEnd = true
		case binChunkKindCatalog:
			return nil, fmt.Errorf("trace: bin: duplicate catalog chunk")
		default:
			return nil, fmt.Errorf("trace: bin: unknown chunk kind %q", data[start])
		}
		pos = next
	}
	if !sawEnd {
		return nil, fmt.Errorf("trace: bin: truncated stream (missing end chunk)")
	}
	m.verified = make([]atomic.Bool, len(m.chunks))
	return m, nil
}

// payload returns job chunk i's payload, checking its CRC on first touch.
// Racing verifiers both hash and both store true — idempotent, so no
// synchronization beyond the flag is needed.
func (m *Mapping) payload(i int) ([]byte, error) {
	c := m.chunks[i]
	if !m.verified[i].Load() {
		if err := crcCheck(m.data, c.start, c.end, c.off); err != nil {
			return nil, err
		}
		m.verified[i].Store(true)
	}
	return m.data[c.start:c.end], nil
}

// Files returns the file catalog (shared, read-only).
func (m *Mapping) Files() []File { return m.files }

// Users returns the user catalog (shared, read-only).
func (m *Mapping) Users() []User { return m.users }

// Sites returns the site catalog (shared, read-only).
func (m *Mapping) Sites() []Site { return m.sites }

// Jobs returns the job count declared by the end chunk.
func (m *Mapping) Jobs() int64 { return m.total }

// Close unmaps the file. Idempotent. Cursors and ReadMap calls must have
// finished; decoded traces and jobs remain valid.
func (m *Mapping) Close() error {
	if m.closed.Swap(true) {
		return nil
	}
	data := m.data
	m.data = nil
	return munmapFile(data)
}

// mapCursor is the mapped backing of the chunk cursor. The grammar was
// enforced when newMapping indexed the frames, so what is left is to hand
// out the job chunks in file order.
type mapCursor struct {
	m  *Mapping
	ci int // next chunk index within m.chunks
}

func (c *mapCursor) total() int64 { return c.m.total }

func (c *mapCursor) next() ([]byte, error) {
	if c.ci >= len(c.m.chunks) {
		return nil, io.EOF
	}
	p, err := c.m.payload(c.ci)
	c.ci++
	return p, err
}

func (m *Mapping) decoder() *binDecoder {
	return newBinDecoder(&mapCursor{m: m}, m.files, m.users, m.sites)
}

// Source returns a fresh sequential cursor over the mapping. The cursor
// does not own the mapping: closing it does not unmap, and several
// cursors may drain the same Mapping (each is single-goroutine, per the
// Source contract, but distinct cursors are independent).
func (m *Mapping) Source() *BinSource {
	return &BinSource{d: m.decoder()}
}

// binMinJobBytes is the least a job row costs: one byte in each of the
// eleven columns of its chunk.
const binMinJobBytes = 11

// ReadMap materializes the mapping into a validated Trace. Filling rows in
// place out of order needs random access, which only the mapping has, so
// this is where the one parallel decode lives: with more than one CPU and
// more than one chunk, readMapParallel; otherwise the serial materialiser
// shared with ReadBin, its job slice sized by the end chunk's total (a
// total the file's bytes could not back is not taken at its word).
func ReadMap(m *Mapping) (*Trace, error) {
	if runtime.GOMAXPROCS(0) > 1 && len(m.chunks) > 1 {
		if first, ok := m.rowLayout(); ok {
			return validated(readMapParallel(m, first))
		}
	}
	return validated(m.decoder().materialize(int(min(m.total, int64(len(m.data)/binMinJobBytes)))))
}

// rowLayout pre-scans the job-chunk headers — each opens with its row count
// and first job ID — so which rows belong to which chunk is known before
// any column is decoded: chunk i holds rows first[i] to first[i+1]. ok is
// false when the headers do not tile [0, total); the file is then corrupt
// or hostile, and the serial decoder is left to say how, in the streamed
// decoder's order (CRC before contents). The values are read ahead of CRC
// verification, so readMapParallel re-checks them against the verified
// decode; a corrupt header can misroute work but never mis-assemble a trace.
func (m *Mapping) rowLayout() (first []int64, ok bool) {
	first = make([]int64, len(m.chunks)+1)
	for i, c := range m.chunks {
		p := m.data[c.start+1 : c.end]
		n, w := binary.Uvarint(p)
		if w <= 0 || n > uint64(len(p)) {
			return nil, false
		}
		id, w := binary.Uvarint(p[w:])
		if w <= 0 || id != uint64(first[i]) {
			return nil, false
		}
		first[i+1] = first[i] + int64(n)
	}
	return first, first[len(m.chunks)] == m.total
}

// readMapParallel decodes the job chunks with a worker pool: the row layout
// sizes the job slice, and workers claim chunk indexes off an atomic cursor
// — per-worker column buffers and interners, zero payload copies, rows
// written directly into place.
func readMapParallel(m *Mapping, first []int64) (*Trace, error) {
	t := &Trace{Files: m.files, Users: m.users, Sites: m.sites, Jobs: make([]Job, m.total)}
	workers := min(runtime.GOMAXPROCS(0), 8, len(m.chunks))
	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		decErr error
		wg     sync.WaitGroup
	)
	setErr := func(err error) {
		mu.Lock()
		if decErr == nil {
			decErr = err
		}
		mu.Unlock()
		failed.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c binJobChunk
			intern := newInterner()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(m.chunks) {
					return
				}
				p, err := m.payload(i)
				if err != nil {
					setErr(err)
					return
				}
				if err := c.decode(p, len(m.files), len(m.users), len(m.sites), intern, true); err != nil {
					setErr(err)
					return
				}
				if c.firstID != first[i] || int64(c.n) != first[i+1]-first[i] {
					setErr(fmt.Errorf("trace: bin: job chunk %d header changed between pre-scan and decode", i))
					return
				}
				rows := t.Jobs[first[i]:first[i+1]]
				for r := range rows {
					c.fill(&rows[r], r)
				}
			}
		}()
	}
	wg.Wait()
	if decErr != nil {
		return nil, decErr
	}
	return t, nil
}

// tryMap attempts to map f as a filecule-bin/v1 file. A nil mapping with a
// nil error means f is not eligible for the mapped path (not a regular
// file, too small to hold the magic, mmap unavailable, or not bin-encoded)
// and the caller should fall back to the streamed decoder — nothing has
// been read from f. A non-nil error means f IS a bin file and it is broken.
func tryMap(f *os.File) (*Mapping, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if !fi.Mode().IsRegular() || size < int64(len(binMagic)) || size != int64(int(size)) {
		return nil, nil
	}
	data, err := mmapFile(int(f.Fd()), int(size))
	if err != nil {
		// Filesystems without mmap support degrade to streaming, same as
		// unsupported platforms.
		return nil, nil
	}
	if string(data[:len(binMagic)]) != binMagic {
		_ = munmapFile(data)
		return nil, nil
	}
	madviseSequential(data)
	m, err := newMapping(data)
	if err != nil {
		_ = munmapFile(data)
		return nil, err
	}
	return m, nil
}

// openFile opens path through the fastest available substrate and returns
// exactly one of the two: the mapping of a regular filecule-bin/v1 file
// (the descriptor is already closed; the mapping outlives it), or, for
// everything else — text, gzip, pipes and other non-regular files,
// platforms without mmap — the open file, unread, for the streamed
// decoders. Errors carry the path.
func openFile(path string) (*Mapping, *os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	m, err := tryMap(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if m != nil {
		f.Close()
		return m, nil, nil
	}
	return nil, f, nil
}

// OpenMapping maps path, which must be a regular filecule-bin/v1 file on
// a platform with mmap. Callers that can degrade to streaming should use
// Open or ReadFile instead, which fall back transparently.
func OpenMapping(path string) (*Mapping, error) {
	m, f, err := openFile(path)
	if err != nil {
		return nil, err
	}
	if m == nil {
		f.Close()
		return nil, fmt.Errorf("%s: trace: not mappable (need a regular filecule-bin/v1 file and an mmap-capable platform)", path)
	}
	return m, nil
}

// Open opens a trace file as a streaming Source: the mapped cursor (zero
// copies, lazy CRC) when openFile maps it, the auto-detecting NewSource
// otherwise. Closing the source releases the mapping or the file.
func Open(path string) (Source, error) {
	m, f, err := openFile(path)
	if err != nil {
		return nil, err
	}
	if m != nil {
		src := m.Source()
		src.owner = m
		return src, nil
	}
	src, err := NewSource(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &closerSource{Source: src, c: f}, nil
}

// ReadFile materializes a trace file: ReadMap when openFile maps it,
// streamed ReadAuto otherwise. The returned trace does not reference the
// mapping.
func ReadFile(path string) (*Trace, error) {
	m, f, err := openFile(path)
	if err != nil {
		return nil, err
	}
	var t *Trace
	if m != nil {
		t, err = ReadMap(m)
		m.Close()
	} else {
		t, err = ReadAuto(f)
		f.Close()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}
