package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
)

// ReadFile's fast path. A regular filecule-bin/v1 file is mapped read-only
// and its job chunks are decoded in place, out of order, by a small worker
// pool that writes rows straight into one job slice sized from the chunk
// headers — the one thing a stream cannot do, since it neither knows the job
// total up front nor reaches chunk i without reading chunk i-1.
//
// The fast path has no error vocabulary of its own. Whatever it finds wrong —
// a frame, a checksum, a catalog, a row layout that does not tile — it gives
// up, and ReadFile hands the same mapped bytes to ReadBin, whose streamed
// decoder is the one statement of the grammar's errors. ReadFile therefore
// returns what ReadBin returns on every input.
//
// Decoded traces do not alias the mapping (strings are copied on intern, file
// lists live in exact-size heap arenas), so the file is unmapped before
// ReadFile returns — and each region is released as soon as it is decoded: the
// whole pages inside the catalog frame once the catalog is, and inside each
// job chunk once its rows are filled, so the file's pages stay resident only
// until the trace holds what they held. A fallback re-reads released pages
// from the page cache.

// mapping is a mapped filecule-bin/v1 file with its chunk frames indexed and
// its catalogs decoded.
type mapping struct {
	data  []byte
	files []File
	users []User
	sites []Site
	total int64 // job count declared by the end chunk

	chunks []mapChunk // the job chunks, in file order
}

// mapChunk locates one job-chunk payload inside the mapping; its CRC is
// data[end:end+4].
type mapChunk struct{ start, end int }

// mapFrame walks the chunk frame at pos, returning the payload bounds and the
// position after the frame. ok is false if the frame does not fit the bytes.
func mapFrame(data []byte, pos int) (start, end, next int, ok bool) {
	n, w := binary.Uvarint(data[pos:])
	if w <= 0 || n == 0 || n > MaxChunkPayload {
		return 0, 0, 0, false
	}
	start = pos + w
	if uint64(len(data)-start) < n+4 {
		return 0, 0, 0, false
	}
	end = start + int(n)
	return start, end, end + 4, true
}

// crcCheck reports whether a payload matches its trailing frame checksum.
func crcCheck(data []byte, start, end int) bool {
	return crc32.Checksum(data[start:end], binCRC) == binary.LittleEndian.Uint32(data[end:end+4])
}

// newMapping indexes a mapped filecule-bin/v1 file: the catalog, the job
// chunks, then exactly one end chunk and nothing after it. The catalog and
// end chunks are checked and decoded here, the job chunks by the worker that
// decodes them.
func newMapping(data []byte) (*mapping, bool) {
	start, end, pos, ok := mapFrame(data, len(binMagic))
	if !ok || !crcCheck(data, start, end) {
		return nil, false
	}
	m := &mapping{data: data}
	var err error
	if m.files, m.users, m.sites, err = decodeBinCatalog(data[start:end]); err != nil {
		return nil, false
	}
	releasePages(data, start, end)
	sawEnd := false
	for pos < len(data) && !sawEnd {
		if start, end, pos, ok = mapFrame(data, pos); !ok {
			return nil, false
		}
		switch data[start] {
		case binChunkKindJobs:
			m.chunks = append(m.chunks, mapChunk{start: start, end: end})
		case binChunkKindEnd:
			if !crcCheck(data, start, end) {
				return nil, false
			}
			total, err := decodeBinEnd(data[start:end])
			if err != nil {
				return nil, false
			}
			m.total = int64(total)
			sawEnd = true
		default:
			return nil, false
		}
	}
	return m, sawEnd && pos == len(data)
}

// rowLayout pre-scans the job-chunk headers — each opens with its row count
// and first job ID — so which rows belong to which chunk is known before any
// column is decoded: chunk i holds rows first[i] to first[i+1]. ok is false
// when the headers do not tile [0, total). The values are read ahead of the
// checksum, so readMapParallel re-checks them against the verified decode.
func (m *mapping) rowLayout() (first []int64, ok bool) {
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
// sizes the job slice, and workers claim chunk indexes off an atomic cursor —
// each checks its chunk's CRC, decodes it into its own column buffers and
// interner, and writes the rows directly into place. ok is false if any
// chunk fails.
func readMapParallel(m *mapping, first []int64) (*Trace, bool) {
	t := &Trace{Files: m.files, Users: m.users, Sites: m.sites}
	if m.total > 0 {
		t.Jobs = make([]Job, m.total)
	}
	workers := min(runtime.GOMAXPROCS(0), 8, len(m.chunks))
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
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
				ch := m.chunks[i]
				if !crcCheck(m.data, ch.start, ch.end) ||
					c.decode(m.data[ch.start:ch.end], len(m.files), len(m.users), len(m.sites), intern, true) != nil ||
					c.firstID != first[i] || int64(c.n) != first[i+1]-first[i] {
					failed.Store(true)
					return
				}
				rows := t.Jobs[first[i]:first[i+1]]
				for r := range rows {
					c.fill(&rows[r], r)
				}
				releasePages(m.data, ch.start, ch.end)
			}
		}()
	}
	wg.Wait()
	return t, !failed.Load()
}

// readMapped materializes a mapped filecule-bin/v1 file: the parallel fill
// when it succeeds, otherwise whatever ReadBin makes of the same bytes.
func readMapped(data []byte) (*Trace, error) {
	if m, ok := newMapping(data); ok {
		if first, ok := m.rowLayout(); ok {
			if t, ok := readMapParallel(m, first); ok {
				return validated(t, nil)
			}
		}
	}
	return ReadBin(bytes.NewReader(data))
}

// tryMap maps f if it is a regular file that starts with the filecule-bin/v1
// magic, on a platform and filesystem with mmap; otherwise it returns nil,
// having read nothing from f.
func tryMap(f *os.File) []byte {
	fi, err := f.Stat()
	if err != nil {
		return nil
	}
	size := fi.Size()
	if !fi.Mode().IsRegular() || size < int64(len(binMagic)) || size != int64(int(size)) {
		return nil
	}
	data, err := mmapFile(int(f.Fd()), int(size))
	if err != nil {
		return nil
	}
	if string(data[:len(binMagic)]) != binMagic {
		_ = munmapFile(data)
		return nil
	}
	return data
}

// ReadFile materializes a trace file: a regular filecule-bin/v1 file through
// the mapped fast path, everything else — text, gzip, pipes, platforms
// without mmap — through ReadAuto. Errors carry the path.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var t *Trace
	if data := tryMap(f); data != nil {
		t, err = readMapped(data)
		_ = munmapFile(data)
	} else {
		t, err = ReadAuto(f)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}
