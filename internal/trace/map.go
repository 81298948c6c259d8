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
// and its catalog and job chunks are decoded in place, out of order, by a
// small worker pool that writes rows straight into one job slice sized from
// the chunk headers — the one thing a stream cannot do, since it neither
// knows the job total up front nor reaches chunk i without reading chunk i-1.
//
// The fast path has no error vocabulary of its own. Whatever it finds wrong —
// a frame, a checksum, a catalog, a row layout that does not tile — it gives
// up, and ReadFile hands the same mapped bytes to ReadBin, whose streamed
// decoder is the one statement of the grammar's errors. ReadFile therefore
// returns what ReadBin returns on every input.
//
// Decoded traces do not alias the mapping (strings are copied on intern, file
// lists live in exact-size heap arenas), so the file is unmapped before
// ReadFile returns — and each region is released as soon as it is decoded:
// the whole pages inside the catalog frame behind each pass over them, and
// inside each job chunk once its rows are filled, so the file's pages stay
// resident only until the trace holds what they held. A fallback re-reads
// released pages from the page cache.

// mapping is a mapped filecule-bin/v1 file with its chunk frames indexed and
// the catalog's record counts read off its head.
type mapping struct {
	data    []byte
	catalog mapChunk // the catalog payload
	nFiles  int
	nUsers  int
	nSites  int
	total   int64 // job count declared by the end chunk

	chunks []mapChunk // the job chunks, in file order
}

// mapChunk locates one chunk payload inside the mapping; its CRC is
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

// catalogCounts reads the site, user and file counts of a catalog payload,
// stepping over the site and user records between them — a few hundred bytes
// at the head of a payload of megabytes.
func catalogCounts(p []byte) (nSites, nUsers, nFiles int, ok bool) {
	b := &binBuf{b: p, pos: 1}
	skipStr := func() { b.bytes(b.count("string length")) }
	nSites = b.count("site")
	for i := 0; i < nSites && b.err == nil; i++ {
		skipStr()
		skipStr()
		b.uvarint()
	}
	nUsers = b.count("user")
	for i := 0; i < nUsers && b.err == nil; i++ {
		skipStr()
		b.uvarint()
	}
	nFiles = b.count("file")
	return nSites, nUsers, nFiles, b.err == nil
}

// newMapping indexes a mapped filecule-bin/v1 file: the catalog, the job
// chunks, then exactly one end chunk and nothing after it. The end chunk is
// checked and decoded here, the catalog and the job chunks by the workers
// that decode them.
func newMapping(data []byte) (*mapping, bool) {
	start, end, pos, ok := mapFrame(data, len(binMagic))
	if !ok || data[start] != binChunkKindCatalog {
		return nil, false
	}
	m := &mapping{data: data, catalog: mapChunk{start: start, end: end}}
	if m.nSites, m.nUsers, m.nFiles, ok = catalogCounts(data[start:end]); !ok {
		return nil, false
	}
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

// readMapParallel decodes the catalog and the job chunks off one work queue:
// the row layout sizes the job slice, and workers claim items off an atomic
// cursor — the catalog first, then the job chunks in file order. Each checks
// its item's CRC and decodes it: the catalog into the trace's catalogs, which
// must hold the counts the job chunks were bounded by; a job chunk into the
// worker's own column buffers and interner, its rows written directly into
// place. ok is false if any item fails.
func readMapParallel(m *mapping, first []int64) (*Trace, bool) {
	t := &Trace{}
	if m.total > 0 {
		t.Jobs = make([]Job, m.total)
	}
	items := 1 + len(m.chunks)
	workers := min(runtime.GOMAXPROCS(0), 8, items)
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
				if i >= items {
					return
				}
				if i == 0 {
					if !m.decodeCatalog(t) {
						failed.Store(true)
						return
					}
					continue
				}
				ch := m.chunks[i-1]
				if !crcCheck(m.data, ch.start, ch.end) ||
					c.decode(m.data[ch.start:ch.end], m.nFiles, m.nUsers, m.nSites, intern, true) != nil ||
					c.firstID != first[i-1] || int64(c.n) != first[i]-first[i-1] {
					failed.Store(true)
					return
				}
				rows := t.Jobs[first[i-1]:first[i]]
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

// decodeCatalog checks and decodes the catalog chunk into t. The job chunks
// decode beside it, so the megabytes of the catalog frame are released behind
// each of its three passes — the checksum, then decodeBinCatalog's two —
// rather than held resident until the decode ends. ok is false if the
// catalog fails or holds other counts than its head said.
func (m *mapping) decodeCatalog(t *Trace) bool {
	c := m.catalog
	behind := func(done int) { releasePages(m.data, c.start, c.start+done) }
	crc := uint32(0)
	for at := c.start; at < c.end; at += 1 << 20 {
		to := min(at+1<<20, c.end)
		crc = crc32.Update(crc, binCRC, m.data[at:to])
		behind(to - c.start)
	}
	if crc != binary.LittleEndian.Uint32(m.data[c.end:]) {
		return false
	}
	files, users, sites, err := decodeBinCatalog(m.data[c.start:c.end], behind)
	releasePages(m.data, c.start, c.end)
	if err != nil || len(files) != m.nFiles || len(users) != m.nUsers || len(sites) != m.nSites {
		return false
	}
	t.Files, t.Users, t.Sites = files, users, sites
	return true
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
