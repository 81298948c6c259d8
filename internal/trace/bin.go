package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
	"time"
)

// filecule-bin/v1 is the binary columnar trace format: the streaming,
// machine-efficient counterpart of the v1 text format. The stream is a
// printable magic line followed by length-prefixed, CRC-protected chunks:
//
//	stream := magic chunk*
//	magic  := "#filecule-bin v1\n"
//	chunk  := uvarint(len(payload)) payload crc32c(payload, 4 bytes LE)
//
// The first chunk is the catalog ('C'), then job chunks ('J'), then exactly
// one end chunk ('E') carrying the total job count so truncation is always
// detected. All integers are unsigned varints; signed quantities use zigzag
// encoding ("z" below); strings are uvarint length + bytes.
//
//	catalog := 'C' nSites {str name; str domain; z nodes}
//	           nUsers {str name; site}
//	           nFiles {str name; size; byte tier}
//	end     := 'E' totalJobs
//
// Job chunks are independently decodable (self-contained string and
// file-list tables, absolute first job ID) — that is what makes
// ReadFile's parallel chunk-decode path possible:
//
//	jobs    := 'J' nJobs firstJobID
//	           nStrings {str}                       // node/app/version table
//	           nLists {nRuns {z startDelta; runLen}} // file-ID run lists
//	           columns                               // column-major, nJobs each
//	columns := user* site* tierByte* familyByte*
//	           nodeIdx* appIdx* versionIdx*
//	           zStartDelta* durSeconds* filesListIdx* outputsListIdx*
//
// File lists are run-length encoded over consecutive ascending IDs and
// interned per chunk (index 0 is the empty list), so the many jobs that
// read the same dataset — the filecule signature of the workload — store
// their input set once per chunk. Job IDs are implicit (firstJobID + row),
// start times are zigzag deltas from the previous row's start, and end
// times are non-negative second durations.
const binMagic = "#filecule-bin v1\n"

const (
	binChunkKindCatalog = 'C'
	binChunkKindJobs    = 'J'
	binChunkKindEnd     = 'E'

	// binChunkJobs is the encoder's rows-per-chunk target. It is a fixed
	// constant so that re-encoding a decoded stream is byte-identical
	// (the FuzzBinRoundTrip invariant) regardless of the input chunking.
	binChunkJobs = 1024

	// maxBinChunkPayload bounds a single chunk so corrupt length prefixes
	// cannot force huge allocations.
	maxBinChunkPayload = 1 << 26
	// maxBinDurSeconds / maxBinAbsStart keep start+duration arithmetic
	// far from int64 overflow.
	maxBinDurSeconds = int64(1) << 40
	maxBinAbsStart   = int64(1) << 50
)

var binCRC = crc32.MakeTable(crc32.Castagnoli)

// zigzag maps signed to unsigned so small-magnitude values stay short.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// BinWriter streams a trace into the filecule-bin/v1 format: catalogs up
// front, then jobs in WriteJob order, buffered into columnar chunks of
// binChunkJobs rows. The writer holds O(chunk) memory regardless of trace
// size, which is what lets filecule-gen convert or synthesize traces of any
// length without materializing them.
type BinWriter struct {
	w     *bufio.Writer
	files []File
	users []User
	sites []Site

	count int64 // jobs written across all chunks

	// Pending chunk, column-major.
	n        int
	firstID  int64
	jUser    []int32
	jSite    []int32
	jTier    []byte
	jFam     []byte
	jNode    []uint32
	jApp     []uint32
	jVer     []uint32
	jStart   []int64
	jDur     []int64
	jFiles   []uint32
	jOutputs []uint32

	strIdx map[string]uint32
	strs   []string

	listIdx     map[string]uint32
	listBuf     []byte // concatenated per-list run encodings
	listOffs    []int  // len = nLists+1, offsets into listBuf
	listEntries int    // expanded entries in this chunk's lists

	scratch []byte
	payload []byte

	closed bool
	err    error
}

// NewBinWriter validates the catalogs, writes the magic and catalog chunk,
// and returns a writer ready for WriteJob. The catalog slices are read, not
// retained beyond reference checks.
func NewBinWriter(w io.Writer, files []File, users []User, sites []Site) (*BinWriter, error) {
	for i := range sites {
		if sites[i].ID != SiteID(i) {
			return nil, fmt.Errorf("trace: bin: site at index %d has ID %d (want dense IDs)", i, sites[i].ID)
		}
	}
	for i := range users {
		if users[i].ID != UserID(i) {
			return nil, fmt.Errorf("trace: bin: user at index %d has ID %d (want dense IDs)", i, users[i].ID)
		}
		if int(users[i].Site) < 0 || int(users[i].Site) >= len(sites) {
			return nil, fmt.Errorf("trace: bin: user %d references unknown site %d", i, users[i].Site)
		}
	}
	for i := range files {
		if files[i].ID != FileID(i) {
			return nil, fmt.Errorf("trace: bin: file at index %d has ID %d (want dense IDs)", i, files[i].ID)
		}
		if files[i].Size < 0 {
			return nil, fmt.Errorf("trace: bin: file %d has negative size %d", i, files[i].Size)
		}
	}
	bw := &BinWriter{
		w:       newBufWriter(w),
		files:   files,
		users:   users,
		sites:   sites,
		strIdx:  make(map[string]uint32),
		listIdx: make(map[string]uint32),
	}
	if _, err := bw.w.WriteString(binMagic); err != nil {
		return nil, err
	}
	if err := bw.writeCatalog(); err != nil {
		return nil, err
	}
	return bw, nil
}

func (bw *BinWriter) writeCatalog() error {
	p := bw.payload[:0]
	p = append(p, binChunkKindCatalog)
	p = binary.AppendUvarint(p, uint64(len(bw.sites)))
	for i := range bw.sites {
		s := &bw.sites[i]
		p = appendBinString(p, s.Name)
		p = appendBinString(p, s.Domain)
		p = binary.AppendUvarint(p, zigzag(int64(s.Nodes)))
	}
	p = binary.AppendUvarint(p, uint64(len(bw.users)))
	for i := range bw.users {
		u := &bw.users[i]
		p = appendBinString(p, u.Name)
		p = binary.AppendUvarint(p, uint64(u.Site))
	}
	p = binary.AppendUvarint(p, uint64(len(bw.files)))
	for i := range bw.files {
		f := &bw.files[i]
		p = appendBinString(p, f.Name)
		p = binary.AppendUvarint(p, uint64(f.Size))
		p = append(p, byte(f.Tier))
	}
	bw.payload = p
	return bw.writeChunk(p)
}

func appendBinString(p []byte, s string) []byte {
	p = binary.AppendUvarint(p, uint64(len(s)))
	return append(p, s...)
}

func (bw *BinWriter) writeChunk(payload []byte) error {
	return WriteChunk(bw.w, payload)
}

// WriteJob appends one job to the stream. Jobs must arrive with dense,
// in-order IDs; references are validated against the catalogs so a bin
// stream never contains a dangling ID. The job is copied — callers may
// reuse it (Source.Next results can be fed in directly).
func (bw *BinWriter) WriteJob(j *Job) error {
	if bw.err != nil {
		return bw.err
	}
	if bw.closed {
		return fmt.Errorf("trace: bin: writer is closed")
	}
	if err := bw.writeJob(j); err != nil {
		bw.err = err
		return err
	}
	return nil
}

func (bw *BinWriter) writeJob(j *Job) error {
	id := bw.count + int64(bw.n)
	if int64(j.ID) != id {
		return fmt.Errorf("trace: bin: job ID %d out of order (want %d)", j.ID, id)
	}
	if int(j.User) < 0 || int(j.User) >= len(bw.users) {
		return fmt.Errorf("trace: bin: job %d references unknown user %d", id, j.User)
	}
	if int(j.Site) < 0 || int(j.Site) >= len(bw.sites) {
		return fmt.Errorf("trace: bin: job %d references unknown site %d", id, j.Site)
	}
	if j.End.Before(j.Start) {
		return fmt.Errorf("trace: bin: job %d ends before it starts", id)
	}
	start, end := j.Start.Unix(), j.End.Unix()
	if start < -maxBinAbsStart || start > maxBinAbsStart {
		return fmt.Errorf("trace: bin: job %d start time %d out of encodable range", id, start)
	}
	if end-start > maxBinDurSeconds {
		return fmt.Errorf("trace: bin: job %d duration %ds out of encodable range", id, end-start)
	}
	for _, f := range j.Files {
		if int(f) < 0 || int(f) >= len(bw.files) {
			return fmt.Errorf("trace: bin: job %d references unknown file %d", id, f)
		}
	}
	for _, f := range j.Outputs {
		if int(f) < 0 || int(f) >= len(bw.files) {
			return fmt.Errorf("trace: bin: job %d produces unknown file %d", id, f)
		}
	}
	// Each list is encoded once, here; the table lookups and, for a list not
	// yet in this chunk, the insertion below all reuse that encoding.
	bw.scratch = appendListRuns(bw.scratch[:0], j.Files)
	filesEnc := bw.scratch
	bw.scratch = appendListRuns(bw.scratch, j.Outputs)
	outsEnc := bw.scratch[len(filesEnc):]
	newEntries := 0
	if len(j.Files) > 0 && bw.listIdx[string(filesEnc)] == 0 {
		newEntries += len(j.Files)
	}
	if len(j.Outputs) > 0 && bw.listIdx[string(outsEnc)] == 0 {
		newEntries += len(j.Outputs)
	}
	// A chunk's interned file lists hold at most MaxJobFiles entries in all,
	// so one maximal job fits a chunk: the encoder flushes early, the decoder
	// rejects.
	if newEntries > MaxJobFiles {
		return fmt.Errorf("trace: bin: job %d has %d file-list entries (chunk limit %d)", id, newEntries, MaxJobFiles)
	}
	if bw.n > 0 && (bw.n >= binChunkJobs || bw.listEntries+newEntries > MaxJobFiles) {
		if err := bw.flushJobs(); err != nil {
			return err
		}
	}
	if bw.n == 0 {
		bw.firstID = bw.count
	}
	bw.jUser = append(bw.jUser, int32(j.User))
	bw.jSite = append(bw.jSite, int32(j.Site))
	bw.jTier = append(bw.jTier, byte(j.Tier))
	bw.jFam = append(bw.jFam, byte(j.Family))
	e := j.exec()
	bw.jNode = append(bw.jNode, bw.internString(e.Node))
	bw.jApp = append(bw.jApp, bw.internString(e.App))
	bw.jVer = append(bw.jVer, bw.internString(e.Version))
	bw.jStart = append(bw.jStart, start)
	bw.jDur = append(bw.jDur, end-start)
	bw.jFiles = append(bw.jFiles, bw.internList(filesEnc, len(j.Files)))
	bw.jOutputs = append(bw.jOutputs, bw.internList(outsEnc, len(j.Outputs)))
	bw.n++
	return nil
}

func (bw *BinWriter) internString(s string) uint32 {
	if idx, ok := bw.strIdx[s]; ok {
		return idx
	}
	idx := uint32(len(bw.strs))
	bw.strs = append(bw.strs, s)
	bw.strIdx[s] = idx
	return idx
}

// appendListRuns encodes ids as (zigzag start delta, run length) pairs over
// maximal runs of consecutive ascending IDs, preceded by the run count. One
// pass: the count is written first as len(ids), its upper bound, and put
// right (the pairs moved up if it got shorter) once the runs are known.
func appendListRuns(dst []byte, ids []FileID) []byte {
	head := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	body := len(dst)
	runs, prev := 0, int64(0)
	for i := 0; i < len(ids); runs++ {
		j := i + 1
		for j < len(ids) && ids[j] == ids[j-1]+1 {
			j++
		}
		start := int64(ids[i])
		dst = binary.AppendUvarint(dst, zigzag(start-prev))
		dst = binary.AppendUvarint(dst, uint64(j-i))
		prev = start + int64(j-i)
		i = j
	}
	if runs == len(ids) {
		return dst
	}
	count := binary.AppendUvarint(dst[head:head], uint64(runs))
	return append(dst[:head+len(count)], dst[body:]...)
}

// internList returns the 1-based chunk table index for the list of n IDs
// that enc encodes (0 = empty), adding it on first sight.
func (bw *BinWriter) internList(enc []byte, n int) uint32 {
	if n == 0 {
		return 0
	}
	if idx, ok := bw.listIdx[string(enc)]; ok {
		return idx
	}
	if len(bw.listOffs) == 0 {
		bw.listOffs = append(bw.listOffs, 0)
	}
	bw.listBuf = append(bw.listBuf, enc...)
	bw.listOffs = append(bw.listOffs, len(bw.listBuf))
	idx := uint32(len(bw.listOffs) - 1) // 1-based
	bw.listIdx[string(enc)] = idx
	bw.listEntries += n
	return idx
}

func (bw *BinWriter) flushJobs() error {
	if bw.n == 0 {
		return nil
	}
	p := bw.payload[:0]
	p = append(p, binChunkKindJobs)
	p = binary.AppendUvarint(p, uint64(bw.n))
	p = binary.AppendUvarint(p, uint64(bw.firstID))
	p = binary.AppendUvarint(p, uint64(len(bw.strs)))
	for _, s := range bw.strs {
		p = appendBinString(p, s)
	}
	nLists := 0
	if len(bw.listOffs) > 0 {
		nLists = len(bw.listOffs) - 1
	}
	p = binary.AppendUvarint(p, uint64(nLists))
	p = append(p, bw.listBuf...)
	for _, v := range bw.jUser {
		p = binary.AppendUvarint(p, uint64(v))
	}
	for _, v := range bw.jSite {
		p = binary.AppendUvarint(p, uint64(v))
	}
	p = append(p, bw.jTier...)
	p = append(p, bw.jFam...)
	for _, v := range bw.jNode {
		p = binary.AppendUvarint(p, uint64(v))
	}
	for _, v := range bw.jApp {
		p = binary.AppendUvarint(p, uint64(v))
	}
	for _, v := range bw.jVer {
		p = binary.AppendUvarint(p, uint64(v))
	}
	prev := int64(0)
	for _, v := range bw.jStart {
		p = binary.AppendUvarint(p, zigzag(v-prev))
		prev = v
	}
	for _, v := range bw.jDur {
		p = binary.AppendUvarint(p, uint64(v))
	}
	for _, v := range bw.jFiles {
		p = binary.AppendUvarint(p, uint64(v))
	}
	for _, v := range bw.jOutputs {
		p = binary.AppendUvarint(p, uint64(v))
	}
	bw.payload = p
	if err := bw.writeChunk(p); err != nil {
		return err
	}
	bw.count += int64(bw.n)
	bw.n = 0
	bw.jUser = bw.jUser[:0]
	bw.jSite = bw.jSite[:0]
	bw.jTier = bw.jTier[:0]
	bw.jFam = bw.jFam[:0]
	bw.jNode = bw.jNode[:0]
	bw.jApp = bw.jApp[:0]
	bw.jVer = bw.jVer[:0]
	bw.jStart = bw.jStart[:0]
	bw.jDur = bw.jDur[:0]
	bw.jFiles = bw.jFiles[:0]
	bw.jOutputs = bw.jOutputs[:0]
	clear(bw.strIdx)
	bw.strs = bw.strs[:0]
	clear(bw.listIdx)
	bw.listBuf = bw.listBuf[:0]
	bw.listOffs = bw.listOffs[:0]
	bw.listEntries = 0
	return nil
}

// Close flushes pending jobs, writes the end chunk, and flushes the
// underlying buffer. The stream is invalid without it.
func (bw *BinWriter) Close() error {
	if bw.closed {
		return nil
	}
	bw.closed = true
	if bw.err != nil {
		return bw.err
	}
	if err := bw.flushJobs(); err != nil {
		return err
	}
	p := bw.payload[:0]
	p = append(p, binChunkKindEnd)
	p = binary.AppendUvarint(p, uint64(bw.count))
	bw.payload = p
	if err := bw.writeChunk(p); err != nil {
		return err
	}
	return bw.w.Flush()
}

// WriteBin serializes t in the filecule-bin/v1 format through a BinWriter.
// There is no separate Validate pass: the writer refuses every condition
// Validate refuses, with its own "trace: bin:" wording — the catalogs checked
// sites, users, then files, and the jobs in order, so the first bad job is the
// one named. A refusal can come after the magic, the catalog and earlier job
// chunks have been written, so w may hold a partial stream on error.
func WriteBin(w io.Writer, t *Trace) error {
	bw, err := NewBinWriter(w, t.Files, t.Users, t.Sites)
	if err != nil {
		return err
	}
	for i := range t.Jobs {
		if err := bw.WriteJob(&t.Jobs[i]); err != nil {
			return err
		}
	}
	return bw.Close()
}

// binBuf is a bounds-checked varint reader over one chunk payload. Errors
// are sticky: after the first malformed read every getter returns zero, and
// the caller checks err once.
type binBuf struct {
	b   []byte
	pos int
	err error
}

func (b *binBuf) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

func (b *binBuf) rem() int { return len(b.b) - b.pos }

// uvarint keeps the single-byte case small enough to inline: interned
// indexes, deltas and durations are almost always < 0x80, and this read
// dominates the decode profile. The fast path skips the sticky-error check
// — after a fail() the value read is garbage, but every caller re-checks
// b.err before acting on it, so advancing pos past an error is harmless.
func (b *binBuf) uvarint() uint64 {
	if b.pos < len(b.b) {
		if v := b.b[b.pos]; v < 0x80 {
			b.pos++
			return uint64(v)
		}
	}
	return b.uvarintSlow()
}

func (b *binBuf) uvarintSlow() uint64 {
	if b.err != nil {
		return 0
	}
	v, n := binary.Uvarint(b.b[b.pos:])
	if n <= 0 {
		b.fail("bad varint")
		return 0
	}
	b.pos += n
	return v
}

func (b *binBuf) zvarint() int64 { return unzigzag(b.uvarint()) }

func (b *binBuf) byte() byte {
	if b.err != nil {
		return 0
	}
	if b.pos >= len(b.b) {
		b.fail("truncated chunk")
		return 0
	}
	v := b.b[b.pos]
	b.pos++
	return v
}

func (b *binBuf) bytes(n int) []byte {
	if b.err != nil {
		return nil
	}
	if n < 0 || n > b.rem() {
		b.fail("truncated chunk")
		return nil
	}
	v := b.b[b.pos : b.pos+n]
	b.pos += n
	return v
}

// count reads an element count and rejects values that could not fit in the
// remaining payload (each element is at least one byte), so corrupt counts
// never drive huge allocations.
func (b *binBuf) count(what string) int {
	v := b.uvarint()
	if b.err != nil {
		return 0
	}
	if v > uint64(b.rem()) {
		b.fail("%s count %d exceeds chunk payload", what, v)
		return 0
	}
	return int(v)
}

func (b *binBuf) str(intern func([]byte) string) string {
	n := b.count("string length")
	raw := b.bytes(n)
	if b.err != nil {
		return ""
	}
	return intern(raw)
}

// readBinChunk reads the next chunk through the shared CRC frame reader,
// prefixing failures with the codec name. io.EOF means a clean end of input
// at a chunk boundary — callers decide whether that is legal there.
func readBinChunk(cr *ChunkReader) (byte, []byte, error) {
	kind, payload, err := cr.ReadChunk()
	if err != nil && err != io.EOF {
		return 0, nil, fmt.Errorf("trace: bin: %w", err)
	}
	return kind, payload, err
}

// binPreallocCap bounds a pre-sized catalog allocation whose claimed count
// the payload cannot back.
const binPreallocCap = 1 << 16

// binPrealloc returns the capacity to pre-size a catalog slice with. A count
// of records that fits the rest of the payload at minRecord bytes each is
// taken at its word — the allocation is then bounded by a multiple of bytes
// actually received, and an honest catalog is allocated once, not grown
// through appends that copy it several times over. A count the payload cannot
// hold is corrupt; decoding will fail on it, and until then it gets the cap.
func binPrealloc(n, rem, minRecord int) int {
	if n <= rem/minRecord {
		return n
	}
	return min(n, binPreallocCap)
}

// decodeBinCatalog parses the stream's first chunk, which must be the
// catalog. behind, if not nil, is told every megabyte how much of the payload
// the decode is done with, in each of its two passes over the file records.
func decodeBinCatalog(payload []byte, behind func(done int)) (files []File, users []User, sites []Site, err error) {
	if payload[0] != binChunkKindCatalog {
		return nil, nil, nil, fmt.Errorf("trace: bin: first chunk kind %q, want catalog", payload[0])
	}
	b := &binBuf{b: payload, pos: 1}
	nSites := b.count("site")
	sites = make([]Site, 0, binPrealloc(nSites, b.rem(), 3))
	for i := 0; i < nSites && b.err == nil; i++ {
		name, domain := b.str(binOwnString), b.str(binOwnString)
		sites = append(sites, Site{ID: SiteID(i), Name: name, Domain: domain, Nodes: int(b.zvarint())})
	}
	nUsers := b.count("user")
	users = make([]User, 0, binPrealloc(nUsers, b.rem(), 2))
	for i := 0; i < nUsers && b.err == nil; i++ {
		name, site := b.str(binOwnString), b.uvarint()
		if b.err == nil && site >= uint64(nSites) {
			b.fail("user %d references unknown site %d", i, site)
		}
		users = append(users, User{ID: UserID(i), Name: name, Site: SiteID(site)})
	}
	nFiles := b.count("file")
	files = make([]File, 0, binPrealloc(nFiles, b.rem(), 3))
	// File names are unique, so no interner; they are copied off the payload
	// into one arena, sized by a skip pass over the records, and not
	// allocated one by one: half a million tiny strings are the rest of
	// catalog decode time and of the collector's marking after it.
	var arena strings.Builder
	if cap(files) == nFiles {
		arena.Grow(nameBytes(b.b, b.pos, nFiles, behind))
	}
	own := func(raw []byte) string {
		arena.Write(raw)
		all := arena.String()
		return all[len(all)-len(raw):]
	}
	tell := progress{behind: behind}
	for i := 0; i < nFiles && b.err == nil; i++ {
		tell.at(b.pos)
		name, size, tier := b.str(own), b.uvarint(), b.byte()
		if b.err == nil && size > 1<<62 {
			b.fail("file %d size %d out of range", i, size)
		}
		if b.err == nil && int(tier) >= NumTiers {
			b.fail("file %d has bad tier %d", i, tier)
		}
		files = append(files, File{ID: FileID(i), Name: name, Size: int64(size), Tier: Tier(tier)})
	}
	if b.err == nil && b.rem() != 0 {
		b.fail("%d trailing bytes", b.rem())
	}
	if b.err != nil {
		return nil, nil, nil, fmt.Errorf("trace: bin: catalog chunk: %w", b.err)
	}
	return files, users, sites, nil
}

// nameBytes sums the name lengths of the n file records {str name; size;
// byte tier} from p[pos:], up to the first that does not parse: never more
// than p holds. behind is decodeBinCatalog's.
func nameBytes(p []byte, pos, n int, behind func(done int)) int {
	b := &binBuf{b: p, pos: pos}
	tell := progress{behind: behind}
	total := 0
	for i := 0; i < n; i++ {
		tell.at(b.pos)
		l := len(b.bytes(b.count("string length")))
		b.uvarint()
		b.byte()
		if b.err != nil {
			break
		}
		total += l
	}
	return total
}

// progress calls behind each time a decode cursor has passed another
// megabyte of the payload; a nil behind is never called.
type progress struct {
	behind func(done int)
	next   int // the next megabyte boundary
}

func (p *progress) at(pos int) {
	if pos >= p.next && p.behind != nil {
		p.next = pos&^(1<<20-1) + 1<<20
		p.behind(pos)
	}
}

func binOwnString(b []byte) string { return string(b) }

// decodeBinEnd parses an 'E' payload and returns the declared job total.
func decodeBinEnd(payload []byte) (uint64, error) {
	b := &binBuf{b: payload, pos: 1}
	total := b.uvarint()
	if b.err == nil && b.rem() != 0 {
		b.fail("%d trailing bytes", b.rem())
	}
	if b.err != nil {
		return 0, fmt.Errorf("trace: bin: end chunk: %w", b.err)
	}
	return total, nil
}

// binJobChunk holds one decoded job chunk in columnar form. All backing
// arrays are reused across chunks by the streaming decoder, so steady-state
// decoding allocates only for names and triples never seen before.
type binJobChunk struct {
	n       int
	firstID int64

	users    []int32
	sites    []int32
	tiers    []byte
	families []byte
	nodes    []uint32 // interner name numbers
	apps     []uint32
	versions []uint32
	execs    []*Exec
	starts   []int64
	durs     []int64
	files    [][]FileID
	outputs  [][]FileID

	strs      []uint32 // the chunk's string table, as interner name numbers
	listArena []FileID
	lists     [][]FileID
}

// decode parses a 'J' payload. intern is the decoding goroutine's: it numbers
// the chunk's string table stream-wide, so each row's Exec is found by the
// three numbers its columns point at, one shared value per triple. retain is
// for a caller whose jobs go on aliasing their file lists after the next
// chunk is decoded: the lists are moved out of the reused arena into one of
// exactly their size.
func (c *binJobChunk) decode(payload []byte, nFiles, nUsers, nSites int, intern *interner, retain bool) error {
	b := &binBuf{b: payload, pos: 1}
	c.n = b.count("job")
	c.firstID = int64(b.uvarint())
	if b.err == nil && c.firstID > maxBinAbsStart {
		b.fail("first job ID %d out of range", c.firstID)
	}
	nStrs := b.count("string")
	c.strs = c.strs[:0]
	for i := 0; i < nStrs && b.err == nil; i++ {
		raw := b.bytes(b.count("string length"))
		if b.err == nil {
			c.strs = append(c.strs, intern.name(raw))
		}
	}
	nLists := b.count("list")
	c.listArena = c.listArena[:0]
	c.lists = c.lists[:0]
	if b.err != nil {
		return binChunkErr(b)
	}

	// The list table and the job columns are the decode hot path: hundreds
	// of thousands of varints per trace. They are decoded with a manual
	// cursor — the one-byte case inline, multi-byte through binary.Uvarint
	// (which the compiler inlines) — so the loops make no function calls
	// per value. b.pos is synced at every exit, keeping error positions and
	// the trailing-bytes check exact.
	p := b.b
	pos := b.pos
	for i := 0; i < nLists; i++ {
		var nRuns uint64
		if pos < len(p) && p[pos] < 0x80 {
			nRuns = uint64(p[pos])
			pos++
		} else if v, w := binary.Uvarint(p[pos:]); w > 0 {
			nRuns = v
			pos += w
		} else {
			b.pos = pos
			b.fail("bad varint")
			return binChunkErr(b)
		}
		if nRuns > uint64(len(p)-pos) {
			b.pos = pos
			b.fail("run count %d exceeds chunk payload", nRuns)
			return binChunkErr(b)
		}
		prev := int64(0)
		from := len(c.listArena)
		for r := uint64(0); r < nRuns; r++ {
			var u uint64
			if pos < len(p) && p[pos] < 0x80 {
				u = uint64(p[pos])
				pos++
			} else if v, w := binary.Uvarint(p[pos:]); w > 0 {
				u = v
				pos += w
			} else {
				b.pos = pos
				b.fail("bad varint")
				return binChunkErr(b)
			}
			start := prev + (int64(u>>1) ^ -int64(u&1))
			var length uint64
			if pos < len(p) && p[pos] < 0x80 {
				length = uint64(p[pos])
				pos++
			} else if v, w := binary.Uvarint(p[pos:]); w > 0 {
				length = v
				pos += w
			} else {
				b.pos = pos
				b.fail("bad varint")
				return binChunkErr(b)
			}
			if length == 0 || length > uint64(MaxJobFiles) {
				b.pos = pos
				b.fail("list %d run length %d out of range", i, length)
				return binChunkErr(b)
			}
			if start < 0 || start+int64(length) > int64(nFiles) {
				b.pos = pos
				b.fail("list %d references file IDs %d..%d outside catalog of %d", i, start, start+int64(length)-1, nFiles)
				return binChunkErr(b)
			}
			if len(c.listArena)-from+int(length) > MaxJobFiles ||
				len(c.listArena)+int(length) > MaxJobFiles {
				b.pos = pos
				b.fail("chunk file-list entries exceed limit %d", MaxJobFiles)
				return binChunkErr(b)
			}
			// Extend the arena without zeroing when capacity allows (the
			// reused buffer makes that the steady state), then fill by
			// index — no per-element append, no memclr.
			at := len(c.listArena)
			if cap(c.listArena)-at >= int(length) {
				c.listArena = c.listArena[:at+int(length)]
			} else {
				c.listArena = append(c.listArena, make([]FileID, length)...)
			}
			seg := c.listArena[at : at+int(length)]
			for k := range seg {
				seg[k] = FileID(start) + FileID(k)
			}
			prev = start + int64(length)
		}
		c.lists = append(c.lists, c.listArena[from:len(c.listArena):len(c.listArena)])
	}
	b.pos = pos
	if retain {
		// The lists lie in table order in the arena, back to back.
		own := make([]FileID, len(c.listArena))
		copy(own, c.listArena)
		at := 0
		for i, l := range c.lists {
			c.lists[i] = own[at : at+len(l) : at+len(l)]
			at += len(l)
		}
	}

	c.users = b.u32col(c.users[:0], c.n, nUsers, "user ID")
	c.sites = b.u32col(c.sites[:0], c.n, nSites, "site ID")
	c.tiers = append(c.tiers[:0], b.bytes(c.n)...)
	c.families = append(c.families[:0], b.bytes(c.n)...)
	for i := 0; i < c.n && b.err == nil; i++ {
		if int(c.tiers[i]) >= NumTiers {
			b.fail("job %d has bad tier %d", i, c.tiers[i])
		}
		if int(c.families[i]) >= NumFamilies {
			b.fail("job %d has bad family %d", i, c.families[i])
		}
	}
	c.nodes = b.strcol(c.nodes[:0], c.n, c.strs, "node")
	c.apps = b.strcol(c.apps[:0], c.n, c.strs, "app")
	c.versions = b.strcol(c.versions[:0], c.n, c.strs, "version")
	c.execs = c.execs[:0]
	if b.err == nil {
		for i := 0; i < c.n; i++ {
			c.execs = append(c.execs, intern.exec(c.nodes[i], c.apps[i], c.versions[i]))
		}
	}
	c.starts = b.startcol(c.starts[:0], c.n)
	c.durs = b.durcol(c.durs[:0], c.n)
	c.files = b.listcol(c.files[:0], c.n, c.lists, "input")
	c.outputs = b.listcol(c.outputs[:0], c.n, c.lists, "output")
	if b.err == nil && b.rem() != 0 {
		b.fail("%d trailing bytes", b.rem())
	}
	if b.err != nil {
		return binChunkErr(b)
	}
	return nil
}

func binChunkErr(b *binBuf) error {
	return fmt.Errorf("trace: bin: job chunk: %w", b.err)
}

// u32col decodes n uvarints < max — a manual-cursor column loop (see the
// comment in binJobChunk.decode).
func (b *binBuf) u32col(dst []int32, n, max int, what string) []int32 {
	if b.err != nil {
		return dst
	}
	p := b.b
	pos := b.pos
	for i := 0; i < n; i++ {
		var u uint64
		if pos < len(p) && p[pos] < 0x80 {
			u = uint64(p[pos])
			pos++
		} else if v, w := binary.Uvarint(p[pos:]); w > 0 {
			u = v
			pos += w
		} else {
			b.pos = pos
			b.fail("bad varint")
			return dst
		}
		if u >= uint64(max) {
			b.pos = pos
			b.fail("job %d: %s %d out of range", i, what, u)
			return dst
		}
		dst = append(dst, int32(u))
	}
	b.pos = pos
	return dst
}

// strcol decodes n string-table indexes into the names' interner numbers.
func (b *binBuf) strcol(dst []uint32, n int, tab []uint32, what string) []uint32 {
	if b.err != nil {
		return dst
	}
	p := b.b
	pos := b.pos
	for i := 0; i < n; i++ {
		var u uint64
		if pos < len(p) && p[pos] < 0x80 {
			u = uint64(p[pos])
			pos++
		} else if v, w := binary.Uvarint(p[pos:]); w > 0 {
			u = v
			pos += w
		} else {
			b.pos = pos
			b.fail("bad varint")
			return dst
		}
		if u >= uint64(len(tab)) {
			b.pos = pos
			b.fail("job %d: %s string index %d out of range", i, what, u)
			return dst
		}
		dst = append(dst, tab[u])
	}
	b.pos = pos
	return dst
}

// startcol decodes n zigzag start-time deltas into absolute seconds.
func (b *binBuf) startcol(dst []int64, n int) []int64 {
	if b.err != nil {
		return dst
	}
	p := b.b
	pos := b.pos
	prev := int64(0)
	for i := 0; i < n; i++ {
		var u uint64
		if pos < len(p) && p[pos] < 0x80 {
			u = uint64(p[pos])
			pos++
		} else if v, w := binary.Uvarint(p[pos:]); w > 0 {
			u = v
			pos += w
		} else {
			b.pos = pos
			b.fail("bad varint")
			return dst
		}
		v := prev + (int64(u>>1) ^ -int64(u&1))
		if v < -maxBinAbsStart || v > maxBinAbsStart {
			b.pos = pos
			b.fail("job %d start time %d out of range", i, v)
			return dst
		}
		dst = append(dst, v)
		prev = v
	}
	b.pos = pos
	return dst
}

// durcol decodes n duration-seconds values.
func (b *binBuf) durcol(dst []int64, n int) []int64 {
	if b.err != nil {
		return dst
	}
	p := b.b
	pos := b.pos
	for i := 0; i < n; i++ {
		var u uint64
		if pos < len(p) && p[pos] < 0x80 {
			u = uint64(p[pos])
			pos++
		} else if v, w := binary.Uvarint(p[pos:]); w > 0 {
			u = v
			pos += w
		} else {
			b.pos = pos
			b.fail("bad varint")
			return dst
		}
		if u > uint64(maxBinDurSeconds) {
			b.pos = pos
			b.fail("job %d duration %d out of range", i, u)
			return dst
		}
		dst = append(dst, int64(u))
	}
	b.pos = pos
	return dst
}

// listcol decodes n list-table indexes into their file-ID slices (0 = nil).
func (b *binBuf) listcol(dst [][]FileID, n int, lists [][]FileID, what string) [][]FileID {
	if b.err != nil {
		return dst
	}
	p := b.b
	pos := b.pos
	for i := 0; i < n; i++ {
		var u uint64
		if pos < len(p) && p[pos] < 0x80 {
			u = uint64(p[pos])
			pos++
		} else if v, w := binary.Uvarint(p[pos:]); w > 0 {
			u = v
			pos += w
		} else {
			b.pos = pos
			b.fail("bad varint")
			return dst
		}
		if u > uint64(len(lists)) {
			b.pos = pos
			b.fail("job %d: %s list index %d out of range", i, what, u)
			return dst
		}
		if u == 0 {
			dst = append(dst, nil)
		} else {
			dst = append(dst, lists[u-1])
		}
	}
	b.pos = pos
	return dst
}

// fill writes row i into j.
func (c *binJobChunk) fill(j *Job, i int) {
	j.ID = JobID(c.firstID + int64(i))
	j.User = UserID(c.users[i])
	j.Site = SiteID(c.sites[i])
	j.Tier = Tier(c.tiers[i])
	j.Family = AppFamily(c.families[i])
	j.Exec = c.execs[i]
	j.Start = time.Unix(c.starts[i], 0).UTC()
	j.End = time.Unix(c.starts[i]+c.durs[i], 0).UTC()
	j.Files = c.files[i]
	j.Outputs = c.outputs[i]
}

// interner is one decoding goroutine's table of node, application and version
// names and of the Execs made of them. A name is hashed once per string-table
// entry of a bin chunk (per field of a text record) and numbered in
// first-seen order; a triple is looked up by its three numbers, so the decode
// allocates each name and each Exec once per stream.
type interner struct {
	ids   map[string]uint32
	names []string
	execs map[[3]uint32]*Exec
}

func newInterner() *interner {
	return &interner{ids: make(map[string]uint32), execs: make(map[[3]uint32]*Exec)}
}

// name returns b's number, copying b on first sight.
func (in *interner) name(b []byte) uint32 {
	if id, ok := in.ids[string(b)]; ok {
		return id
	}
	id, s := uint32(len(in.names)), string(b)
	in.names = append(in.names, s)
	in.ids[s] = id
	return id
}

// exec returns the shared Exec of a triple of name numbers; nil for three
// empty names, which is how a job without one round-trips.
func (in *interner) exec(node, app, version uint32) *Exec {
	k := [3]uint32{node, app, version}
	if e, ok := in.execs[k]; ok {
		return e
	}
	var e *Exec
	if n, a, v := in.names[node], in.names[app], in.names[version]; n != "" || a != "" || v != "" {
		e = &Exec{Node: n, App: a, Version: v}
	}
	in.execs[k] = e
	return e
}

// binDecoder reads what follows the catalog in a filecule-bin/v1 stream —
// job chunks, then exactly one end chunk, then clean EOF — decoding the job
// chunks one at a time into reused column buffers and holding them to the
// rest of the grammar: job IDs run on from chunk to chunk, and the end
// chunk's total is the number seen.
type binDecoder struct {
	cr    *ChunkReader
	files []File
	users []User
	sites []Site

	chunk  binJobChunk
	intern *interner
	seen   int64 // jobs in the chunks decoded so far
}

// openBinStream reads the magic line and the catalog chunk from r and
// returns a decoder positioned before the first job chunk.
func openBinStream(r io.Reader) (*binDecoder, error) {
	br := newBufReader(r)
	var magic [len(binMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: bin: bad magic: %w", err)
	}
	if string(magic[:]) != binMagic {
		return nil, fmt.Errorf("trace: bin: bad magic %q (want %q)", magic[:], binMagic)
	}
	cr := NewChunkReader(br)
	_, payload, err := readBinChunk(cr)
	if err == io.EOF {
		return nil, fmt.Errorf("trace: bin: missing catalog chunk")
	}
	if err != nil {
		return nil, err
	}
	files, users, sites, err := decodeBinCatalog(payload, nil)
	if err != nil {
		return nil, err
	}
	return &binDecoder{cr: cr, files: files, users: users, sites: sites, intern: newInterner()}, nil
}

// nextPayload returns the next job-chunk payload, CRC-verified and valid
// until the following call, or io.EOF once the end chunk has been read,
// nothing follows it, and its total matches the jobs seen.
func (d *binDecoder) nextPayload() ([]byte, error) {
	kind, payload, err := readBinChunk(d.cr)
	if err == io.EOF {
		return nil, fmt.Errorf("trace: bin: truncated stream (missing end chunk)")
	}
	if err != nil {
		return nil, err
	}
	switch kind {
	case binChunkKindJobs:
		return payload, nil
	case binChunkKindEnd:
		total, err := decodeBinEnd(payload)
		if err != nil {
			return nil, err
		}
		if _, _, err := readBinChunk(d.cr); err != io.EOF {
			return nil, fmt.Errorf("trace: bin: data after end chunk")
		}
		if int64(total) != d.seen {
			return nil, fmt.Errorf("trace: bin: end chunk declares %d jobs, stream had %d", int64(total), d.seen)
		}
		return nil, io.EOF
	case binChunkKindCatalog:
		return nil, fmt.Errorf("trace: bin: duplicate catalog chunk")
	default:
		return nil, fmt.Errorf("trace: bin: unknown chunk kind %q", kind)
	}
}

// nextChunk decodes the following job chunk into d.chunk, or returns io.EOF
// after the last one. retain is decode's: the materialiser's jobs keep their
// chunk's file-ID arena, a Source's do not.
func (d *binDecoder) nextChunk(retain bool) error {
	payload, err := d.nextPayload()
	if err != nil {
		return err
	}
	c := &d.chunk
	if err := c.decode(payload, len(d.files), len(d.users), len(d.sites), d.intern, retain); err != nil {
		return err
	}
	if c.firstID != d.seen {
		return fmt.Errorf("trace: bin: job chunk starts at ID %d, want %d", c.firstID, d.seen)
	}
	d.seen += int64(c.n)
	return nil
}

// materialize drains the stream into a trace on the calling goroutine,
// interning strings across the whole stream. Decoded jobs are written
// straight into the trace — no per-chunk job slices or payload copies.
func (d *binDecoder) materialize() (*Trace, error) {
	t := &Trace{Files: d.files, Users: d.users, Sites: d.sites}
	c := &d.chunk
	for {
		if err := d.nextChunk(true); err == io.EOF {
			return t, nil
		} else if err != nil {
			return nil, err
		}
		// fill writes every Job field, so extend without the append zeroing
		// pass when capacity allows. len only ever grows, so the region past
		// it is still zeroed from allocation.
		base := len(t.Jobs)
		if cap(t.Jobs)-base >= c.n {
			t.Jobs = t.Jobs[:base+c.n]
		} else {
			t.Jobs = append(t.Jobs, make([]Job, c.n)...)
		}
		for i := 0; i < c.n; i++ {
			c.fill(&t.Jobs[base+i], i)
		}
	}
}

// validated is the last step of every materializing read. The decode has
// already checked each condition Validate checks (FuzzBinRoundTrip and
// FuzzMmapDecode hold every decoder to it), so the pass finds nothing; it
// stays for the collector. A cycle that starts late in ReadFile's parallel
// fill finishes marking during this pass, before the caller allocates on;
// without it the cycle counts those allocations live, the next heap goal
// rises with them, and ingest-durable's peak RSS rose 2.4-3.5 % (CHANGES.md,
// "the second core on the trace decode").
func validated(t *Trace, err error) (*Trace, error) {
	if err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// BinSource streams jobs out of a filecule-bin/v1 stream one chunk at a
// time, reusing all decode buffers: draining an N-job trace allocates
// O(catalog + distinct strings + chunk high-water mark), not O(N).
type BinSource struct {
	d   *binDecoder
	idx int
	job Job

	err    error
	closed bool
}

// NewBinSource reads the magic and catalog chunk from r and returns a
// Source positioned before the first job.
func NewBinSource(r io.Reader) (*BinSource, error) {
	d, err := openBinStream(r)
	if err != nil {
		return nil, err
	}
	return &BinSource{d: d}, nil
}

// Files returns the file catalog.
func (s *BinSource) Files() []File { return s.d.files }

// Users returns the user catalog.
func (s *BinSource) Users() []User { return s.d.users }

// Sites returns the site catalog.
func (s *BinSource) Sites() []Site { return s.d.sites }

// Next returns the next job. The job and its slices are invalidated by the
// Next call that crosses into the following chunk.
func (s *BinSource) Next() (*Job, error) {
	if s.closed {
		return nil, fmt.Errorf("trace: source is closed")
	}
	if s.err != nil {
		return nil, s.err
	}
	for s.idx >= s.d.chunk.n {
		if err := s.d.nextChunk(false); err != nil {
			s.err = err
			return nil, err
		}
		s.idx = 0
	}
	s.d.chunk.fill(&s.job, s.idx)
	s.idx++
	return &s.job, nil
}

// Close marks the source closed. The underlying reader is owned by the
// caller.
func (s *BinSource) Close() error {
	s.closed = true
	return nil
}

// ReadBin materializes a filecule-bin/v1 stream into a validated Trace,
// decoding chunks in line with buffers reused across the stream. A stream
// cannot be decoded in place or out of order, so a worker pool here only
// buys payload copies (CHANGES.md, "one filecule-bin decoder", has the
// measurement); parallel materialization belongs to ReadFile's mapped fast
// path.
func ReadBin(r io.Reader) (*Trace, error) {
	d, err := openBinStream(r)
	if err != nil {
		return nil, err
	}
	return validated(d.materialize())
}
