package workload

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"time"

	"filecule/internal/dist"
	"filecule/internal/trace"
)

// Meta KV-cache CSV adapter: maps a key-value cache request trace (the
// public Meta kvcache_traces_*.csv format, see SNIPPETS.md snippet 3) onto
// the filecule workload model. Keys are interned to dense FileIDs in
// first-appearance order, a file's size is the largest key_size+size
// observed for its key, and each window of consecutive GET/SET requests
// becomes one job whose input list is the window's keys in request order.
// DELETEs (and unrecognized ops) carry no read/admit signal for a cache
// study, so they are skipped.
//
// The adapter reads the file twice — pass one builds the catalog, pass two
// streams jobs — so memory stays O(catalog + window) no matter how many
// rows the trace holds.

// kvEpoch anchors the synthesized job timeline: the source format carries
// no timestamps, so jobs are spaced one second apart from a fixed epoch.
var kvEpoch = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

// KVOp classifies one trace row's operation.
type KVOp uint8

// Operations in the Meta KV trace format.
const (
	KVGet KVOp = iota
	KVSet
	KVDelete
	KVOther
)

// KVRow is one parsed trace row. Key aliases the reader's internal buffer
// and is only valid until the next Next call.
type KVRow struct {
	Op      KVOp
	Key     []byte
	KeySize int64
	Size    int64
}

// KVReader streams rows of a KV-cache CSV with zero allocations per row in
// the steady state. The first line may be a header naming the columns (any
// order; matched case-insensitively on "op", "key", "key_size", "size");
// headerless files are read with the fixed column order op,key,key_size,size.
type KVReader struct {
	br   *bufio.Reader
	line int64 // 1-based line number of the row last returned

	// Column indices, -1 when the column is absent.
	idxOp, idxKey, idxKeySize, idxSize int
	ncols                              int

	fields  [][]byte // reused per-row field slices
	lineBuf []byte   // spill buffer for lines longer than the bufio window
	pending []byte   // headerless first line, replayed by the first Next
}

// NewKVReader wraps r. It consumes the first line to detect the header.
func NewKVReader(r io.Reader) (*KVReader, error) {
	kr := &KVReader{br: bufio.NewReaderSize(r, 256<<10)}
	first, err := kr.readLine()
	if err == io.EOF {
		// Empty input: zero rows, fixed layout.
		kr.setFixedLayout()
		return kr, nil
	}
	if err != nil {
		return nil, err
	}
	if kr.detectHeader(first) {
		return kr, nil
	}
	kr.setFixedLayout()
	// The first line was data; hand it back to the first Next call.
	kr.pending = append(kr.pending, first...)
	kr.line = 0
	return kr, nil
}

func (r *KVReader) setFixedLayout() {
	r.idxOp, r.idxKey, r.idxKeySize, r.idxSize = 0, 1, 2, 3
	r.ncols = 4
}

// detectHeader returns true if line names the columns, recording their
// indices. A header must name at least "op" and "key".
func (r *KVReader) detectHeader(line []byte) bool {
	r.idxOp, r.idxKey, r.idxKeySize, r.idxSize = -1, -1, -1, -1
	n := r.split(line)
	for i := 0; i < n; i++ {
		switch strings.ToLower(string(bytes.TrimSpace(r.fields[i]))) {
		case "op":
			r.idxOp = i
		case "key":
			r.idxKey = i
		case "key_size":
			r.idxKeySize = i
		case "size":
			r.idxSize = i
		}
	}
	if r.idxOp < 0 || r.idxKey < 0 {
		return false
	}
	r.ncols = n
	return true
}

// readLine returns the next line without its terminator, handling lines
// longer than the bufio window and CRLF endings. The returned slice is
// valid until the next readLine call.
func (r *KVReader) readLine() ([]byte, error) {
	r.lineBuf = r.lineBuf[:0]
	for {
		chunk, err := r.br.ReadSlice('\n')
		if err == nil || err == io.EOF {
			var line []byte
			if len(r.lineBuf) == 0 {
				line = chunk
			} else {
				r.lineBuf = append(r.lineBuf, chunk...)
				line = r.lineBuf
			}
			if len(line) == 0 && err == io.EOF {
				return nil, io.EOF
			}
			r.line++
			line = bytes.TrimSuffix(line, []byte("\n"))
			line = bytes.TrimSuffix(line, []byte("\r"))
			return line, nil
		}
		if err == bufio.ErrBufferFull {
			r.lineBuf = append(r.lineBuf, chunk...)
			continue
		}
		return nil, err
	}
}

// split breaks line into comma-separated fields in r.fields, returning the
// count. Field slices alias line.
func (r *KVReader) split(line []byte) int {
	r.fields = r.fields[:0]
	for {
		i := bytes.IndexByte(line, ',')
		if i < 0 {
			r.fields = append(r.fields, line)
			return len(r.fields)
		}
		r.fields = append(r.fields, line[:i])
		line = line[i+1:]
	}
}

// parseSize parses a non-negative decimal; empty fields are 0 (the Meta
// traces leave size columns blank for some ops).
func parseSize(b []byte) (int64, bool) {
	b = bytes.TrimSpace(b)
	if len(b) == 0 {
		return 0, true
	}
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
		if n < 0 { // overflow
			return 0, false
		}
	}
	return n, true
}

// classifyOp maps an op field to a KVOp. Meta traces carry GET/SET/DELETE
// plus lease/variant ops; anything starting with GET counts as a read and
// anything starting with SET as a write.
func classifyOp(b []byte) KVOp {
	b = bytes.TrimSpace(b)
	if len(b) >= 3 {
		switch {
		case (b[0] == 'G' || b[0] == 'g') && (b[1] == 'E' || b[1] == 'e') && (b[2] == 'T' || b[2] == 't'):
			return KVGet
		case (b[0] == 'S' || b[0] == 's') && (b[1] == 'E' || b[1] == 'e') && (b[2] == 'T' || b[2] == 't'):
			return KVSet
		case (b[0] == 'D' || b[0] == 'd') && (b[1] == 'E' || b[1] == 'e') && (b[2] == 'L' || b[2] == 'l'):
			return KVDelete
		}
	}
	return KVOther
}

// Next parses the next row into row. Row fields alias internal buffers and
// are invalidated by the following Next. Returns io.EOF at end of input and
// a line-numbered error on malformed rows.
func (r *KVReader) Next(row *KVRow) error {
	var line []byte
	for {
		if r.pending != nil {
			line, r.pending = r.pending, nil
			r.line = 1
		} else {
			var err error
			line, err = r.readLine()
			if err != nil {
				return err
			}
		}
		if len(bytes.TrimSpace(line)) != 0 {
			break // skip blank lines
		}
	}
	n := r.split(line)
	need := r.idxOp
	if r.idxKey > need {
		need = r.idxKey
	}
	if n <= need {
		return fmt.Errorf("kv-csv: line %d: %d fields, need at least %d", r.line, n, need+1)
	}
	row.Op = classifyOp(r.fields[r.idxOp])
	row.Key = r.fields[r.idxKey]
	row.KeySize, row.Size = 0, 0
	if r.idxKeySize >= 0 && r.idxKeySize < n {
		v, ok := parseSize(r.fields[r.idxKeySize])
		if !ok {
			return fmt.Errorf("kv-csv: line %d: bad key_size %q", r.line, r.fields[r.idxKeySize])
		}
		row.KeySize = v
	}
	if r.idxSize >= 0 && r.idxSize < n {
		v, ok := parseSize(r.fields[r.idxSize])
		if !ok {
			return fmt.Errorf("kv-csv: line %d: bad size %q", r.line, r.fields[r.idxSize])
		}
		row.Size = v
	}
	return nil
}

// Line returns the 1-based line number of the row last returned by Next.
func (r *KVReader) Line() int64 { return r.line }

// openKV builds a streaming Source over a KV-cache CSV. open must return a
// fresh reader over the same bytes on each call (the trace is read twice:
// catalog pass, then job pass).
func openKV(open func() (io.ReadCloser, error), window int) (trace.Source, error) {
	if window < 1 {
		return nil, fmt.Errorf("kv-csv: window %d must be >= 1", window)
	}
	// Pass 1: catalog. Intern keys in first-appearance order; file size is
	// the largest key_size+size seen for the key.
	rc, err := open()
	if err != nil {
		return nil, err
	}
	kr, err := NewKVReader(rc)
	if err != nil {
		rc.Close()
		return nil, err
	}
	b := trace.NewBuilder()
	site := b.Site("kv", ".com", 1)
	user := b.User("kv-client", site)
	ids := make(map[string]trace.FileID)
	sizes := []int64{}
	var rows int64
	var row KVRow
	for {
		err := kr.Next(&row)
		if err == io.EOF {
			break
		}
		if err != nil {
			rc.Close()
			return nil, err
		}
		if row.Op != KVGet && row.Op != KVSet {
			continue
		}
		sz := row.KeySize + row.Size
		if sz < 1 {
			sz = 1
		}
		id, ok := ids[string(row.Key)]
		if !ok {
			id = trace.FileID(len(ids))
			ids[string(row.Key)] = id
			sizes = append(sizes, sz)
		} else if sz > sizes[id] {
			sizes[id] = sz
		}
		rows++
	}
	if err := rc.Close(); err != nil {
		return nil, err
	}
	// Register files in first-appearance (ID) order. Builder assigns dense
	// IDs in call order, matching the intern order.
	names := make([]string, len(ids))
	for k, id := range ids {
		names[id] = k
	}
	for i, name := range names {
		b.File(name, sizes[i], trace.TierOther)
	}

	// Pass 2: stream jobs.
	rc, err = open()
	if err != nil {
		return nil, err
	}
	kr, err = NewKVReader(rc)
	if err != nil {
		rc.Close()
		return nil, err
	}
	return &kvSource{
		b: b, rc: rc, kr: kr, ids: ids,
		user: user, site: site, window: window, rows: rows,
	}, nil
}

// OpenKVCSV opens path (gzip-decoded when it ends in .gz) as a KV-cache CSV
// workload with the given request window per job.
func OpenKVCSV(path string, window int) (trace.Source, error) {
	open := func() (io.ReadCloser, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		if !strings.HasSuffix(path, ".gz") {
			return f, nil
		}
		zr, err := gzip.NewReader(bufio.NewReaderSize(f, 256<<10))
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &gzipReadCloser{zr: zr, f: f}, nil
	}
	return openKV(open, window)
}

// openKVBytes is the in-memory variant used by tests and the fuzz target.
func openKVBytes(data []byte, window int) (trace.Source, error) {
	return openKV(func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(data)), nil
	}, window)
}

type gzipReadCloser struct {
	zr *gzip.Reader
	f  *os.File
}

func (g *gzipReadCloser) Read(p []byte) (int, error) { return g.zr.Read(p) }
func (g *gzipReadCloser) Close() error {
	err := g.zr.Close()
	if cerr := g.f.Close(); err == nil {
		err = cerr
	}
	return err
}

type kvSource struct {
	b      *trace.Builder
	rc     io.ReadCloser
	kr     *KVReader
	ids    map[string]trace.FileID
	user   trace.UserID
	site   trace.SiteID
	window int
	rows   int64 // usable rows counted in pass 1

	emitted int64 // rows consumed in pass 2
	jobs    int64
	job     trace.Job
	fileBuf []trace.FileID
	closed  bool
	done    bool
}

func (s *kvSource) Files() []trace.File { return s.b.Files() }
func (s *kvSource) Users() []trace.User { return s.b.Users() }
func (s *kvSource) Sites() []trace.Site { return s.b.Sites() }

func (s *kvSource) Next() (*trace.Job, error) {
	if s.closed {
		return nil, fmt.Errorf("kv-csv: source is closed")
	}
	if s.done {
		return nil, io.EOF
	}
	s.fileBuf = s.fileBuf[:0]
	var row KVRow
	for len(s.fileBuf) < s.window {
		err := s.kr.Next(&row)
		if err == io.EOF {
			s.done = true
			break
		}
		if err != nil {
			return nil, err
		}
		if row.Op != KVGet && row.Op != KVSet {
			continue
		}
		id, ok := s.ids[string(row.Key)]
		if !ok {
			return nil, fmt.Errorf("kv-csv: line %d: key appeared in pass 2 but not pass 1 (file changed while reading?)", s.kr.Line())
		}
		s.fileBuf = append(s.fileBuf, id)
		s.emitted++
	}
	if len(s.fileBuf) == 0 {
		return nil, io.EOF
	}
	if s.emitted > s.rows {
		return nil, fmt.Errorf("kv-csv: more usable rows in pass 2 than pass 1 (file changed while reading?)")
	}
	start := kvEpoch.Add(time.Duration(s.jobs) * time.Second)
	s.job = trace.Job{
		ID:     trace.JobID(s.jobs),
		User:   s.user,
		Site:   s.site,
		Tier:   trace.TierOther,
		Family: trace.FamilyAnalysis,
		Exec:   kvExec,
		Start:  start,
		End:    start.Add(time.Second),
		Files:  s.fileBuf,
	}
	s.jobs++
	return &s.job, nil
}

// kvExec is what ran every job of a kv-csv trace: one shared value.
var kvExec = &trace.Exec{Node: "kv", App: "kvcache"}

func (s *kvSource) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	return s.rc.Close()
}

// GenKVCSV writes a deterministic synthetic trace in the Meta kvcache CSV
// format (header key,op,size,op_count,key_size): Zipf-popular keys, ~90%
// GET / 9% SET / 1% DELETE, lognormal value sizes. It exists so CI can
// exercise the kv-csv adapter hermetically; it is a format generator, not a
// workload model.
func GenKVCSV(w io.Writer, seed int64, keys, rows int) error {
	if keys < 1 || rows < 0 {
		return fmt.Errorf("kv-csv: gen needs keys >= 1, rows >= 0 (got %d, %d)", keys, rows)
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := dist.NewZipf(0.9, uint64(keys))
	sizeS := dist.LognormalFromMean(4096, 1.5)
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "key,op,size,op_count,key_size"); err != nil {
		return err
	}
	for i := 0; i < rows; i++ {
		k := zipf.Rank(rng)
		op := "GET"
		switch v := rng.Float64(); {
		case v < 0.01:
			op = "DELETE"
		case v < 0.10:
			op = "SET"
		}
		size := dist.ClampInt64(sizeS.Sample(rng), 1, 1<<20)
		if _, err := fmt.Fprintf(bw, "kv:%08x,%s,%d,1,%d\n", k, op, size, 16+k%48); err != nil {
			return err
		}
	}
	return bw.Flush()
}
