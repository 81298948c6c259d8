package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"time"
)

// Scanner is the incremental reader for the v1 text format: it parses the
// header and catalog records eagerly (they are small and must precede any
// job for streaming consumers to resolve references), then yields jobs one
// at a time through Next. Per-record buffers — the field scratch and the job's
// file-ID slices — are reused across calls and the job's Exec is interned, so
// scanning an N-job trace allocates O(catalog + distinct triples), not O(N).
//
// Scanner implements Source. Parse errors carry the 1-based line number and
// the offending record kind: "trace: line 1042: job: bad user ID \"x\"".
type Scanner struct {
	sc   *bufio.Scanner
	line int

	files []File
	users []User
	sites []Site

	// First job line encountered while scanning the catalog, stashed
	// because bufio.Scanner invalidates it on the next Scan.
	pending     []byte
	pendingLine int
	havePending bool

	job    Job
	nJobs  int
	fields [][]byte
	intern *interner // node/app/version names and their triples

	err    error // sticky
	closed bool
}

// NewScanner reads the header and catalog from r and returns a Scanner
// positioned before the first job. Catalog records (S/U/F) must precede all
// job records; the writer always emits them that way.
func NewScanner(r io.Reader) (*Scanner, error) {
	s := &Scanner{
		sc:     bufio.NewScanner(r),
		intern: newInterner(),
	}
	s.sc.Buffer(make([]byte, 1<<20), 1<<26)
	if !s.sc.Scan() {
		if err := s.sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("trace: empty input")
	}
	s.line = 1
	if header := bytes.TrimSpace(s.sc.Bytes()); string(header) != formatHeader {
		return nil, fmt.Errorf("trace: bad header %q (want %q)", header, formatHeader)
	}
	for s.sc.Scan() {
		s.line++
		rec := bytes.TrimSpace(s.sc.Bytes())
		if len(rec) == 0 || rec[0] == '#' {
			continue
		}
		s.fields = splitFields(s.fields, rec)
		kind := s.fields[0]
		var err error
		switch {
		case len(kind) == 1 && kind[0] == 'S':
			err = s.parseSite(s.fields[1:])
		case len(kind) == 1 && kind[0] == 'U':
			err = s.parseUser(s.fields[1:])
		case len(kind) == 1 && kind[0] == 'F':
			err = s.parseFile(s.fields[1:])
		case len(kind) == 1 && kind[0] == 'J':
			// Catalog complete; stash this first job for Next.
			s.pending = append(s.pending[:0], rec...)
			s.pendingLine = s.line
			s.havePending = true
			return s, s.finishCatalog()
		default:
			err = fmt.Errorf("trace: line %d: unknown record kind %q", s.line, kind)
		}
		if err != nil {
			return nil, err
		}
	}
	if err := s.sc.Err(); err != nil {
		return nil, err
	}
	return s, s.finishCatalog()
}

// finishCatalog validates cross-references that may legally be forward
// within the catalog block (a user record may precede its site's record).
func (s *Scanner) finishCatalog() error {
	for i := range s.users {
		if st := int(s.users[i].Site); st < 0 || st >= len(s.sites) {
			return fmt.Errorf("trace: user %d references unknown site %d", i, s.users[i].Site)
		}
	}
	return nil
}

// Files returns the file catalog.
func (s *Scanner) Files() []File { return s.files }

// Users returns the user catalog.
func (s *Scanner) Users() []User { return s.users }

// Sites returns the site catalog.
func (s *Scanner) Sites() []Site { return s.sites }

// Next parses and returns the next job record. The returned Job and its
// slices are reused by the following Next call.
func (s *Scanner) Next() (*Job, error) {
	if s.closed {
		return nil, fmt.Errorf("trace: source is closed")
	}
	if s.err != nil {
		return nil, s.err
	}
	var rec []byte
	line := 0
	if s.havePending {
		s.havePending = false
		rec, line = s.pending, s.pendingLine
	} else {
		for {
			if !s.sc.Scan() {
				if err := s.sc.Err(); err != nil {
					s.err = err
					return nil, err
				}
				s.err = io.EOF
				return nil, io.EOF
			}
			s.line++
			rec = bytes.TrimSpace(s.sc.Bytes())
			if len(rec) == 0 || rec[0] == '#' {
				continue
			}
			line = s.line
			break
		}
	}
	s.fields = splitFields(s.fields, rec)
	kind := s.fields[0]
	if len(kind) != 1 || kind[0] != 'J' {
		var err error
		switch {
		case len(kind) == 1 && (kind[0] == 'S' || kind[0] == 'U' || kind[0] == 'F'):
			err = fmt.Errorf("trace: line %d: catalog record %q after first job", line, kind)
		default:
			err = fmt.Errorf("trace: line %d: unknown record kind %q", line, kind)
		}
		s.err = err
		return nil, err
	}
	if err := s.parseJob(s.fields[1:], line); err != nil {
		s.err = err
		return nil, err
	}
	s.nJobs++
	return &s.job, nil
}

// Close marks the scanner closed. It does not close the underlying reader,
// which the caller owns.
func (s *Scanner) Close() error {
	s.closed = true
	return nil
}

func (s *Scanner) parseSite(f [][]byte) error {
	if len(f) != 4 {
		return fmt.Errorf("trace: line %d: site: record needs 4 fields, got %d", s.line, len(f))
	}
	id, ok := parseIntBytes(f[0])
	if !ok || int(id) != len(s.sites) {
		return fmt.Errorf("trace: line %d: site: bad or out-of-order site ID %q", s.line, f[0])
	}
	nodes, ok := parseIntBytes(f[3])
	if !ok {
		return fmt.Errorf("trace: line %d: site: bad node count %q", s.line, f[3])
	}
	s.sites = append(s.sites, Site{ID: SiteID(id), Name: string(f[1]), Domain: string(f[2]), Nodes: int(nodes)})
	return nil
}

func (s *Scanner) parseUser(f [][]byte) error {
	if len(f) != 3 {
		return fmt.Errorf("trace: line %d: user: record needs 3 fields, got %d", s.line, len(f))
	}
	id, ok := parseIntBytes(f[0])
	if !ok || int(id) != len(s.users) {
		return fmt.Errorf("trace: line %d: user: bad or out-of-order user ID %q", s.line, f[0])
	}
	site, ok := parseIntBytes(f[2])
	if !ok {
		return fmt.Errorf("trace: line %d: user: bad site ID %q", s.line, f[2])
	}
	s.users = append(s.users, User{ID: UserID(id), Name: string(f[1]), Site: SiteID(site)})
	return nil
}

func (s *Scanner) parseFile(f [][]byte) error {
	if len(f) != 4 {
		return fmt.Errorf("trace: line %d: file: record needs 4 fields, got %d", s.line, len(f))
	}
	id, ok := parseIntBytes(f[0])
	if !ok || int(id) != len(s.files) {
		return fmt.Errorf("trace: line %d: file: bad or out-of-order file ID %q", s.line, f[0])
	}
	size, ok := parseIntBytes(f[2])
	if !ok {
		return fmt.Errorf("trace: line %d: file: bad size %q", s.line, f[2])
	}
	tier, ok := tierOfBytes(f[3])
	if !ok {
		return fmt.Errorf("trace: line %d: file: bad tier %q", s.line, f[3])
	}
	s.files = append(s.files, File{ID: FileID(id), Name: string(f[1]), Size: size, Tier: tier})
	return nil
}

// parseJob fills s.job from the fields after the leading "J", reusing the
// job's file-ID slices and interning its Exec. References are validated
// against the catalog so streaming consumers never see a dangling ID.
func (s *Scanner) parseJob(f [][]byte, line int) error {
	if len(f) < 11 {
		return fmt.Errorf("trace: line %d: job: record needs at least 11 fields, got %d", line, len(f))
	}
	id, ok := parseIntBytes(f[0])
	if !ok || int(id) != s.nJobs {
		return fmt.Errorf("trace: line %d: job: bad or out-of-order job ID %q", line, f[0])
	}
	user, ok := parseIntBytes(f[1])
	if !ok {
		return fmt.Errorf("trace: line %d: job: bad user ID %q", line, f[1])
	}
	if int(user) < 0 || int(user) >= len(s.users) {
		return fmt.Errorf("trace: line %d: job: user ID %d out of range", line, user)
	}
	site, ok := parseIntBytes(f[2])
	if !ok {
		return fmt.Errorf("trace: line %d: job: bad site ID %q", line, f[2])
	}
	if int(site) < 0 || int(site) >= len(s.sites) {
		return fmt.Errorf("trace: line %d: job: site ID %d out of range", line, site)
	}
	tier, ok := tierOfBytes(f[4])
	if !ok {
		return fmt.Errorf("trace: line %d: job: bad tier %q", line, f[4])
	}
	family, ok := familyOfBytes(f[5])
	if !ok {
		return fmt.Errorf("trace: line %d: job: bad family %q", line, f[5])
	}
	start, ok := parseIntBytes(f[8])
	if !ok {
		return fmt.Errorf("trace: line %d: job: bad start time %q", line, f[8])
	}
	end, ok := parseIntBytes(f[9])
	if !ok {
		return fmt.Errorf("trace: line %d: job: bad end time %q", line, f[9])
	}
	if end < start {
		return fmt.Errorf("trace: line %d: job: ends before it starts", line)
	}
	n, ok := parseIntBytes(f[10])
	if !ok || n < 0 {
		return fmt.Errorf("trace: line %d: job: bad file count %q", line, f[10])
	}
	if int64(len(f)-11) < n {
		return fmt.Errorf("trace: line %d: job: declares %d files but has %d file fields", line, n, len(f)-11)
	}
	s.job.Files = s.job.Files[:0]
	for i := int64(0); i < n; i++ {
		fid, ok := parseIntBytes(f[11+i])
		if !ok {
			return fmt.Errorf("trace: line %d: job: bad file ID %q", line, f[11+i])
		}
		if int64(int(fid)) != fid || int(fid) < 0 || int(fid) >= len(s.files) {
			return fmt.Errorf("trace: line %d: job: file ID %d out of range", line, fid)
		}
		s.job.Files = append(s.job.Files, FileID(fid))
	}
	s.job.Outputs = s.job.Outputs[:0]
	rest := f[11+n:]
	if len(rest) > 0 {
		nout, ok := parseIntBytes(rest[0])
		if !ok || nout < 0 || int64(len(rest)) != 1+nout {
			return fmt.Errorf("trace: line %d: job: bad output block", line)
		}
		for i := int64(0); i < nout; i++ {
			fid, ok := parseIntBytes(rest[1+i])
			if !ok {
				return fmt.Errorf("trace: line %d: job: bad output file ID %q", line, rest[1+i])
			}
			if int64(int(fid)) != fid || int(fid) < 0 || int(fid) >= len(s.files) {
				return fmt.Errorf("trace: line %d: job: output file ID %d out of range", line, fid)
			}
			s.job.Outputs = append(s.job.Outputs, FileID(fid))
		}
	}
	s.job.ID = JobID(id)
	s.job.User = UserID(user)
	s.job.Site = SiteID(site)
	s.job.Tier = tier
	s.job.Family = family
	s.job.Exec = s.intern.exec(s.intern.name(f[3]), s.intern.name(f[6]), s.intern.name(f[7]))
	s.job.Start = time.Unix(start, 0).UTC()
	s.job.End = time.Unix(end, 0).UTC()
	return nil
}

// splitFields splits rec on spaces and tabs into dst, reusing its backing
// array. The returned fields alias rec.
func splitFields(dst [][]byte, rec []byte) [][]byte {
	dst = dst[:0]
	i := 0
	for i < len(rec) {
		for i < len(rec) && (rec[i] == ' ' || rec[i] == '\t') {
			i++
		}
		if i >= len(rec) {
			break
		}
		start := i
		for i < len(rec) && rec[i] != ' ' && rec[i] != '\t' {
			i++
		}
		dst = append(dst, rec[start:i])
	}
	return dst
}

// parseIntBytes parses a decimal integer with optional sign, without
// allocating. It accepts exactly what strconv.ParseInt(s, 10, 64) accepts.
func parseIntBytes(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	i := 0
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		i++
	}
	if i == len(b) {
		return 0, false
	}
	var v uint64
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		if v > (1<<64-1-9)/10 {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	if neg {
		if v > 1<<63 {
			return 0, false
		}
		return -int64(v), true
	}
	if v > 1<<63-1 {
		return 0, false
	}
	return int64(v), true
}

// tierOfBytes inverts Tier.String over a byte slice, allocation-free.
func tierOfBytes(b []byte) (Tier, bool) {
	switch string(b) {
	case "raw":
		return TierRaw, true
	case "reconstructed":
		return TierReconstructed, true
	case "root-tuple":
		return TierRootTuple, true
	case "thumbnail":
		return TierThumbnail, true
	case "other":
		return TierOther, true
	default:
		return TierOther, false
	}
}

// familyOfBytes inverts AppFamily.String over a byte slice, allocation-free.
func familyOfBytes(b []byte) (AppFamily, bool) {
	switch string(b) {
	case "reconstruction":
		return FamilyReconstruction, true
	case "montecarlo":
		return FamilyMonteCarlo, true
	case "analysis":
		return FamilyAnalysis, true
	default:
		return FamilyAnalysis, false
	}
}
