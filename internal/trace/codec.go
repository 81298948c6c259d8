package trace

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// The on-disk trace format is a line-oriented text format, one record per
// line, chosen so traces can be inspected and filtered with ordinary Unix
// tools. Field order matches the struct definitions:
//
//	#filecule-trace v1
//	S <id> <name> <domain> <nodes>
//	U <id> <name> <site>
//	F <id> <name> <size> <tier>
//	J <id> <user> <site> <node> <tier> <family> <app> <version> <start> <end> <nfiles> <fid>... [<nout> <fid>...]
//
// The trailing output-file block is optional (absent means the job produced
// nothing, or the trace does not record the write side). Times are Unix
// seconds (UTC). Names must not contain whitespace; the writer rejects ones
// that do.

const formatHeader = "#filecule-trace v1"

// TextWriter incrementally emits the v1 text format: the catalogs are
// written at construction, then one J record per WriteJob call. It is the
// text counterpart of BinWriter, so job streams encode in either codec
// through the same JobWriter interface without ever materializing a Trace.
type TextWriter struct {
	bw  *bufio.Writer
	n   int64 // jobs written, for error positions
	err error // sticky
}

// NewTextWriter writes the header and catalog records and returns a writer
// ready to accept jobs.
func NewTextWriter(w io.Writer, files []File, users []User, sites []Site) (*TextWriter, error) {
	bw := newBufWriter(w)
	fmt.Fprintln(bw, formatHeader)
	for i := range sites {
		s := &sites[i]
		if err := checkName(s.Name); err != nil {
			return nil, fmt.Errorf("trace: site %d: %w", i, err)
		}
		fmt.Fprintf(bw, "S %d %s %s %d\n", s.ID, s.Name, s.Domain, s.Nodes)
	}
	for i := range users {
		u := &users[i]
		if err := checkName(u.Name); err != nil {
			return nil, fmt.Errorf("trace: user %d: %w", i, err)
		}
		fmt.Fprintf(bw, "U %d %s %d\n", u.ID, u.Name, u.Site)
	}
	for i := range files {
		f := &files[i]
		if err := checkName(f.Name); err != nil {
			return nil, fmt.Errorf("trace: file %d: %w", i, err)
		}
		fmt.Fprintf(bw, "F %d %s %d %s\n", f.ID, f.Name, f.Size, f.Tier)
	}
	return &TextWriter{bw: bw}, nil
}

// WriteJob appends one J record. Errors are sticky.
func (tw *TextWriter) WriteJob(j *Job) error {
	if tw.err != nil {
		return tw.err
	}
	i, e := tw.n, j.exec()
	if err := checkName(e.Node); err != nil {
		tw.err = fmt.Errorf("trace: job %d node: %w", i, err)
		return tw.err
	}
	if err := checkName(e.App); err != nil {
		tw.err = fmt.Errorf("trace: job %d app: %w", i, err)
		return tw.err
	}
	if err := checkName(e.Version); err != nil {
		tw.err = fmt.Errorf("trace: job %d version: %w", i, err)
		return tw.err
	}
	fmt.Fprintf(tw.bw, "J %d %d %d %s %s %s %s %s %d %d %d",
		j.ID, j.User, j.Site, e.Node, j.Tier, j.Family, e.App, e.Version,
		j.Start.Unix(), j.End.Unix(), len(j.Files))
	for _, f := range j.Files {
		fmt.Fprintf(tw.bw, " %d", f)
	}
	if len(j.Outputs) > 0 {
		fmt.Fprintf(tw.bw, " %d", len(j.Outputs))
		for _, f := range j.Outputs {
			fmt.Fprintf(tw.bw, " %d", f)
		}
	}
	fmt.Fprintln(tw.bw)
	tw.n++
	return nil
}

// Close flushes buffered records. The underlying writer is not closed.
func (tw *TextWriter) Close() error {
	if tw.err != nil {
		return tw.err
	}
	return tw.bw.Flush()
}

func checkName(s string) error {
	if s == "" {
		return fmt.Errorf("empty name")
	}
	if strings.ContainsAny(s, " \t\n") {
		return fmt.Errorf("name %q contains whitespace", s)
	}
	return nil
}

// Read parses a trace in the v1 text format and validates it. It is the
// materializing convenience over NewScanner; streaming consumers should use
// NewScanner (or NewSource for format auto-detection) directly.
func Read(r io.Reader) (*Trace, error) {
	s, err := NewScanner(r)
	if err != nil {
		return nil, err
	}
	return Materialize(s)
}
