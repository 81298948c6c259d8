package trace

import (
	"fmt"
	"io"
)

// Source is a pull-based stream of trace jobs plus the (fully materialized)
// catalogs they reference. It is the streaming counterpart of *Trace: the
// catalogs — files, users, sites — are small even for production-scale
// workloads and are available up front, while the job history, which
// dominates trace size, is delivered one job at a time so consumers hold
// O(chunk) rather than O(trace) memory.
//
// Next returns the next job in stream order, or (nil, io.EOF) after the last
// one. The returned Job and its Files/Outputs slices are only valid until
// the following Next call — implementations reuse buffers between calls.
// Consumers that retain jobs must copy them (see CloneJob).
//
// Sources are not safe for concurrent use; wrap Next in a mutex to share one
// across goroutines.
type Source interface {
	// Files returns the file catalog. The slice is shared, not copied;
	// callers must not mutate it.
	Files() []File
	// Users returns the user catalog (shared, read-only).
	Users() []User
	// Sites returns the site catalog (shared, read-only).
	Sites() []Site
	// Next returns the next job, or (nil, io.EOF) at end of stream. The
	// job is invalidated by the following Next call.
	Next() (*Job, error)
	// Close releases any resources held by the source. Close is
	// idempotent; after Close, Next returns an error.
	Close() error
}

// CloneJob returns a deep copy of j whose Files and Outputs slices are
// freshly allocated, safe to retain across Source.Next calls.
func CloneJob(j *Job) Job {
	out := *j
	if len(j.Files) > 0 {
		out.Files = append([]FileID(nil), j.Files...)
	} else {
		out.Files = nil
	}
	if len(j.Outputs) > 0 {
		out.Outputs = append([]FileID(nil), j.Outputs...)
	} else {
		out.Outputs = nil
	}
	return out
}

// TraceSource adapts an in-memory *Trace to the Source interface, yielding
// jobs in t.Jobs order. Unlike codec-backed sources it does not reuse
// buffers: returned jobs point into t and stay valid for the life of t.
type TraceSource struct {
	t      *Trace
	next   int
	closed bool
}

// NewTraceSource returns a Source over t's jobs. The trace is shared, not
// copied.
func NewTraceSource(t *Trace) *TraceSource { return &TraceSource{t: t} }

// Files returns t.Files.
func (s *TraceSource) Files() []File { return s.t.Files }

// Users returns t.Users.
func (s *TraceSource) Users() []User { return s.t.Users }

// Sites returns t.Sites.
func (s *TraceSource) Sites() []Site { return s.t.Sites }

// Next returns the next job of the underlying trace.
func (s *TraceSource) Next() (*Job, error) {
	if s.closed {
		return nil, fmt.Errorf("trace: source is closed")
	}
	if s.next >= len(s.t.Jobs) {
		return nil, io.EOF
	}
	j := &s.t.Jobs[s.next]
	s.next++
	return j, nil
}

// Close marks the source closed.
func (s *TraceSource) Close() error {
	s.closed = true
	return nil
}

// JobWriter is the streaming encoder interface implemented by TextWriter
// and BinWriter: jobs in, bytes out, one at a time.
type JobWriter interface {
	// WriteJob encodes one job. The job is fully consumed before return,
	// so Source-backed callers may reuse the buffer immediately.
	WriteJob(j *Job) error
	// Close flushes (and for framed codecs, terminates) the encoding.
	Close() error
}

// CopySource streams every job of src into w and closes w, returning the
// number of jobs copied. It is the bounded-memory conversion path between
// codecs: neither the input nor the output trace is ever resident.
func CopySource(w JobWriter, src Source) (int64, error) {
	var n int64
	for {
		j, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, err
		}
		if err := w.WriteJob(j); err != nil {
			return n, err
		}
		n++
	}
	return n, w.Close()
}

// Materialize drains src into a fully validated in-memory Trace, copying
// every job. It is the bridge back from streaming to the whole-trace APIs
// (experiments, SplitByTime, ...).
func Materialize(src Source) (*Trace, error) {
	t := &Trace{
		Files: src.Files(),
		Users: src.Users(),
		Sites: src.Sites(),
	}
	for {
		j, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		t.Jobs = append(t.Jobs, CloneJob(j))
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
