package wire

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"filecule/internal/cache"
	"filecule/internal/core"
	"filecule/internal/trace"
)

// Backend is what a wire Server serves from. internal/server implements it
// over its monitor/durability/advice stack so both protocol surfaces answer
// from exactly the same state and decision kernels — the property the
// differential tests pin.
type Backend interface {
	// Observe folds one job. An error is an internal failure (WAL append),
	// answered as code 500; the job was not applied.
	Observe(files []trace.FileID) error
	// ObserveBatch folds several jobs atomically with respect to durability.
	ObserveBatch(jobs [][]trace.FileID) error
	// Counts reports ingestion progress for observe acknowledgements.
	Counts() (observed int64, filecules int)
	// Granularity returns the advice granularity for the current partition.
	// An error means advice is unavailable (no catalog), answered as 422.
	// Implementations cache the granularity per membership, so consecutive
	// calls return the identical value until some file changes filecule.
	Granularity() (cache.Granularity, error)
	// PartitionState returns the current snapshot, the observed count, and
	// the catalog for byte sizing (nil when the server has no catalog).
	PartitionState() (p *core.Partition, observed int64, catalog *trace.Trace)
	// Membership is PartitionState with request counts allowed to be stale
	// (core.Engine.Membership): what a summary is computed from.
	Membership() (p *core.Partition, observed int64, catalog *trace.Trace)
	// Lookup returns the filecule containing f with its exact request count,
	// and a partition of the same membership plus the catalog to size it by
	// (core.Engine.Lookup); ok is false if f was never requested.
	Lookup(f trace.FileID) (p *core.Partition, fc core.Filecule, catalog *trace.Trace, ok bool)
}

// Server serves filecule-wire/v1 over persistent TCP connections. Each
// connection is handled by one goroutine with fully pooled decode/encode
// state: the steady-state observe path performs zero allocations per
// request.
type Server struct {
	Backend Backend
	// MaxFiles bounds request file IDs to [0, MaxFiles); <= 0 accepts any
	// non-negative int32 ID, mirroring the catalog-less HTTP surface.
	MaxFiles int
	// MaxBatchJobs caps jobs per 'B' request; <= 0 means DefaultMaxBatchJobs.
	MaxBatchJobs int
	// MaxJobFiles caps one job's expanded file list; <= 0 means
	// DefaultMaxJobFiles.
	MaxJobFiles int
	// MaxBatchFiles caps the total expanded file IDs across one 'B'
	// request, bounding the run-length amplification of a whole batch;
	// <= 0 means DefaultMaxBatchFiles.
	MaxBatchFiles int
	// IdleTimeout bounds the wait for the next request frame (and the
	// arrival of a frame's bytes once started — the slowloris guard);
	// <= 0 means 120s.
	IdleTimeout time.Duration
	// MaxPipeline bounds the responses a connection may have pending
	// (answered but not yet flushed to the socket): a client pipelining
	// more than this many requests without draining responses forces a
	// flush, which blocks the connection's frame loop until the client
	// reads — per-connection backpressure instead of unbounded response
	// queueing. <= 0 means DefaultMaxPipeline.
	MaxPipeline int
	// WriteTimeout bounds each flush of buffered responses; a client that
	// stops draining for this long is disconnected rather than pinning the
	// server goroutine. <= 0 means 60s.
	WriteTimeout time.Duration
	// Metrics, when set, records every request under routes
	// "wire_observe", "wire_observe_batch", "wire_advise" and
	// "wire_partition" with an HTTP-aligned status code.
	Metrics func(route string, code int, d time.Duration)
}

func (s *Server) maxID() int64 {
	if s.MaxFiles > 0 {
		return int64(s.MaxFiles)
	}
	return maxAnyFileID
}

func (s *Server) maxBatch() int {
	if s.MaxBatchJobs > 0 {
		return s.MaxBatchJobs
	}
	return DefaultMaxBatchJobs
}

func (s *Server) maxJobFiles() int {
	if s.MaxJobFiles > 0 {
		return s.MaxJobFiles
	}
	return DefaultMaxJobFiles
}

func (s *Server) maxBatchFiles() int {
	if s.MaxBatchFiles > 0 {
		return s.MaxBatchFiles
	}
	return DefaultMaxBatchFiles
}

func (s *Server) idle() time.Duration {
	if s.IdleTimeout > 0 {
		return s.IdleTimeout
	}
	return 120 * time.Second
}

// DefaultMaxPipeline is the per-connection bound on answered-but-unflushed
// pipelined responses when Server.MaxPipeline is unset.
const DefaultMaxPipeline = 64

func (s *Server) maxPipeline() int {
	if s.MaxPipeline > 0 {
		return s.MaxPipeline
	}
	return DefaultMaxPipeline
}

func (s *Server) writeTimeout() time.Duration {
	if s.WriteTimeout > 0 {
		return s.WriteTimeout
	}
	return 60 * time.Second
}

// Serve accepts connections on l until ctx is cancelled, then closes the
// listener and every open connection. A binary client observing a closed
// connection simply reconnects; there is no drain protocol. Returns nil on
// clean shutdown.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	var (
		mu    sync.Mutex
		conns = make(map[net.Conn]struct{})
		wg    sync.WaitGroup
	)
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			l.Close()
			mu.Lock()
			for c := range conns {
				c.Close()
			}
			mu.Unlock()
		case <-done:
		}
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			wg.Wait()
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		mu.Lock()
		// Re-check cancellation under mu: a connection Accept returned just
		// before shutdown may otherwise register after the closer goroutine
		// has already swept the map, leaving it open until the idle timeout.
		if ctx.Err() != nil {
			mu.Unlock()
			conn.Close()
			continue
		}
		conns[conn] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				mu.Lock()
				delete(conns, conn)
				mu.Unlock()
				conn.Close()
			}()
			s.handleConn(conn)
		}()
	}
}

// connState is the per-connection pool: every buffer a request decode or
// response encode needs, reused frame after frame.
type connState struct {
	pl       trace.Payload
	files    []trace.FileID
	jobFiles []trace.FileID // backing store for a batch's file lists
	jobEnds  []int          // end offset of each job within jobFiles
	jobs     [][]trace.FileID
	resident []cache.ResidentUnit
	fcs      []fcView
	out      []byte
	planner  *cache.Planner
}

// connDeadlines re-arms a connection's read deadline before each request
// frame and its write deadline before each flush of buffered responses.
// serveStream accepts nil (no deadlines) for in-memory streams and fuzzing.
type connDeadlines struct {
	read  func()
	write func()
}

func (s *Server) handleConn(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(s.idle()))
	br := bufio.NewReaderSize(conn, 64<<10)
	var magic [len(Magic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || string(magic[:]) != Magic {
		var out []byte
		out = appendError(out, CodeBadRequest, fmt.Sprintf("bad connection magic, want %q", Magic))
		bw := bufio.NewWriter(conn)
		conn.SetWriteDeadline(time.Now().Add(s.writeTimeout()))
		trace.WriteChunk(bw, out)
		bw.Flush()
		return
	}
	bw := bufio.NewWriterSize(conn, 64<<10)
	dl := &connDeadlines{
		read:  func() { conn.SetReadDeadline(time.Now().Add(s.idle())) },
		write: func() { conn.SetWriteDeadline(time.Now().Add(s.writeTimeout())) },
	}
	s.serveStream(&connState{}, br, bw, dl)
}

// serveStream runs the post-magic frame loop: read a request frame,
// dispatch, append the response, and flush once all buffered input is
// drained (so a pipelined burst of requests is answered with one write) or
// once MaxPipeline responses are pending — the per-connection backpressure
// bound: a hostile pipeliner that never drains blocks on its own
// connection (and is disconnected by the write deadline) instead of
// queueing responses without limit. dl, when non-nil, re-arms the
// connection deadlines. The returned error is nil on clean EOF.
func (s *Server) serveStream(st *connState, br *bufio.Reader, bw *bufio.Writer, dl *connDeadlines) error {
	cr := trace.NewChunkReader(br)
	flush := func() error {
		if dl != nil {
			dl.write()
		}
		return bw.Flush()
	}
	pending := 0
	for {
		if dl != nil {
			dl.read()
		}
		off := cr.Offset()
		kind, payload, err := cr.ReadChunk()
		if err == io.EOF {
			return flush()
		}
		if err != nil {
			// The frame boundary is lost; answer once and hang up.
			st.out = appendError(st.out[:0], CodeBadRequest, err.Error())
			trace.WriteChunk(bw, st.out)
			flush()
			return err
		}
		t0 := time.Now()
		resp, route, code := s.handle(st, kind, payload, off)
		if len(resp) > trace.MaxChunkPayload {
			resp = appendError(st.out[:0], CodeInternal,
				fmt.Sprintf("response exceeds the %d-byte frame bound", trace.MaxChunkPayload))
			code = CodeInternal
		}
		if err := trace.WriteChunk(bw, resp); err != nil {
			return err
		}
		if s.Metrics != nil {
			s.Metrics(route, code, time.Since(t0))
		}
		pending++
		if br.Buffered() == 0 || pending >= s.maxPipeline() {
			if err := flush(); err != nil {
				return err
			}
			pending = 0
		}
	}
}

// handle dispatches one request frame and returns the response payload
// (valid until the next call), the metrics route, and the HTTP-aligned
// status code. It never panics — the FuzzWireProto contract.
func (s *Server) handle(st *connState, kind byte, payload []byte, off int64) ([]byte, string, int) {
	st.pl.Reset(payload)
	switch kind {
	case KindObserve:
		return s.handleObserve(st, off)
	case KindObserveBatch:
		return s.handleBatch(st, off)
	case KindAdvise:
		return s.handleAdvise(st, off)
	case KindPartition:
		return s.handlePartition(st)
	case KindSummary:
		return s.handleSummary(st)
	case KindFilecule:
		return s.handleFilecule(st, off)
	default:
		return s.errResp(st, CodeBadRequest, "wire_unknown",
			"request frame at byte offset %d: unknown kind %q", off, kind), "wire_unknown", CodeBadRequest
	}
}

// errResp formats an error response into the pooled buffer.
func (s *Server) errResp(st *connState, code int, _ string, format string, args ...any) []byte {
	st.out = appendError(st.out[:0], code, fmt.Sprintf(format, args...))
	return st.out
}

// reqErr finalizes a request decode, converting a sticky cursor error or
// trailing bytes into a 400 naming the frame's byte offset.
func (st *connState) reqErr(off int64) error {
	if err := st.pl.Err(); err != nil {
		return fmt.Errorf("request frame at byte offset %d: %w", off, err)
	}
	if n := st.pl.Remaining(); n != 0 {
		return fmt.Errorf("request frame at byte offset %d: %d trailing bytes", off, n)
	}
	return nil
}

func (s *Server) handleObserve(st *connState, off int64) ([]byte, string, int) {
	const route = "wire_observe"
	st.files = st.pl.FileRuns(st.files[:0], s.maxID(), s.maxJobFiles())
	if err := st.reqErr(off); err != nil {
		return s.errResp(st, CodeBadRequest, route, "%v", err), route, CodeBadRequest
	}
	if err := s.Backend.Observe(st.files); err != nil {
		return s.errResp(st, CodeInternal, route, "wal append: %v", err), route, CodeInternal
	}
	observed, filecules := s.Backend.Counts()
	st.out = appendObserveResult(st.out[:0], observed, filecules)
	return st.out, route, 200
}

func (s *Server) handleBatch(st *connState, off int64) ([]byte, string, int) {
	const route = "wire_observe_batch"
	n := st.pl.Count("job")
	if err := st.pl.Err(); err == nil && n > s.maxBatch() {
		return s.errResp(st, CodeBadRequest, route,
			"batch of %d jobs exceeds limit %d", n, s.maxBatch()), route, CodeBadRequest
	}
	st.jobFiles = st.jobFiles[:0]
	st.jobEnds = st.jobEnds[:0]
	// Per-job decodes draw from a shrinking batch-wide budget, so the total
	// expansion of one 'B' frame is capped regardless of how tightly its
	// run-length encoding compresses: a job may use at most what the batch
	// cap has left. A job that trips the shrunken budget fails the decode
	// with a cursor error naming the limit, answered 400 below.
	maxTotal := s.maxBatchFiles()
	for i := 0; i < n && st.pl.Err() == nil; i++ {
		budget := maxTotal - len(st.jobFiles)
		if perJob := s.maxJobFiles(); budget > perJob {
			budget = perJob
		}
		st.jobFiles = st.pl.FileRuns(st.jobFiles, s.maxID(), budget)
		st.jobEnds = append(st.jobEnds, len(st.jobFiles))
	}
	if err := st.reqErr(off); err != nil {
		return s.errResp(st, CodeBadRequest, route, "%v", err), route, CodeBadRequest
	}
	// Re-slice after the full decode: appends may have grown jobFiles, so
	// job views are only stable now.
	st.jobs = st.jobs[:0]
	prev := 0
	for _, end := range st.jobEnds {
		st.jobs = append(st.jobs, st.jobFiles[prev:end:end])
		prev = end
	}
	if err := s.Backend.ObserveBatch(st.jobs); err != nil {
		return s.errResp(st, CodeInternal, route, "wal append: %v", err), route, CodeInternal
	}
	observed, filecules := s.Backend.Counts()
	st.out = appendObserveResult(st.out[:0], observed, filecules)
	return st.out, route, 200
}

func (s *Server) handleAdvise(st *connState, off int64) ([]byte, string, int) {
	const route = "wire_advise"
	capacity := int64(st.pl.Uvarint())
	st.files = st.pl.FileRuns(st.files[:0], s.maxID(), s.maxJobFiles())
	st.resident = st.resident[:0]
	for n := st.pl.Count("resident unit"); n > 0 && st.pl.Err() == nil; n-- {
		st.resident = append(st.resident, cache.ResidentUnit{
			Unit:       cache.UnitID(st.pl.Uvarint()),
			LastAccess: st.pl.Zvarint(),
		})
	}
	if err := st.reqErr(off); err != nil {
		return s.errResp(st, CodeBadRequest, route, "%v", err), route, CodeBadRequest
	}
	g, err := s.Backend.Granularity()
	if err != nil {
		return s.errResp(st, CodeUnavailable, route, "%v", err), route, CodeUnavailable
	}
	if st.planner == nil {
		st.planner = cache.NewPlanner(g)
	} else if st.planner.Granularity() != g {
		st.planner.Reset(g)
	}
	adv, err := st.planner.Advise(cache.AdviceRequest{
		Capacity: capacity,
		Files:    st.files,
		Resident: st.resident,
	})
	if err != nil {
		return s.errResp(st, CodeBadRequest, route, "%v", err), route, CodeBadRequest
	}
	st.out = appendAdviceResult(st.out[:0], adv)
	return st.out, route, 200
}

func (s *Server) handlePartition(st *connState) ([]byte, string, int) {
	const route = "wire_partition"
	// A 'P' payload is the bare kind byte; tolerate nothing else.
	if st.pl.Remaining() != 0 {
		return s.errResp(st, CodeBadRequest, route,
			"partition request carries %d unexpected bytes", st.pl.Remaining()), route, CodeBadRequest
	}
	p, observed, catalog := s.Backend.PartitionState()
	var sizes []int64
	if catalog != nil {
		sizes = p.SizeTable(catalog)
	}
	st.fcs = st.fcs[:0]
	for i := range p.Filecules {
		fc := &p.Filecules[i]
		v := fcView{files: fc.Files, requests: fc.Requests}
		if sizes != nil {
			v.bytes = sizes[i]
		}
		st.fcs = append(st.fcs, v)
	}
	st.out = appendPartitionResult(st.out[:0], st.fcs, observed)
	return st.out, route, 200
}

func (s *Server) handleSummary(st *connState) ([]byte, string, int) {
	const route = "wire_summary"
	// An 'S' payload is the bare kind byte; tolerate nothing else.
	if st.pl.Remaining() != 0 {
		return s.errResp(st, CodeBadRequest, route,
			"summary request carries %d unexpected bytes", st.pl.Remaining()), route, CodeBadRequest
	}
	p, observed, catalog := s.Backend.Membership()
	sum := p.Summary(catalog)
	r := SummaryReply{
		Observed:          observed,
		Filecules:         sum.Filecules,
		Files:             sum.Files,
		Monatomic:         sum.Monatomic,
		MeanFilesPerGroup: sum.MeanFilesPerFilecule,
		LargestFiles:      sum.LargestFiles,
		CoveredBytes:      sum.CoveredBytes,
	}
	st.out = appendSummaryResult(st.out[:0], &r)
	return st.out, route, 200
}

func (s *Server) handleFilecule(st *connState, off int64) ([]byte, string, int) {
	const route = "wire_filecule"
	id := st.pl.Uvarint()
	if st.pl.Err() == nil && int64(id) >= s.maxID() {
		return s.errResp(st, CodeBadRequest, route,
			"file ID %d out of range [0, %d)", id, s.maxID()), route, CodeBadRequest
	}
	if err := st.reqErr(off); err != nil {
		return s.errResp(st, CodeBadRequest, route, "%v", err), route, CodeBadRequest
	}
	p, fc, catalog, ok := s.Backend.Lookup(trace.FileID(id))
	if !ok {
		return s.errResp(st, CodeNotFound, route,
			"file %d not observed in any job", id), route, CodeNotFound
	}
	var bytes int64
	if catalog != nil {
		bytes = p.SizeTable(catalog)[fc.ID]
	}
	st.out = appendFileculeResult(st.out[:0], fc.ID, fc.Requests, bytes, fc.Files)
	return st.out, route, 200
}
