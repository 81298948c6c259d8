package wire

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"filecule/internal/cache"
	"filecule/internal/fed"
	"filecule/internal/trace"
)

// Server serves filecule-wire/v1 over persistent TCP connections: the frame
// codec over a Service. Each connection is handled by one goroutine with
// fully pooled decode/encode state: the steady-state observe path performs
// zero allocations per request. Create with NewServer.
type Server struct {
	// Service answers every request. Share one with the HTTP surface and
	// both answer from the same state.
	*Service
	// WriteTimeout bounds each flush of buffered responses; a client that
	// stops draining for this long is disconnected rather than pinning the
	// server goroutine.
	WriteTimeout time.Duration
	// Metrics, when set, records every request under its route ("wire_" and
	// the operation, e.g. "wire_fed_exchange") with an HTTP-aligned code.
	Metrics func(route string, code int, d time.Duration)

	flow flowLimits
}

// flowLimits are a frame server's flow budgets; what a request may hold is
// the Service's (see limits). NewServer sets them; tests narrow one to reach
// a bound cheaply.
type flowLimits struct {
	// pipeline bounds the responses a connection may have pending (answered
	// but not yet flushed to the socket): a client pipelining more than this
	// many requests without draining responses forces a flush, which blocks
	// the connection's frame loop until the client reads — per-connection
	// backpressure instead of unbounded response queueing.
	pipeline int
	// idle bounds the wait for the next request frame, and for the arrival
	// of a frame's bytes once started — the slowloris guard.
	idle  time.Duration
	delta int // bytes of one federation delta
}

// NewServer returns a frame server over svc with the protocol's limits and a
// 60 s write timeout.
func NewServer(svc *Service) *Server {
	return &Server{
		Service:      svc,
		WriteTimeout: 60 * time.Second,
		flow: flowLimits{
			pipeline: 64,
			idle:     120 * time.Second,
			delta:    fed.MaxDeltaSize,
		},
	}
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
	out      []byte
	planner  cache.Planner
}

// connDeadlines re-arms a connection's read deadline before each request
// frame and its write deadline before each flush of buffered responses.
// serveStream accepts nil (no deadlines) for in-memory streams and fuzzing.
type connDeadlines struct {
	read  func()
	write func()
}

func (s *Server) handleConn(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(s.flow.idle))
	br := bufio.NewReaderSize(conn, 64<<10)
	var magic [len(Magic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || string(magic[:]) != Magic {
		var out []byte
		out = appendError(out, CodeBadRequest, fmt.Sprintf("bad connection magic, want %q", Magic))
		bw := bufio.NewWriter(conn)
		conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout))
		trace.WriteChunk(bw, out)
		bw.Flush()
		return
	}
	bw := bufio.NewWriterSize(conn, 64<<10)
	dl := &connDeadlines{
		read:  func() { conn.SetReadDeadline(time.Now().Add(s.flow.idle)) },
		write: func() { conn.SetWriteDeadline(time.Now().Add(s.WriteTimeout)) },
	}
	s.serveStream(&connState{}, br, bw, dl)
}

// serveStream runs the post-magic frame loop: read a request frame,
// dispatch, append the response, and flush once all buffered input is
// drained (so a pipelined burst of requests is answered with one write) or
// once flowLimits.pipeline responses are pending: a hostile pipeliner that never
// drains blocks on its own connection (and is disconnected by the write
// deadline) instead of queueing responses without limit. dl, when non-nil,
// re-arms the connection deadlines. The returned error is nil on clean EOF.
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
		if err == nil && kind == fed.KindHeader && s.Fed != nil {
			payload, err = s.readDelta(cr, payload, dl)
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
		if br.Buffered() == 0 || pending >= s.flow.pipeline {
			if err := flush(); err != nil {
				return err
			}
			pending = 0
		}
	}
}

// handle answers one request frame: decode it, make one Service call, encode
// the reply. It returns the response payload (valid until the next call),
// the metrics route, and the HTTP-aligned status code. It never panics — the
// FuzzWireProto contract.
func (s *Server) handle(st *connState, kind byte, payload []byte, off int64) ([]byte, string, int) {
	st.pl.Reset(payload)
	var (
		route string
		rerr  *RemoteError
	)
	switch kind {
	case KindObserve:
		route, rerr = "wire_observe", s.handleObserve(st, off)
	case KindObserveBatch:
		route, rerr = "wire_observe_batch", s.handleBatch(st, off)
	case KindAdvise:
		route, rerr = "wire_advise", s.handleAdvise(st, off)
	case KindPartition:
		route = "wire_partition"
		if rerr = st.reqErr(off); rerr == nil {
			st.out = appendPartitionResult(st.out[:0], s.Partition())
		}
	case KindSummary:
		route = "wire_summary"
		if rerr = st.reqErr(off); rerr == nil {
			r := s.Summary()
			st.out = appendSummaryResult(st.out[:0], &r)
		}
	case KindFilecule:
		route, rerr = "wire_filecule", s.handleFilecule(st, off)
	case fed.KindHeader:
		route, rerr = "wire_fed_exchange", s.handleExchange(st, payload)
	default:
		route, rerr = "wire_unknown", failf(CodeBadRequest, "request frame at byte offset %d: unknown kind %q", off, kind)
	}
	if rerr != nil {
		st.out = appendError(st.out[:0], rerr.Code, rerr.Msg)
		return st.out, route, rerr.Code
	}
	return st.out, route, 200
}

// reqErr finalizes a request decode, converting a sticky cursor error or
// trailing bytes into a 400 naming the frame's byte offset.
func (st *connState) reqErr(off int64) *RemoteError {
	if err := st.pl.Err(); err != nil {
		return failf(CodeBadRequest, "request frame at byte offset %d: %v", off, err)
	}
	if n := st.pl.Remaining(); n != 0 {
		return failf(CodeBadRequest, "request frame at byte offset %d: %d trailing bytes", off, n)
	}
	return nil
}

func (s *Server) handleObserve(st *connState, off int64) *RemoteError {
	st.files = st.pl.FileRuns(st.files[:0], s.MaxID(), s.limits().jobFiles)
	if rerr := st.reqErr(off); rerr != nil {
		return rerr
	}
	r, rerr := s.Observe(st.files)
	if rerr == nil {
		st.out = appendObserveResult(st.out[:0], r)
	}
	return rerr
}

func (s *Server) handleBatch(st *connState, off int64) *RemoteError {
	lim := s.limits()
	n := st.pl.Count("job")
	if st.pl.Err() == nil {
		if rerr := lim.checkBatchJobs(n); rerr != nil {
			return rerr
		}
	}
	st.jobFiles = st.jobFiles[:0]
	st.jobEnds = st.jobEnds[:0]
	// Per-job decodes draw from a shrinking batch-wide budget, so the total
	// expansion of one 'B' frame is capped regardless of how tightly its
	// run-length encoding compresses: a job may use at most what the batch
	// cap has left. A job that trips the shrunken budget fails the decode
	// with a cursor error naming the limit, answered 400 below.
	maxID := s.MaxID()
	for i := 0; i < n && st.pl.Err() == nil; i++ {
		budget := min(lim.batchFiles-len(st.jobFiles), lim.jobFiles)
		st.jobFiles = st.pl.FileRuns(st.jobFiles, maxID, budget)
		st.jobEnds = append(st.jobEnds, len(st.jobFiles))
	}
	if rerr := st.reqErr(off); rerr != nil {
		return rerr
	}
	// Re-slice after the full decode: appends may have grown jobFiles, so
	// job views are only stable now.
	st.jobs = st.jobs[:0]
	prev := 0
	for _, end := range st.jobEnds {
		st.jobs = append(st.jobs, st.jobFiles[prev:end:end])
		prev = end
	}
	r, rerr := s.ObserveBatch(st.jobs)
	if rerr == nil {
		st.out = appendObserveResult(st.out[:0], r)
	}
	return rerr
}

func (s *Server) handleAdvise(st *connState, off int64) *RemoteError {
	// A capacity of 2⁶³ or more narrows to a negative one, which the planner
	// refuses like any other non-positive capacity; a resident unit that
	// large narrows to a negative ID, which names no unit. Both are 400s.
	req := cache.AdviceRequest{Capacity: int64(st.pl.Uvarint())}
	st.files = st.pl.FileRuns(st.files[:0], s.MaxID(), s.limits().jobFiles)
	st.resident = st.resident[:0]
	for n := st.pl.Count("resident unit"); n > 0 && st.pl.Err() == nil; n-- {
		st.resident = append(st.resident, cache.ResidentUnit{
			Unit:       cache.UnitID(st.pl.Uvarint()),
			LastAccess: st.pl.Zvarint(),
		})
	}
	if rerr := st.reqErr(off); rerr != nil {
		return rerr
	}
	req.Files, req.Resident = st.files, st.resident
	adv, rerr := s.Advise(&st.planner, req)
	if rerr == nil {
		st.out = appendAdviceResult(st.out[:0], adv)
	}
	return rerr
}

func (s *Server) handleFilecule(st *connState, off int64) *RemoteError {
	id := st.pl.Uvarint()
	if rerr := st.reqErr(off); rerr != nil {
		return rerr
	}
	r, rerr := s.Filecule(id)
	if rerr == nil {
		st.out = appendFileculeResult(st.out[:0], &r)
	}
	return rerr
}

// readDelta gathers the delta whose 'H' frame the loop just read, up to its
// 'E', framed again behind fed.Magic into the message fed.Node.HandleExchange
// decodes. Each frame gets the idle deadline afresh. Every failure names its
// byte offset and loses the stream's frame boundary.
func (s *Server) readDelta(cr *trace.ChunkReader, header []byte, dl *connDeadlines) ([]byte, error) {
	delta := trace.AppendChunk([]byte(fed.Magic), header)
	for {
		if dl != nil {
			dl.read()
		}
		off := cr.Offset()
		kind, payload, err := cr.ReadChunk()
		switch {
		case err == io.EOF:
			return nil, fmt.Errorf("federation delta cut short at byte offset %d: %w", off, io.ErrUnexpectedEOF)
		case err != nil:
			return nil, err
		case kind != fed.KindGroups && kind != fed.KindLive && kind != fed.KindEnd:
			return nil, fmt.Errorf("frame %q at byte offset %d inside a federation delta", kind, off)
		}
		if delta = trace.AppendChunk(delta, payload); len(delta) > s.flow.delta {
			return nil, fmt.Errorf("federation delta passes %d bytes at byte offset %d", s.flow.delta, off)
		}
		if kind == fed.KindEnd {
			return delta, nil
		}
	}
}

// handleExchange applies a gathered delta and answers with its ack frame.
// Without federation only 'H' is refused; 'G', 'L' and 'E' are unknown kinds.
func (s *Server) handleExchange(st *connState, delta []byte) *RemoteError {
	if s.Fed == nil {
		return failf(CodeBadRequest, "federation is not enabled on this server")
	}
	ack, err := s.Fed.HandleExchange(delta)
	if err != nil {
		return failf(CodeBadRequest, "%v", err)
	}
	if _, st.out, err = trace.NewChunkReader(bytes.NewReader(ack[len(fed.Magic):])).ReadChunk(); err != nil {
		return failf(CodeInternal, "ack: %v", err)
	}
	return nil
}
