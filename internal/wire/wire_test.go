package wire

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"filecule/internal/cache"
	"filecule/internal/core"
	"filecule/internal/trace"
)

// newTestServer returns a frame server over a fresh engine and a catalog of
// nFiles files of size bytes each; nFiles 0 means no catalog.
func newTestServer(nFiles int, size int64) *Server {
	svc := &Service{Engine: core.NewEngine(0)}
	if nFiles > 0 {
		files := make([]trace.File, nFiles)
		for i := range files {
			files[i] = trace.File{ID: trace.FileID(i), Name: fmt.Sprintf("f%d", i), Size: size}
		}
		svc.Catalog = &trace.Trace{Files: files}
	}
	return NewServer(svc)
}

// failingJournal refuses every observe: the 500 path.
type failingJournal struct{ err error }

func (j failingJournal) Observe([]trace.FileID) error        { return j.err }
func (j failingJournal) ObserveBatch([][]trace.FileID) error { return j.err }

// runStream feeds raw post-magic request bytes through serveStream and
// returns the raw response bytes and the stream error.
func runStream(t *testing.T, s *Server, in []byte) ([]byte, error) {
	t.Helper()
	var out bytes.Buffer
	err := s.serveStream(&connState{},
		bufio.NewReader(bytes.NewReader(in)), bufio.NewWriter(&out), nil)
	return out.Bytes(), err
}

// frames splits raw response bytes into decoded (kind, payload) frames.
func frames(t *testing.T, raw []byte) (kinds []byte, payloads [][]byte) {
	t.Helper()
	cr := trace.NewChunkReader(bytes.NewReader(raw))
	for {
		kind, payload, err := cr.ReadChunk()
		if err != nil {
			return kinds, payloads
		}
		kinds = append(kinds, kind)
		payloads = append(payloads, append([]byte(nil), payload...))
	}
}

func chunk(t *testing.T, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteChunk(&buf, payload); err != nil {
		t.Fatalf("WriteChunk: %v", err)
	}
	return buf.Bytes()
}

func TestObserveRoundTrip(t *testing.T) {
	s := newTestServer(10, 100)
	var in []byte
	in = append(in, chunk(t, AppendObserveRequest(nil, []trace.FileID{0, 1, 2}))...)
	in = append(in, chunk(t, AppendObserveRequest(nil, []trace.FileID{0, 1, 2}))...)
	in = append(in, chunk(t, AppendObserveRequest(nil, []trace.FileID{0, 5}))...)
	raw, err := runStream(t, s, in)
	if err != nil {
		t.Fatalf("serveStream: %v", err)
	}
	kinds, payloads := frames(t, raw)
	if len(kinds) != 3 {
		t.Fatalf("got %d frames, want 3", len(kinds))
	}
	wants := []ObserveReply{
		{Observed: 1, Filecules: 1},
		{Observed: 2, Filecules: 1},
		{Observed: 3, Filecules: 3}, // {0}, {1,2}, {5}
	}
	for i, k := range kinds {
		if k != KindObserveResult {
			t.Fatalf("frame %d kind %q, want 'o'", i, k)
		}
		got, err := decodeObserveReply(trace.NewPayload(payloads[i]))
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got != wants[i] {
			t.Errorf("frame %d = %+v, want %+v", i, got, wants[i])
		}
	}
}

func TestBatchAndPartitionRoundTrip(t *testing.T) {
	s := newTestServer(10, 100)
	var in []byte
	in = append(in, chunk(t, AppendBatchRequest(nil, [][]trace.FileID{
		{0, 1, 2}, {0, 1, 2}, {3},
	}))...)
	in = append(in, chunk(t, AppendPartitionRequest(nil))...)
	raw, err := runStream(t, s, in)
	if err != nil {
		t.Fatalf("serveStream: %v", err)
	}
	kinds, payloads := frames(t, raw)
	if len(kinds) != 2 || kinds[0] != KindObserveResult || kinds[1] != KindPartitionResult {
		t.Fatalf("frames = %q, want \"op\"", kinds)
	}
	or, err := decodeObserveReply(trace.NewPayload(payloads[0]))
	if err != nil || or.Observed != 3 || or.Filecules != 2 {
		t.Fatalf("observe reply %+v err %v, want 3 observed 2 filecules", or, err)
	}
	pr, err := decodePartitionReply(trace.NewPayload(payloads[1]))
	if err != nil {
		t.Fatalf("partition reply: %v", err)
	}
	if pr.Observed != 3 || len(pr.Filecules) != 2 {
		t.Fatalf("partition = %+v, want observed 3, 2 filecules", pr)
	}
	// Canonical order: {0,1,2} then {3}; catalog sizes 100/file.
	fc0, fc1 := pr.Filecules[0], pr.Filecules[1]
	if len(fc0.Files) != 3 || fc0.Requests != 2 || fc0.Bytes != 300 {
		t.Errorf("filecule 0 = %+v, want 3 files, 2 requests, 300 bytes", fc0)
	}
	if len(fc1.Files) != 1 || fc1.Requests != 1 || fc1.Bytes != 100 {
		t.Errorf("filecule 1 = %+v, want 1 file, 1 request, 100 bytes", fc1)
	}
}

func TestAdviseMatchesDirectPlanner(t *testing.T) {
	s := newTestServer(8, 50)
	s.Engine.ObserveBatch([][]trace.FileID{{0, 1}, {0, 1}, {2, 3}})

	req := cache.AdviceRequest{
		Capacity: 150,
		Files:    []trace.FileID{0, 1, 2},
		Resident: []cache.ResidentUnit{{Unit: 1, LastAccess: 5}},
	}
	var in []byte
	in = append(in, chunk(t, AppendAdviseRequest(nil, req))...)
	raw, err := runStream(t, s, in)
	if err != nil {
		t.Fatalf("serveStream: %v", err)
	}
	kinds, payloads := frames(t, raw)
	if len(kinds) != 1 || kinds[0] != KindAdviceResult {
		t.Fatalf("frames = %q, want \"a\"", kinds)
	}
	got, err := decodeAdviceReply(trace.NewPayload(payloads[0]))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	g, rerr := s.Granularity()
	if rerr != nil {
		t.Fatalf("granularity: %v", rerr)
	}
	want, err := cache.Advise(g, req)
	if err != nil {
		t.Fatalf("direct advise: %v", err)
	}
	if len(got.Hits) != len(want.Hits) || len(got.Load) != len(want.Load) ||
		len(got.Evict) != len(want.Evict) || len(got.Bypassed) != len(want.Bypassed) ||
		got.BytesToLoad != want.BytesToLoad || got.BytesToEvict != want.BytesToEvict {
		t.Fatalf("wire advice %+v != direct advice %+v", got, want)
	}
	for i := range want.Load {
		if got.Load[i].Unit != want.Load[i].Unit || got.Load[i].Bytes != want.Load[i].Bytes {
			t.Errorf("load[%d] = %+v, want %+v", i, got.Load[i], want.Load[i])
		}
	}
}

func TestMalformedPayloadKeepsConnection(t *testing.T) {
	s := newTestServer(4, 10)
	var in []byte
	in = append(in, chunk(t, []byte{KindObserve, 0xff})...) // truncated varint
	in = append(in, chunk(t, AppendObserveRequest(nil, []trace.FileID{1}))...)
	raw, err := runStream(t, s, in)
	if err != nil {
		t.Fatalf("serveStream: %v (payload errors must not kill the stream)", err)
	}
	kinds, payloads := frames(t, raw)
	if len(kinds) != 2 || kinds[0] != KindError || kinds[1] != KindObserveResult {
		t.Fatalf("frames = %q, want \"eo\"", kinds)
	}
	rerr := decodeError(trace.NewPayload(payloads[0]))
	re, ok := rerr.(*RemoteError)
	if !ok {
		t.Fatalf("decodeError = %v, want *RemoteError", rerr)
	}
	if re.Code != CodeBadRequest || !strings.Contains(re.Msg, "byte offset") {
		t.Errorf("error = %+v, want 400 naming the byte offset", re)
	}
}

// answer runs one request frame through s and returns the response kind and,
// for an 'e' response, the error.
func answer(t *testing.T, s *Server, payload []byte) (byte, *RemoteError) {
	t.Helper()
	raw, err := runStream(t, s, chunk(t, payload))
	if err != nil {
		t.Fatalf("serveStream: %v", err)
	}
	kinds, payloads := frames(t, raw)
	if len(kinds) != 1 {
		t.Fatalf("got %d frames, want 1", len(kinds))
	}
	if kinds[0] != KindError {
		return kinds[0], nil
	}
	return KindError, decodeError(trace.NewPayload(payloads[0])).(*RemoteError)
}

func TestFileIDOutOfCatalogRejected(t *testing.T) {
	s := newTestServer(4, 10)
	if _, re := answer(t, s, AppendObserveRequest(nil, []trace.FileID{7})); re == nil || re.Code != CodeBadRequest {
		t.Errorf("observe of file 7 in a 4-file catalog: %+v, want 400", re)
	}
	if got := s.Engine.Observed(); got != 0 {
		t.Errorf("observed = %d after rejected job, want 0", got)
	}

	// A frame carries a lookup's file ID as a uvarint, so it can name any
	// 64-bit value; those of 2⁶³ and up go negative as int64 and, narrowed to
	// a FileID, alias small IDs (1<<63|1 is file 1). With or without a
	// catalog the answer is 400, never the aliased file's filecule.
	uvarint := func(kind byte, vs ...uint64) []byte {
		p := []byte{kind}
		for _, v := range vs {
			p = binary.AppendUvarint(p, v)
		}
		return p
	}
	for _, srv := range []*Server{newTestServer(4, 10), newTestServer(0, 0)} {
		srv.Engine.Observe([]trace.FileID{0, 1})
		for _, id := range []uint64{4 << 30, 1 << 63, 1<<63 | 1, 1<<63 | 0xFFFFFFFF, 1<<64 - 1} {
			if kind, re := answer(t, srv, uvarint(KindFilecule, id)); re == nil || re.Code != CodeBadRequest {
				t.Errorf("catalog %v: lookup of file %#x: answered %q %+v, want 'e' 400", srv.Catalog != nil, id, kind, re)
			}
		}
		if kind, _ := answer(t, srv, uvarint(KindFilecule, 1)); kind != KindFileculeResult {
			t.Errorf("catalog %v: lookup of file 1: answered %q, want 'f'", srv.Catalog != nil, kind)
		}
	}

	// The request side's other two unsigned-to-signed narrowings, both in
	// 'A': a capacity of 2⁶³ or more arrives negative and is refused as
	// non-positive; a resident unit that large arrives as a negative unit ID,
	// which names no unit. Each is a 400 from the planner.
	s.Engine.Observe([]trace.FileID{0, 1})
	advise := func(capacity, unit uint64) []byte {
		// capacity, one file run {0}, one resident unit with lastAccess 0
		return append(uvarint(KindAdvise, capacity, 1, 0, 1, 1, unit), 0)
	}
	if kind, _ := answer(t, s, advise(100, 0)); kind != KindAdviceResult {
		t.Fatalf("well-formed advise answered %q, want 'a'", kind)
	}
	for _, c := range []struct {
		capacity, unit uint64
		want           string
	}{
		{1 << 63, 0, "must be > 0"},
		{1<<64 - 1, 0, "must be > 0"},
		{100, 1 << 63, "unknown resident unit"},
		{100, 1<<64 - 1, "unknown resident unit"},
	} {
		if _, re := answer(t, s, advise(c.capacity, c.unit)); re == nil || re.Code != CodeBadRequest || !strings.Contains(re.Msg, c.want) {
			t.Errorf("advise capacity %#x unit %#x: %+v, want 400 %q", c.capacity, c.unit, re, c.want)
		}
	}
}

func TestBrokenFramingClosesWithFinalError(t *testing.T) {
	s := newTestServer(4, 10)
	good := chunk(t, AppendObserveRequest(nil, []trace.FileID{1}))
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)-1] ^= 0xff // flip a CRC byte
	in := append(append([]byte(nil), good...), corrupt...)
	raw, err := runStream(t, s, in)
	if err == nil {
		t.Fatal("serveStream returned nil on corrupt framing, want error")
	}
	kinds, payloads := frames(t, raw)
	if len(kinds) != 2 || kinds[0] != KindObserveResult || kinds[1] != KindError {
		t.Fatalf("frames = %q, want \"oe\"", kinds)
	}
	re := decodeError(trace.NewPayload(payloads[1])).(*RemoteError)
	if !strings.Contains(re.Msg, "byte offset") {
		t.Errorf("final error %q does not name the byte offset", re.Msg)
	}
}

// narrowed returns the protocol's request limits with edit applied, for a
// test to set on a Service.
func narrowed(edit func(*limits)) *limits {
	l := requestLimits
	edit(&l)
	return &l
}

func TestBatchOverLimitRejected(t *testing.T) {
	s := newTestServer(4, 10)
	s.Service.lim = narrowed(func(l *limits) { l.batchJobs = 2 })
	jobs := [][]trace.FileID{{0}, {1}, {2}}
	_, re := answer(t, s, AppendBatchRequest(nil, jobs))
	if re == nil || re.Code != CodeBadRequest || !strings.Contains(re.Msg, "exceeds limit 2") {
		t.Errorf("error = %+v, want batch-limit rejection", re)
	}
}

// TestBatchTotalExpansionCapped pins the batch-wide decode budget: the
// per-job cap alone would let run-length encoding expand a tiny 'B' frame
// to jobs × jobFiles IDs, so the total across all jobs must also be capped.
func TestBatchTotalExpansionCapped(t *testing.T) {
	s := newTestServer(64, 10)
	s.Service.lim = narrowed(func(l *limits) { l.batchFiles = 10 })

	// 12 total files over three jobs: exceeds the batch cap even though
	// each job is well under the per-job cap.
	over := [][]trace.FileID{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}, {10, 11}}
	if _, re := answer(t, s, AppendBatchRequest(nil, over)); re == nil || re.Code != CodeBadRequest {
		t.Errorf("error = %+v, want 400", re)
	}
	if got := s.Engine.Observed(); got != 0 {
		t.Errorf("observed = %d after rejected batch, want 0", got)
	}

	// Exactly at the cap is fine.
	at := [][]trace.FileID{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}}
	if kind, _ := answer(t, s, AppendBatchRequest(nil, at)); kind != KindObserveResult {
		t.Fatalf("answered %q, want 'o' for a batch at the cap", kind)
	}
}

// TestBatchAmplificationFrameRejected replays the review's attack shape: a
// frame whose run-length encoding is a few bytes per job but whose decoded
// form would be jobs × MaxJobFiles IDs. It must be answered 400 without the
// server materializing more than the batch budget.
func TestBatchAmplificationFrameRejected(t *testing.T) {
	s := newTestServer(0, 0)
	s.Service.lim = narrowed(func(l *limits) { l.jobFiles, l.batchFiles = 1<<10, 1<<12 })
	jobs := 100
	payload := []byte{KindObserveBatch}
	payload = binary.AppendUvarint(payload, uint64(jobs))
	for i := 0; i < jobs; i++ {
		payload = binary.AppendUvarint(payload, 1)             // one run
		payload = binary.AppendVarint(payload, 0)              // start delta 0
		payload = binary.AppendUvarint(payload, uint64(1<<10)) // max-length run
	}
	_, re := answer(t, s, payload)
	if re == nil || re.Code != CodeBadRequest || !strings.Contains(re.Msg, "byte offset") {
		t.Errorf("error = %+v, want 400 naming the byte offset", re)
	}
	if got := s.Engine.Observed(); got != 0 {
		t.Errorf("observed = %d after rejected batch, want 0", got)
	}
}

func TestUnknownKindRejected(t *testing.T) {
	s := newTestServer(4, 10)
	if kind, _ := answer(t, s, []byte{'Z'}); kind != KindError {
		t.Fatalf("answered %q, want 'e'", kind)
	}
}

// TestObserveHandleAllocs pins the zero-allocation contract of the hot
// observe path: once a connection's pools are warm and the engine has seen
// the job shape, handling an 'O' frame allocates nothing.
func TestObserveHandleAllocs(t *testing.T) {
	s := newTestServer(64, 10)
	payload := AppendObserveRequest(nil, []trace.FileID{3, 4, 5, 6, 7})
	st := &connState{}
	// Warm: first calls grow pools and create the engine's blocks.
	for i := 0; i < 3; i++ {
		s.handle(st, payload[0], payload, 0)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, _, code := s.handle(st, payload[0], payload, 0); code != 200 {
			t.Fatalf("handle code %d", code)
		}
	})
	if avg != 0 {
		t.Errorf("observe handle allocates %.1f objects/op, want 0", avg)
	}
}

func TestClientServerOverTCP(t *testing.T) {
	s := newTestServer(16, 25)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, l) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()

	c, err := Dial(l.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	// Pipelined burst: N observes, one flush, N receives in order.
	const n = 50
	for i := 0; i < n; i++ {
		if err := c.SendObserve([]trace.FileID{0, 1, trace.FileID(i % 16)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	for i := 0; i < n; i++ {
		r, err := c.RecvObserve()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if r.Observed != int64(i+1) {
			t.Fatalf("reply %d observed = %d, want %d (FIFO order broken)", i, r.Observed, i+1)
		}
	}

	// A RemoteError (bad file ID) must not poison the connection.
	if _, err := c.Observe([]trace.FileID{99}); err == nil {
		t.Fatal("observe of out-of-catalog file succeeded, want RemoteError")
	} else if _, ok := err.(*RemoteError); !ok {
		t.Fatalf("err = %v, want *RemoteError", err)
	}
	r, err := c.Observe([]trace.FileID{2})
	if err != nil {
		t.Fatalf("observe after RemoteError: %v", err)
	}
	if r.Observed != n+1 {
		t.Errorf("observed = %d, want %d", r.Observed, n+1)
	}

	// Sync advise and partition round trips.
	adv, err := c.Advise(cache.AdviceRequest{Capacity: 100, Files: []trace.FileID{0, 1}})
	if err != nil {
		t.Fatalf("advise: %v", err)
	}
	if len(adv.Load) == 0 || adv.BytesToLoad == 0 {
		t.Errorf("advice = %+v, want a load plan", adv)
	}
	p, err := c.Partition()
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	if p.Observed != n+1 || len(p.Filecules) == 0 {
		t.Errorf("partition = observed %d with %d filecules, want %d observed", p.Observed, len(p.Filecules), n+1)
	}
}

func TestBadMagicAnswersError(t *testing.T) {
	s := newTestServer(4, 10)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, l) }()
	defer func() { cancel(); <-done }()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	cr := trace.NewChunkReader(conn)
	kind, payload, err := cr.ReadChunk()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if kind != KindError {
		t.Fatalf("kind = %q, want 'e'", kind)
	}
	re := decodeError(trace.NewPayload(payload)).(*RemoteError)
	if re.Code != CodeBadRequest || !strings.Contains(re.Msg, "magic") {
		t.Errorf("error = %+v, want bad-magic 400", re)
	}
}

// lateConnListener returns one connection only after the listener has been
// Closed, reproducing the shutdown race where Accept wins against ctx
// cancellation and the connection would otherwise register after the closer
// goroutine has already swept the map.
type lateConnListener struct {
	conn   net.Conn
	closed chan struct{}
	once   sync.Once
	served bool
}

func (l *lateConnListener) Accept() (net.Conn, error) {
	if l.served {
		return nil, net.ErrClosed
	}
	l.served = true
	<-l.closed
	// Give the shutdown goroutine time to finish sweeping the (empty)
	// connection map before handing over the late connection.
	time.Sleep(20 * time.Millisecond)
	return l.conn, nil
}

func (l *lateConnListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *lateConnListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4zero} }

// TestShutdownClosesConnAcceptedDuringCancel pins that a connection accepted
// concurrently with ctx cancellation is closed immediately rather than left
// to time out against the idle deadline (which would stall Serve's wg.Wait
// for up to that long).
func TestShutdownClosesConnAcceptedDuringCancel(t *testing.T) {
	server, client := net.Pipe()
	defer client.Close()
	l := &lateConnListener{conn: server, closed: make(chan struct{})}
	s := newTestServer(4, 10) // default 120s idle timeout
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, l) }()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after cancel; late-accepted conn leaked past the shutdown sweep")
	}
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := client.Read(make([]byte, 1)); err == nil {
		t.Error("read on the late-accepted conn succeeded, want closed")
	} else if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
		t.Error("late-accepted conn still open after shutdown (read timed out)")
	}
}

// TestAdviceReplyDecodeStopsOnStickyError pins that every count-driven reply
// loop stops at the first decode error rather than appending junk entries up
// to the claimed count (a hostile reply could otherwise drive hundreds of MB
// of allocation from one max-size frame).
func TestAdviceReplyDecodeStopsOnStickyError(t *testing.T) {
	junk := bytes.Repeat([]byte{0x80}, 40) // never-terminating varint
	t.Run("hits", func(t *testing.T) {
		var pl []byte
		pl = binary.AppendUvarint(pl, 40)
		pl = append(pl, junk...)
		r, err := decodeAdviceReply(trace.NewPayload(pl))
		if err == nil {
			t.Fatal("decode of malformed reply succeeded")
		}
		if len(r.Hits) > 1 {
			t.Errorf("decode appended %d hits after the error, want <= 1", len(r.Hits))
		}
	})
	t.Run("evict", func(t *testing.T) {
		var pl []byte
		pl = binary.AppendUvarint(pl, 0) // no hits
		pl = binary.AppendUvarint(pl, 0) // no load units
		pl = binary.AppendUvarint(pl, 40)
		pl = append(pl, junk...)
		r, err := decodeAdviceReply(trace.NewPayload(pl))
		if err == nil {
			t.Fatal("decode of malformed reply succeeded")
		}
		if len(r.Evict) > 1 {
			t.Errorf("decode appended %d evicts after the error, want <= 1", len(r.Evict))
		}
	})
}

func TestObserveBackendErrorAnswers500(t *testing.T) {
	s := newTestServer(4, 10)
	s.Journal = failingJournal{fmt.Errorf("disk full")}
	_, re := answer(t, s, AppendObserveRequest(nil, []trace.FileID{0}))
	if re == nil || re.Code != CodeInternal || !strings.Contains(re.Msg, "disk full") {
		t.Errorf("error = %+v, want 500 carrying the cause", re)
	}
}

// TestClientWriteTimeout: Dial's timeout bounds writes too. Against a peer
// that accepts and never reads, a batch far larger than the socket buffers
// must fail within the timeout's order, not when the peer gives up.
func TestClientWriteTimeout(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		time.Sleep(10 * time.Second) // a stalled peer, then it gives up
		conn.Close()
	}()
	jobs := make([][]trace.FileID, 5000)
	for j := range jobs {
		jobs[j] = make([]trace.FileID, 400)
		for k := range jobs[j] {
			jobs[j][k] = trace.FileID(2 * (400*j + k)) // no runs: ~2 bytes an ID
		}
	}
	c, err := Dial(l.Addr().String(), 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Batch(jobs)
	if elapsed := time.Since(start); err == nil || elapsed > 2*time.Second {
		t.Fatalf("Batch to a peer that never reads: %v after %v, want an error within 2s", err, elapsed)
	}
}
