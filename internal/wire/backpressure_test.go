package wire

import (
	"bufio"
	"bytes"
	"net"
	"testing"
	"time"

	"filecule/internal/trace"
)

// TestHostilePipelining: a client that pipelines requests forever without
// ever reading responses must not pin the server goroutine or queue
// unbounded responses. With the pipeline limit reached, the forced flush blocks on
// the socket and the write deadline disconnects the client.
func TestHostilePipelining(t *testing.T) {
	srvConn, cliConn := net.Pipe()
	defer cliConn.Close()
	s := newTestServer(16, 10)
	s.WriteTimeout = 100 * time.Millisecond
	s.flow.pipeline, s.flow.idle = 4, 5*time.Second
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer srvConn.Close()
		s.handleConn(srvConn)
	}()

	// Write the magic and then pipeline requests without reading a single
	// response byte. net.Pipe is unbuffered, so our writes park once the
	// server stops reading; write them from a goroutine and only require
	// that the server hangs up.
	req := AppendObserveRequest(nil, []trace.FileID{0, 1, 2})
	go func() {
		cliConn.Write([]byte(Magic))
		var frame bytes.Buffer
		trace.WriteChunk(&frame, req)
		for i := 0; i < 1000; i++ {
			if _, err := cliConn.Write(frame.Bytes()); err != nil {
				return // server gave up on us, as it should
			}
		}
	}()

	select {
	case <-done:
		// Server disconnected the hostile client: backpressure held.
	case <-time.After(5 * time.Second):
		t.Fatal("server goroutine still pinned by a client that never reads")
	}
}

// TestPipelineCapStillAnswersEverything: a well-behaved client draining
// concurrently gets every response even when the pipeline limit is far smaller
// than the number of pipelined requests — the cap forces intermediate
// flushes, it never drops frames.
func TestPipelineCapStillAnswersEverything(t *testing.T) {
	const n = 64
	srvConn, cliConn := net.Pipe()
	s := newTestServer(16, 10)
	s.WriteTimeout = 2 * time.Second
	s.flow.pipeline, s.flow.idle = 2, 5*time.Second
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer srvConn.Close()
		s.handleConn(srvConn)
	}()

	var in bytes.Buffer
	in.WriteString(Magic)
	req := AppendObserveRequest(nil, []trace.FileID{1, 2})
	for i := 0; i < n; i++ {
		trace.WriteChunk(&in, req)
	}
	go func() { cliConn.Write(in.Bytes()) }()

	cr := trace.NewChunkReader(bufio.NewReader(cliConn))
	for i := 0; i < n; i++ {
		kind, payload, err := cr.ReadChunk()
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if kind != KindObserveResult {
			t.Fatalf("response %d: kind %q, want %q", i, kind, KindObserveResult)
		}
		var pl trace.Payload
		pl.Reset(payload)
		if rep, err := decodeObserveReply(&pl); err != nil || rep.Observed != int64(i+1) {
			t.Fatalf("response %d: reply %+v err %v", i, rep, err)
		}
	}
	cliConn.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("server goroutine did not exit after client close")
	}
}
