package wire

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"filecule/internal/core"
	"filecule/internal/fed"
	"filecule/internal/trace"
)

// captureTransport records the delta a fed node hands it and fails the
// exchange, so tests can send a real delta's frames by hand.
type captureTransport struct{ delta []byte }

func (c *captureTransport) Exchange(_ context.Context, _ string, delta []byte) ([]byte, error) {
	c.delta = append(c.delta[:0], delta...)
	return nil, context.DeadlineExceeded
}

// captureDelta returns the delta a site that observed jobs sends a peer
// holding nothing of it.
func captureDelta(tb testing.TB, site string, jobs ...[]trace.FileID) []byte {
	tb.Helper()
	eng := core.NewEngine(0)
	for _, files := range jobs {
		eng.Observe(files)
	}
	ct := &captureTransport{}
	n, err := fed.NewNode(fed.Config{Site: site, Self: eng, Peers: []string{"peer"}, Transport: ct, Incarnation: 1})
	if err != nil {
		tb.Fatal(err)
	}
	n.ExchangeAll()
	if !bytes.HasPrefix(ct.delta, []byte(fed.Magic)) {
		tb.Fatalf("captured %d bytes, want a filecule-fed/v1 delta", len(ct.delta))
	}
	return ct.delta
}

// deltaFrames splits a delta into its frames' raw bytes, magic dropped.
func deltaFrames(tb testing.TB, delta []byte) (kinds []byte, raw [][]byte) {
	tb.Helper()
	body := delta[len(fed.Magic):]
	cr := trace.NewChunkReader(bytes.NewReader(body))
	for {
		start := cr.Offset()
		kind, _, err := cr.ReadChunk()
		if err != nil {
			return kinds, raw
		}
		kinds = append(kinds, kind)
		raw = append(raw, body[start:cr.Offset()])
	}
}

// newFedTestServer is newTestServer with a federation node of site "local",
// bounded by the catalog as server.New bounds it.
func newFedTestServer(tb testing.TB, nFiles int) *Server {
	tb.Helper()
	s := newTestServer(nFiles, 10)
	node, err := fed.NewNode(fed.Config{Site: "local", Self: s.Engine, MaxFiles: nFiles, Incarnation: 2})
	if err != nil {
		tb.Fatal(err)
	}
	s.Fed = node
	return s
}

func TestFedExchangeOverStream(t *testing.T) {
	s := newFedTestServer(t, 16)
	delta := captureDelta(t, "remote", []trace.FileID{1, 2, 3}, []trace.FileID{1, 2})
	in := append(append([]byte(nil), delta[len(fed.Magic):]...), chunk(t, AppendObserveRequest(nil, []trace.FileID{4}))...)
	raw, err := runStream(t, s, in)
	if err != nil {
		t.Fatalf("serveStream: %v", err)
	}
	kinds, _ := frames(t, raw)
	if string(kinds) != "Ao" {
		t.Fatalf("responses %q, want one 'A' for the delta, then 'o'", kinds)
	}
	sites := s.Fed.Sites()
	if len(sites) != 1 || sites[0].Site != "remote" || sites[0].Groups != 2 {
		t.Fatalf("held sites %+v, want remote with 2 groups", sites)
	}
}

// TestFedDeltaErrorsClose: inside a delta the frame boundary of the exchange
// is lost on any fault, so the server answers one 'e' naming the byte
// offset and ends the stream, with nothing applied.
func TestFedDeltaErrorsClose(t *testing.T) {
	delta := captureDelta(t, "remote", []trace.FileID{1, 2, 3}, []trace.FileID{1, 2})
	kinds, raw := deltaFrames(t, delta)
	if string(kinds) != "HGLE" {
		t.Fatalf("captured delta frames %q, want HGLE", kinds)
	}
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	corruptG := append([]byte(nil), raw[1]...)
	corruptG[len(corruptG)-1] ^= 0xff
	observe := chunk(t, AppendObserveRequest(nil, []trace.FileID{4}))
	cases := []struct {
		name  string
		in    []byte
		limit int
		want  string
	}{
		{"corrupt frame", join(raw[0], corruptG, raw[2], raw[3], observe), 0, "CRC mismatch"},
		{"cut before E", join(raw[0], raw[1], raw[2]), 0, "cut short"},
		{"observe inside", join(raw[0], raw[1], observe, raw[2], raw[3], observe), 0, `frame 'O'`},
		{"second header", join(raw[0], raw[0], raw[1], raw[2], raw[3], observe), 0, `frame 'H'`},
		{"past the bound", join(raw[0], raw[1], raw[2], raw[3], observe), len(delta) - 1, "passes"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := newFedTestServer(t, 16)
			if c.limit > 0 {
				s.flow.delta = c.limit
			}
			out, err := runStream(t, s, c.in)
			if err == nil {
				t.Fatal("serveStream returned nil, want the stream ended")
			}
			kinds, payloads := frames(t, out)
			if string(kinds) != "e" {
				t.Fatalf("responses %q, want one 'e'", kinds)
			}
			re := decodeError(trace.NewPayload(payloads[0])).(*RemoteError)
			if re.Code != CodeBadRequest || !strings.Contains(re.Msg, "byte offset") || !strings.Contains(re.Msg, c.want) {
				t.Errorf("error %+v, want 400 naming the byte offset and %q", re, c.want)
			}
			if n := len(s.Fed.Sites()); n != 0 {
				t.Errorf("%d sites held after a broken delta, want 0", n)
			}
		})
	}
}

// TestFedDeltaRefusedKeepsConnection: a delta that frames correctly but that
// the node refuses is a per-request 400, and the connection goes on.
func TestFedDeltaRefusedKeepsConnection(t *testing.T) {
	s := newFedTestServer(t, 16)
	wide := captureDelta(t, "wide", []trace.FileID{1, 40})
	own := captureDelta(t, "local", []trace.FileID{1, 2})
	in := bytes.Join([][]byte{wide[len(fed.Magic):], own[len(fed.Magic):],
		chunk(t, AppendObserveRequest(nil, []trace.FileID{4}))}, nil)
	raw, err := runStream(t, s, in)
	if err != nil {
		t.Fatalf("serveStream: %v (a refused delta must not end the stream)", err)
	}
	kinds, payloads := frames(t, raw)
	if string(kinds) != "eeo" {
		t.Fatalf("responses %q, want \"eeo\"", kinds)
	}
	for i, want := range []string{"outside the local catalog", "our own site name"} {
		re := decodeError(trace.NewPayload(payloads[i])).(*RemoteError)
		if re.Code != CodeBadRequest || !strings.Contains(re.Msg, want) {
			t.Errorf("response %d: %+v, want 400 %q", i, re, want)
		}
	}
}

// TestFedFramesWithoutDelta: an 'H' to a server without federation is a 400,
// the delta's other frames are unknown kinds, as is a 'G' outside a delta on
// a federated server, and the connection stays open through all of them.
func TestFedFramesWithoutDelta(t *testing.T) {
	delta := captureDelta(t, "remote", []trace.FileID{1, 2})
	_, raw := deltaFrames(t, delta)
	observe := chunk(t, AppendObserveRequest(nil, []trace.FileID{4}))

	out, err := runStream(t, newTestServer(16, 10), append(append([]byte(nil), delta[len(fed.Magic):]...), observe...))
	if err != nil {
		t.Fatalf("serveStream without federation: %v", err)
	}
	kinds, payloads := frames(t, out)
	if string(kinds) != "eeeeo" {
		t.Fatalf("responses without federation %q, want \"eeeeo\"", kinds)
	}
	for i, want := range []string{"federation is not enabled", "unknown kind 'G'", "unknown kind 'L'", "unknown kind 'E'"} {
		if re := decodeError(trace.NewPayload(payloads[i])).(*RemoteError); re.Code != CodeBadRequest || !strings.Contains(re.Msg, want) {
			t.Errorf("response %d: %+v, want 400 %q", i, re, want)
		}
	}

	out, err = runStream(t, newFedTestServer(t, 16), append(append([]byte(nil), raw[1]...), observe...))
	if err != nil {
		t.Fatalf("serveStream with a stray 'G': %v", err)
	}
	if kinds, payloads = frames(t, out); string(kinds) != "eo" {
		t.Fatalf("responses to a stray 'G' %q, want \"eo\"", kinds)
	}
	if re := decodeError(trace.NewPayload(payloads[0])).(*RemoteError); !strings.Contains(re.Msg, "unknown kind 'G'") {
		t.Errorf("stray 'G' answered %+v, want an unknown kind", re)
	}
}

// TestFedTransportOverTCP: a node whose transport is FedTransport converges
// with a wire server's node over a real connection, and a refusal comes back
// as the server's *RemoteError.
func TestFedTransportOverTCP(t *testing.T) {
	s := newFedTestServer(t, 16)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
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

	eng := core.NewEngine(0)
	eng.Observe([]trace.FileID{1, 2, 3})
	eng.Observe([]trace.FileID{2, 3})
	addr := l.Addr().String()
	sender, err := fed.NewNode(fed.Config{Site: "remote", Self: eng, Peers: []string{addr},
		Transport: FedTransport{}, Timeout: 5 * time.Second, Incarnation: 1})
	if err != nil {
		t.Fatal(err)
	}
	sender.ExchangeAll()
	if h := sender.Health()[0]; !h.Healthy || h.AckedVersion == 0 || h.Site != "local" {
		t.Fatalf("peer health after one exchange: %+v", h)
	}
	if sites := s.Fed.Sites(); len(sites) != 1 || sites[0].Groups != 2 {
		t.Fatalf("receiver holds %+v, want remote's 2 groups", sites)
	}

	_, err = FedTransport{}.Exchange(context.Background(), addr, captureDelta(t, "wide", []trace.FileID{1, 40}))
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeBadRequest || !strings.Contains(re.Msg, "outside the local catalog") {
		t.Fatalf("out-of-catalog exchange: %v, want a 400 *RemoteError", err)
	}
}
