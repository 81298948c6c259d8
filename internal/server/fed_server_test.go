package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"filecule/internal/core"
	"filecule/internal/fed"
	"filecule/internal/synth"
	"filecule/internal/trace"
	"filecule/internal/wire"
)

// startOn runs s on l until the test ends.
func startOn(t *testing.T, s *Server, l net.Listener) {
	t.Helper()
	runUntilCleanup(t, "Run", func(ctx context.Context) error { return s.Run(ctx, l) })
}

// startWireOn runs s's wire listener on l until the test ends.
func startWireOn(t *testing.T, s *Server, l net.Listener) {
	t.Helper()
	runUntilCleanup(t, "RunWire", func(ctx context.Context) error { return s.RunWire(ctx, l) })
}

func runUntilCleanup(t *testing.T, name string, run func(context.Context) error) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("%s: %v", name, err)
		}
	})
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, string(b)
}

// TestFederatedServersConverge stands up two real servers, each fed half the
// trace over /v1/jobs/batch and peered at the other's wire listener, and
// waits for both /v1/fed/partition responses to become byte-identical to a
// single-node identification of the whole trace.
func TestFederatedServersConverge(t *testing.T) {
	tr, err := synth.Generate(synth.DZero(17, 0.003))
	if err != nil {
		t.Fatal(err)
	}

	lA, lB, wA, wB := listen(t), listen(t), listen(t), listen(t)
	baseA := "http://" + lA.Addr().String()
	baseB := "http://" + lB.Addr().String()
	peerB := wB.Addr().String()

	mk := func(site, peer string, inc uint64) *Server {
		return New(Config{
			Catalog: tr.Files,
			Fed: &fed.Config{
				Site:        site,
				Peers:       []string{peer},
				Interval:    10 * time.Millisecond,
				Incarnation: inc,
				Seed:        int64(inc),
			},
		})
	}
	sA := mk("site-a", peerB, 1)
	sB := mk("site-b", wA.Addr().String(), 2)
	startOn(t, sA, lA)
	startOn(t, sB, lB)
	startWireOn(t, sA, wA)
	startWireOn(t, sB, wB)

	// Deal job i to server i%2, batched.
	var batches [2]BatchBody
	for i := range tr.Jobs {
		batches[i%2].Jobs = append(batches[i%2].Jobs, JobBody{Files: tr.Jobs[i].Files})
	}
	for i, base := range []string{baseA, baseB} {
		bb, _ := json.Marshal(batches[i])
		resp, err := http.Post(base+"/v1/jobs/batch", "application/json", bytes.NewReader(bb))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch to %s: %d", base, resp.StatusCode)
		}
		resp.Body.Close()
	}

	wantBytes, err := PartitionJSON(core.Identify(tr), int64(len(tr.Jobs)), &trace.Trace{Files: tr.Files})
	if err != nil {
		t.Fatal(err)
	}
	want := string(wantBytes)
	deadline := time.Now().Add(20 * time.Second)
	for {
		_, gotA := httpGet(t, baseA+"/v1/fed/partition")
		_, gotB := httpGet(t, baseB+"/v1/fed/partition")
		if strings.TrimSpace(gotA) == want && strings.TrimSpace(gotB) == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no convergence: lens %d/%d want %d", len(gotA), len(gotB), len(want))
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Both exchanged successfully, so readiness must report ok.
	if code, body := httpGet(t, baseA+"/readyz"); code != http.StatusOK {
		t.Errorf("readyz after convergence: %d %s", code, body)
	}
	// And the federation gauges must be present and healthy.
	_, metrics := httpGet(t, baseA+"/metrics")
	for _, needle := range []string{
		"filecule_fed_degraded 0",
		"filecule_fed_sites_known 1",
		`filecule_fed_peer_healthy{peer="` + peerB + `"} 1`,
		`filecule_fed_peer_breaker_state{peer="` + peerB + `"} 0`,
		"filecule_fed_peer_exchanges_total",
	} {
		if !strings.Contains(metrics, needle) {
			t.Errorf("metrics missing %q", needle)
		}
	}
}

// TestReadyzDegradedWithDeadPeer: a federated server whose peer never
// answers is degraded (503 with a reason) but still alive and serving.
func TestReadyzDegradedWithDeadPeer(t *testing.T) {
	s := New(Config{Fed: &fed.Config{
		Site:        "lonely",
		Peers:       []string{"127.0.0.1:1"},
		Incarnation: 9,
	}})
	if s.fedErr != nil {
		t.Fatal(s.fedErr)
	}
	w := do(s, "GET", "/readyz", "")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with dead peer: %d %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "no successful exchange yet") {
		t.Errorf("degraded reason missing: %s", w.Body)
	}
	if h := do(s, "GET", "/healthz", ""); h.Code != http.StatusOK {
		t.Errorf("healthz while degraded: %d", h.Code)
	}
	// Degraded shows in metrics too.
	m := do(s, "GET", "/metrics", "").Body.String()
	if !strings.Contains(m, "filecule_fed_degraded 1") {
		t.Errorf("metrics missing degraded gauge:\n%s", m)
	}
}

// TestReadyzWithoutFed: the probe exists on non-federated servers too.
func TestReadyzWithoutFed(t *testing.T) {
	s, _ := testServer(t)
	if w := do(s, "GET", "/readyz", ""); w.Code != http.StatusOK {
		t.Errorf("readyz: %d", w.Code)
	}
}

// TestFedConfigErrorSurfacesInRun: an invalid federation config (no site
// name) must fail Run rather than silently serving unfederated.
func TestFedConfigErrorSurfacesInRun(t *testing.T) {
	s := New(Config{Fed: &fed.Config{}})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background(), l); err == nil {
		t.Fatal("Run accepted a federation config with no site")
	}
}

// TestSlowlorisBodyCutOff is the regression test for per-request body read
// deadlines: with generous server-wide timeouts, a client that sends
// headers and then trickles nothing must be cut off by the body read limit,
// while concurrent well-behaved requests stay fast.
func TestSlowlorisBodyCutOff(t *testing.T) {
	tr, err := synth.Generate(synth.DZero(5, 0.003))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		Catalog:      tr.Files,
		ReadTimeout:  time.Hour, // deliberately useless: only the per-body deadline protects us
		WriteTimeout: time.Hour,
	})
	s.lim.bodyRead = 200 * time.Millisecond
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + l.Addr().String()
	startOn(t, s, l)

	// The slow client: full headers, half a body, then silence.
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	req := "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n{\"files\":[1,"
	if _, err := conn.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}

	// Meanwhile a normal request must not be starved.
	if code, _ := httpGet(t, base+"/healthz"); code != http.StatusOK {
		t.Errorf("healthz during slowloris: %d", code)
	}
	if resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(`{"files":[1,2]}`)); err != nil {
		t.Errorf("observe during slowloris: %v", err)
	} else {
		if resp.StatusCode != http.StatusOK {
			t.Errorf("observe during slowloris: %d", resp.StatusCode)
		}
		resp.Body.Close()
	}

	// The stalled request must be answered (408) or torn down within the
	// body deadline plus slack — not after ReadTimeout's hour.
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	line, err := bufio.NewReader(conn).ReadString('\n')
	elapsed := time.Since(start)
	if err == nil && !strings.Contains(line, "408") {
		t.Errorf("slowloris response line %q, want 408 or closed connection", strings.TrimSpace(line))
	}
	if elapsed > 5*time.Second {
		t.Errorf("slowloris connection lived %v, want cutoff near the 200ms body deadline", elapsed)
	}
}

// captureTransport records the delta bytes a fed node asks it to deliver
// and fails the exchange, so tests can replay raw messages over the wire.
type captureTransport struct{ delta []byte }

func (c *captureTransport) Exchange(_ context.Context, _ string, delta []byte) ([]byte, error) {
	c.delta = append(c.delta[:0], delta...)
	return nil, context.DeadlineExceeded
}

// craftFedDelta builds the wire delta a peer with the given site name would
// send after observing the given jobs.
func craftFedDelta(tb testing.TB, site string, jobs ...[]trace.FileID) []byte {
	tb.Helper()
	eng := core.NewEngine(0)
	for _, files := range jobs {
		eng.Observe(files)
	}
	ct := &captureTransport{}
	n, err := fed.NewNode(fed.Config{Site: site, Self: eng, Peers: []string{"r"}, Transport: ct, Incarnation: 1})
	if err != nil {
		tb.Fatal(err)
	}
	n.ExchangeAll()
	if ct.delta == nil {
		tb.Fatal("no delta captured")
	}
	return ct.delta
}

// exchange sends delta to the wire listener at addr as a peer would.
func exchange(t *testing.T, addr string, delta []byte) error {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := wire.FedTransport{}.Exchange(ctx, addr, delta)
	return err
}

// TestFedExchangeRejectsOutOfCatalogDelta: a well-formed delta whose file
// IDs exceed the server's catalog must be rejected with 400, and the merged
// partition endpoint must keep serving — previously the held remote state
// made /v1/fed/partition panic on catalog sizing for every request.
func TestFedExchangeRejectsOutOfCatalogDelta(t *testing.T) {
	tr, err := synth.Generate(synth.DZero(5, 0.003))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		Catalog: tr.Files,
		Fed:     &fed.Config{Site: "local", Incarnation: 3},
	})
	if s.fedErr != nil {
		t.Fatal(s.fedErr)
	}
	wl := listen(t)
	startWireOn(t, s, wl)
	bad := craftFedDelta(t, "wide", []trace.FileID{1, trace.FileID(len(tr.Files) + 1000)})
	var re *wire.RemoteError
	if err := exchange(t, wl.Addr().String(), bad); !errors.As(err, &re) || re.Code != http.StatusBadRequest {
		t.Fatalf("out-of-catalog delta: %v, want a 400", err)
	}
	if w := do(s, "GET", "/v1/fed/partition", ""); w.Code != http.StatusOK {
		t.Fatalf("fed partition after rejected delta: %d %s", w.Code, w.Body)
	}
	// An in-catalog delta over the same listener still applies and sizes.
	good := craftFedDelta(t, "narrow", []trace.FileID{1, 2})
	if err := exchange(t, wl.Addr().String(), good); err != nil {
		t.Fatalf("in-catalog delta: %v", err)
	}
	w := do(s, "GET", "/v1/fed/partition", "")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"bytes"`) {
		t.Fatalf("fed partition after applied delta: %d %s", w.Code, w.Body)
	}
}

// TestFedLargeDeltaOverWire: a full resync of 30 000 groups spans several
// 'G' frames, is larger than the JSON body cap, and applies over a real wire
// connection: the exchange never passes through the JSON decoder's limits.
func TestFedLargeDeltaOverWire(t *testing.T) {
	s := New(Config{Fed: &fed.Config{Site: "local", Incarnation: 3}})
	s.lim.bodyBytes = 1 << 20
	jobs := make([][]trace.FileID, 30000)
	for i := range jobs {
		jobs[i] = []trace.FileID{trace.FileID(8 * i), trace.FileID(8*i + 2), trace.FileID(8*i + 4), trace.FileID(8*i + 6)}
	}
	delta := craftFedDelta(t, "bulky", jobs...)
	groupFrames := 0
	cr := trace.NewChunkReader(bytes.NewReader(delta[len(fed.Magic):]))
	for {
		kind, _, err := cr.ReadChunk()
		if err != nil {
			break
		}
		if kind == fed.KindGroups {
			groupFrames++
		}
	}
	t.Logf("delta of %d bytes in %d 'G' frames", len(delta), groupFrames)
	if groupFrames < 4 || int64(len(delta)) <= s.lim.bodyBytes {
		t.Fatalf("delta of %d bytes in %d 'G' frames, want ≥ 4 frames and more than %d bytes", len(delta), groupFrames, s.lim.bodyBytes)
	}
	wl := listen(t)
	startWireOn(t, s, wl)
	if err := exchange(t, wl.Addr().String(), delta); err != nil {
		t.Fatalf("exchange of a %d-byte delta: %v", len(delta), err)
	}
	if sites := s.svc.Fed.Sites(); len(sites) != 1 || sites[0].Groups != len(jobs) {
		t.Fatalf("held %+v, want bulky's %d groups", sites, len(jobs))
	}
}
