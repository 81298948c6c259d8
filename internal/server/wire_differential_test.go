package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"filecule/internal/cache"
	"filecule/internal/core"
	"filecule/internal/synth"
	"filecule/internal/trace"
	"filecule/internal/wire"
)

// TestWireJSONDifferential replays one synthetic trace against two servers
// with identical configuration — one driven over the binary wire protocol,
// one over HTTP/JSON — and requires byte-identical state at every
// comparison point: observe acknowledgements request by request, the full
// canonical partition, and cache advice for an identically evolving client
// residency. This is the proof that the wire stack is a pure transport
// change: same decisions, different framing.
func TestWireJSONDifferential(t *testing.T) {
	tr, err := synth.Generate(synth.DZero(10, 0.003))
	if err != nil {
		t.Fatal(err)
	}
	sWire := New(Config{Catalog: tr.Files})
	sJSON := New(Config{Catalog: tr.Files})

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- sWire.RunWire(ctx, l) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("RunWire: %v", err)
		}
	}()
	wc, err := wire.Dial(l.Addr().String(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()

	// The simulated client cache: resident units evolved from the advice
	// both stacks return (which must agree, so one evolution serves both).
	var capacity int64
	for _, f := range tr.Files {
		capacity += f.Size
	}
	capacity = capacity/10 + 1
	resident := map[cache.UnitID]int64{} // unit -> last access

	jobs := len(tr.Jobs)
	if jobs > 400 {
		jobs = 400
	}
	for i := 0; i < jobs; i++ {
		files := tr.Jobs[i].Files

		wr, err := wc.Observe(files)
		if err != nil {
			t.Fatalf("job %d: wire observe: %v", i, err)
		}
		sameJSON(t, i, "observe ack", wr, do(sJSON, "POST", "/v1/jobs", marshalJob(t, files)))

		if i%40 != 39 {
			continue
		}
		comparePartitions(t, i, wc, sJSON)
		compareSummaries(t, i, wc, sJSON)
		if len(files) > 0 {
			compareFilecules(t, i, wc, sJSON, files[0])
		}
		compareAdvice(t, i, wc, sJSON, cache.AdviceRequest{
			Capacity: capacity,
			Files:    files,
			Resident: residentList(resident),
		}, resident, int64(i))
	}
	comparePartitions(t, jobs, wc, sJSON)
	compareSummaries(t, jobs, wc, sJSON)

	// A file never observed must 404 identically on both surfaces. Every
	// replayed job drew from the trace's catalog, so an ID one past the
	// catalog bound of the filter below is never a member; instead probe
	// with an in-catalog file that appears in no replayed job, if any.
	if unseen := unseenFile(tr, jobs); unseen >= 0 {
		if _, err := wc.Filecule(unseen); err == nil {
			t.Fatalf("wire lookup of unseen file %d succeeded", unseen)
		} else if re, ok := err.(*wire.RemoteError); !ok || re.Code != http.StatusNotFound {
			t.Fatalf("wire lookup of unseen file %d: %v, want remote 404", unseen, err)
		}
		if w := do(sJSON, "GET", fmt.Sprintf("/v1/filecules/%d", unseen), ""); w.Code != http.StatusNotFound {
			t.Fatalf("HTTP lookup of unseen file %d: %d", unseen, w.Code)
		}
	}
}

// unseenFile returns a catalog file absent from the first n jobs, or -1.
func unseenFile(tr *trace.Trace, n int) trace.FileID {
	seen := make([]bool, len(tr.Files))
	for _, j := range tr.Jobs[:n] {
		for _, f := range j.Files {
			seen[f] = true
		}
	}
	for f, s := range seen {
		if !s {
			return trace.FileID(f)
		}
	}
	return -1
}

func marshalJob(t *testing.T, files []trace.FileID) string {
	t.Helper()
	b, err := json.Marshal(JobBody{Files: files})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// residentList renders the resident map deterministically (sorted by unit)
// so both stacks receive the identical request.
func residentList(resident map[cache.UnitID]int64) []cache.ResidentUnit {
	units := make([]cache.UnitID, 0, len(resident))
	for u := range resident {
		units = append(units, u)
	}
	sort.Slice(units, func(a, b int) bool { return units[a] < units[b] })
	out := make([]cache.ResidentUnit, len(units))
	for i, u := range units {
		out[i] = cache.ResidentUnit{Unit: u, LastAccess: resident[u]}
	}
	return out
}

// sameJSON requires a wire reply, marshalled as it is, to equal the HTTP
// surface's 200 response byte for byte: both are encodings of one message
// type, so this compares what the two servers decided, not how.
func sameJSON(t *testing.T, i int, what string, reply any, w *httptest.ResponseRecorder) {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("job %d: HTTP %s: %d %s", i, what, w.Code, w.Body)
	}
	wireJSON, err := json.Marshal(reply)
	if err != nil {
		t.Fatal(err)
	}
	if httpJSON := strings.TrimSpace(w.Body.String()); string(wireJSON) != httpJSON {
		t.Fatalf("job %d: %s diverges:\nwire: %.300s\nhttp: %.300s", i, what, wireJSON, httpJSON)
	}
}

func comparePartitions(t *testing.T, i int, wc *wire.Client, sJSON *Server) {
	t.Helper()
	pr, err := wc.Partition()
	if err != nil {
		t.Fatalf("job %d: wire partition: %v", i, err)
	}
	sameJSON(t, i, "partition", pr, do(sJSON, "GET", "/v1/partition", ""))
}

// compareSummaries is why the mean crosses the wire as exact IEEE-754 bits.
func compareSummaries(t *testing.T, i int, wc *wire.Client, sJSON *Server) {
	t.Helper()
	sr, err := wc.Summary()
	if err != nil {
		t.Fatalf("job %d: wire summary: %v", i, err)
	}
	sameJSON(t, i, "summary", sr, do(sJSON, "GET", "/v1/partition/summary", ""))
}

func compareFilecules(t *testing.T, i int, wc *wire.Client, sJSON *Server, f trace.FileID) {
	t.Helper()
	fr, err := wc.Filecule(f)
	if err != nil {
		t.Fatalf("job %d: wire filecule %d: %v", i, f, err)
	}
	sameJSON(t, i, "filecule", fr, do(sJSON, "GET", fmt.Sprintf("/v1/filecules/%d", f), ""))
}

// compareAdvice requires byte-identical advice from both stacks, then
// applies the plan to the shared simulated residency.
func compareAdvice(t *testing.T, i int, wc *wire.Client, sJSON *Server,
	req cache.AdviceRequest, resident map[cache.UnitID]int64, now int64) {
	t.Helper()
	ar, err := wc.Advise(req)
	if err != nil {
		t.Fatalf("job %d: wire advise: %v", i, err)
	}
	hbody, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	sameJSON(t, i, "advice", ar, do(sJSON, "POST", "/v1/cache/advise", string(hbody)))

	// Evolve the shared residency from the (agreed) plan.
	for _, u := range ar.Hits {
		resident[u] = now
	}
	for _, u := range ar.Evict {
		delete(resident, u)
	}
	for _, lu := range ar.Load {
		resident[lu.Unit] = now
	}
}

// failingJournal refuses every observe, as a durability layer whose WAL
// append failed does.
type failingJournal struct{ err error }

func (j failingJournal) Observe([]trace.FileID) error        { return j.err }
func (j failingJournal) ObserveBatch([][]trace.FileID) error { return j.err }

// TestSurfacesAgreeOnErrors drives each refusal over HTTP and over a wire
// connection to the same Service and requires the same status code — and the
// same message wherever the Service, not a decoder, worded it.
func TestSurfacesAgreeOnErrors(t *testing.T) {
	dial := func(s *Server) *wire.Client {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- s.RunWire(ctx, l) }()
		wc, err := wire.Dial(l.Addr().String(), 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			wc.Close()
			cancel()
			if err := <-done; err != nil {
				t.Errorf("RunWire: %v", err)
			}
		})
		return wc
	}
	catalog := New(Config{Catalog: fuzzCatalog()}) // files 0..15
	catalog.Engine().Observe([]trace.FileID{1, 2})
	bare := New(Config{})
	broken := New(Config{Catalog: fuzzCatalog()})
	broken.svc.Journal = failingJournal{fmt.Errorf("disk full")}

	overLimit := make([][]trace.FileID, wire.MaxBatchJobs+1)
	overLimitJSON := `{"jobs":[` + strings.Repeat(`{"files":[]},`, wire.MaxBatchJobs) + `{"files":[]}]}`
	advise := func(req cache.AdviceRequest) func(*wire.Client) error {
		return func(c *wire.Client) error { _, err := c.Advise(req); return err }
	}
	cases := []struct {
		name               string
		s                  *Server
		method, path, body string
		wire               func(*wire.Client) error
		code               int
		sameMsg            bool // the Service produced the message
	}{
		{"observe out-of-catalog ID", catalog, "POST", "/v1/jobs", `{"files":[16]}`,
			func(c *wire.Client) error { _, err := c.Observe([]trace.FileID{16}); return err }, 400, false},
		{"lookup out-of-catalog ID", catalog, "GET", "/v1/filecules/16", "",
			func(c *wire.Client) error { _, err := c.Filecule(16); return err }, 400, true},
		{"batch over the job limit", catalog, "POST", "/v1/jobs/batch", overLimitJSON,
			func(c *wire.Client) error { _, err := c.Batch(overLimit); return err }, 400, true},
		{"unknown resident unit", catalog, "POST", "/v1/cache/advise",
			`{"capacityBytes":100,"resident":[{"unit":123456789}]}`,
			advise(cache.AdviceRequest{Capacity: 100, Resident: []cache.ResidentUnit{{Unit: 123456789}}}), 400, true},
		{"duplicate resident unit", catalog, "POST", "/v1/cache/advise",
			`{"capacityBytes":100,"resident":[{"unit":0},{"unit":0}]}`,
			advise(cache.AdviceRequest{Capacity: 100, Resident: []cache.ResidentUnit{{Unit: 0}, {Unit: 0}}}), 400, true},
		{"non-positive capacity", catalog, "POST", "/v1/cache/advise", `{"capacityBytes":0,"files":[1]}`,
			advise(cache.AdviceRequest{Files: []trace.FileID{1}}), 400, true},
		{"advise without a catalog", bare, "POST", "/v1/cache/advise", `{"capacityBytes":100,"files":[1]}`,
			advise(cache.AdviceRequest{Capacity: 100, Files: []trace.FileID{1}}), 422, true},
		{"lookup of an unseen file", catalog, "GET", "/v1/filecules/9", "",
			func(c *wire.Client) error { _, err := c.Filecule(9); return err }, 404, true},
		{"WAL failure", broken, "POST", "/v1/jobs", `{"files":[1]}`,
			func(c *wire.Client) error { _, err := c.Observe([]trace.FileID{1}); return err }, 500, true},
		{"WAL failure in a batch", broken, "POST", "/v1/jobs/batch", `{"jobs":[{"files":[1]}]}`,
			func(c *wire.Client) error { _, err := c.Batch([][]trace.FileID{{1}}); return err }, 500, true},
	}
	clients := map[*Server]*wire.Client{}
	for _, c := range cases {
		if clients[c.s] == nil {
			clients[c.s] = dial(c.s)
		}
		w := do(c.s, c.method, c.path, c.body)
		var hb errorBody
		if err := json.Unmarshal(w.Body.Bytes(), &hb); err != nil {
			t.Fatalf("%s: HTTP body %q: %v", c.name, w.Body, err)
		}
		re, ok := c.wire(clients[c.s]).(*wire.RemoteError)
		if !ok {
			t.Fatalf("%s: wire call did not answer a RemoteError", c.name)
		}
		if w.Code != c.code || re.Code != c.code {
			t.Errorf("%s: HTTP %d, wire %d, want %d on both", c.name, w.Code, re.Code, c.code)
		}
		if c.sameMsg && hb.Error != re.Msg {
			t.Errorf("%s: messages differ:\nhttp: %s\nwire: %s", c.name, hb.Error, re.Msg)
		}
	}
	// Nothing refused was applied: catalog holds its one set-up job.
	for s, want := range map[*Server]int64{catalog: 1, bare: 0, broken: 0} {
		if got := s.Engine().Observed(); got != want {
			t.Errorf("a refused request was applied: %d jobs observed, want %d", got, want)
		}
	}
}

// TestWireSelfTestHelper exercises the selftest path end to end: replay over
// the wire via LoadGen, then verify both surfaces agree. Kept in-package so
// cmd/filecule-serve's selftest has a tested building block.
func TestWireLoadGenReplay(t *testing.T) {
	tr, err := synth.Generate(synth.DZero(9, 0.003))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Catalog: tr.Files})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.RunWire(ctx, l) }()
	defer func() { cancel(); <-done }()

	g := &LoadGen{WireAddr: l.Addr().String(), Clients: 4, BatchSize: 8}
	rep, err := g.Replay(tr)
	if err != nil {
		t.Fatalf("wire replay: %v (report: %v)", err, rep)
	}
	if rep.Jobs != len(tr.Jobs) || rep.Errors != 0 {
		t.Fatalf("report = %+v, want %d jobs and 0 errors", rep, len(tr.Jobs))
	}
	if got := s.Engine().Observed(); got != int64(len(tr.Jobs)) {
		t.Errorf("observed = %d, want %d", got, len(tr.Jobs))
	}
	// The replayed state must equal a direct identification of the trace.
	want := core.Identify(tr)
	if got := s.Engine().Snapshot(); !got.Equal(want) {
		t.Errorf("wire-replayed partition differs from direct identification")
	}
}
