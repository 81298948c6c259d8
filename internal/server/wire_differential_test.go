package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
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
		w := do(sJSON, "POST", "/v1/jobs", marshalJob(t, files))
		if w.Code != http.StatusOK {
			t.Fatalf("job %d: HTTP observe: %d %s", i, w.Code, w.Body)
		}
		var jr ObserveResult
		if err := json.Unmarshal(w.Body.Bytes(), &jr); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if wr.Observed != jr.Observed || wr.Filecules != jr.Filecules {
			t.Fatalf("job %d: wire ack (%d jobs, %d filecules) != JSON ack (%d jobs, %d filecules)",
				i, wr.Observed, wr.Filecules, jr.Observed, jr.Filecules)
		}

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

// comparePartitions requires the wire partition reply, re-encoded in the
// HTTP surface's canonical JSON, to be byte-identical to GET /v1/partition.
func comparePartitions(t *testing.T, i int, wc *wire.Client, sJSON *Server) {
	t.Helper()
	pr, err := wc.Partition()
	if err != nil {
		t.Fatalf("job %d: wire partition: %v", i, err)
	}
	body := PartitionBody{Observed: pr.Observed, Filecules: make([]FileculeBody, 0, len(pr.Filecules))}
	for id, fc := range pr.Filecules {
		body.Filecules = append(body.Filecules, FileculeBody{
			ID: id, Files: fc.Files, Requests: fc.Requests, Bytes: fc.Bytes,
		})
	}
	wireJSON, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	w := do(sJSON, "GET", "/v1/partition", "")
	if w.Code != http.StatusOK {
		t.Fatalf("job %d: GET /v1/partition: %d", i, w.Code)
	}
	httpJSON := strings.TrimSpace(w.Body.String())
	if string(wireJSON) != httpJSON {
		t.Fatalf("job %d: partitions diverge:\nwire: %.200s\nhttp: %.200s", i, wireJSON, httpJSON)
	}
}

// compareSummaries requires the wire summary reply, re-encoded in the HTTP
// surface's JSON, to be byte-identical to GET /v1/partition/summary — which
// is why the mean crosses the wire as exact IEEE-754 bits.
func compareSummaries(t *testing.T, i int, wc *wire.Client, sJSON *Server) {
	t.Helper()
	sr, err := wc.Summary()
	if err != nil {
		t.Fatalf("job %d: wire summary: %v", i, err)
	}
	wireJSON, err := json.Marshal(SummaryBody{
		Observed:          sr.Observed,
		Filecules:         sr.Filecules,
		Files:             sr.Files,
		Monatomic:         sr.Monatomic,
		MeanFilesPerGroup: sr.MeanFilesPerGroup,
		LargestFiles:      sr.LargestFiles,
		CoveredBytes:      sr.CoveredBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := do(sJSON, "GET", "/v1/partition/summary", "")
	if w.Code != http.StatusOK {
		t.Fatalf("job %d: GET /v1/partition/summary: %d", i, w.Code)
	}
	if httpJSON := strings.TrimSpace(w.Body.String()); string(wireJSON) != httpJSON {
		t.Fatalf("job %d: summaries diverge:\nwire: %s\nhttp: %s", i, wireJSON, httpJSON)
	}
}

// compareFilecules requires the wire per-file lookup, re-encoded as the
// HTTP surface's FileculeBody, to match GET /v1/filecules/{file} byte for
// byte.
func compareFilecules(t *testing.T, i int, wc *wire.Client, sJSON *Server, f trace.FileID) {
	t.Helper()
	fr, err := wc.Filecule(f)
	if err != nil {
		t.Fatalf("job %d: wire filecule %d: %v", i, f, err)
	}
	wireJSON, err := json.Marshal(FileculeBody{
		ID: fr.ID, Files: fr.Files, Requests: fr.Requests, Bytes: fr.Bytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := do(sJSON, "GET", fmt.Sprintf("/v1/filecules/%d", f), "")
	if w.Code != http.StatusOK {
		t.Fatalf("job %d: GET /v1/filecules/%d: %d %s", i, f, w.Code, w.Body)
	}
	if httpJSON := strings.TrimSpace(w.Body.String()); string(wireJSON) != httpJSON {
		t.Fatalf("job %d: filecule %d diverges:\nwire: %s\nhttp: %s", i, f, wireJSON, httpJSON)
	}
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
	wireRes := AdviceResult{
		Hits:         ar.Hits,
		Evict:        ar.Evict,
		Bypassed:     ar.Bypassed,
		BytesToLoad:  ar.BytesToLoad,
		BytesToEvict: ar.BytesToEvict,
	}
	for _, lu := range ar.Load {
		wireRes.Load = append(wireRes.Load, LoadBody{Unit: lu.Unit, Files: lu.Files, Bytes: lu.Bytes})
	}
	wireJSON, err := json.Marshal(wireRes)
	if err != nil {
		t.Fatal(err)
	}

	hreq := AdviseBody{CapacityBytes: req.Capacity, Files: req.Files}
	for _, r := range req.Resident {
		hreq.Resident = append(hreq.Resident, ResidentBody{Unit: r.Unit, LastAccess: r.LastAccess})
	}
	hbody, err := json.Marshal(hreq)
	if err != nil {
		t.Fatal(err)
	}
	w := do(sJSON, "POST", "/v1/cache/advise", string(hbody))
	if w.Code != http.StatusOK {
		t.Fatalf("job %d: POST /v1/cache/advise: %d %s", i, w.Code, w.Body)
	}
	httpJSON := strings.TrimSpace(w.Body.String())
	if string(wireJSON) != httpJSON {
		t.Fatalf("job %d: advice diverges:\nwire: %s\nhttp: %s", i, wireJSON, httpJSON)
	}

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
