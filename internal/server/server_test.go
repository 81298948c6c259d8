package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"filecule/internal/cache"
	"filecule/internal/core"
	"filecule/internal/synth"
	"filecule/internal/trace"
	"filecule/internal/wire"
)

// testServer returns a server backed by a small synthetic trace's catalog,
// plus the trace itself.
func testServer(tb testing.TB) (*Server, *trace.Trace) {
	tb.Helper()
	t, err := synth.Generate(synth.DZero(11, 0.003))
	if err != nil {
		tb.Fatal(err)
	}
	return New(Config{Catalog: t.Files}), t
}

// do runs one request through the handler and returns the recorder.
func do(s *Server, method, path, body string) *httptest.ResponseRecorder {
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, path, nil)
	} else {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	return w
}

// newOverCatalog builds an n-file catalog with 32-byte names and a Server
// over it, and returns only the Server.
//
//go:noinline
func newOverCatalog(n int) *Server {
	files := make([]trace.File, n)
	for i := range files {
		files[i] = trace.File{ID: trace.FileID(i), Name: fmt.Sprintf("%032d", i), Size: int64(i + 1)}
	}
	return New(Config{Catalog: files})
}

// TestServerKeepsSizesNotCatalog: once the caller lets go of its catalog, a
// Server holds the file sizes (8 bytes a file) and nothing else of it — not
// the File records, not the names.
func TestServerKeepsSizesNotCatalog(t *testing.T) {
	const n = 200_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := newOverCatalog(n)
	runtime.GC()
	runtime.ReadMemStats(&after)
	perFile := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	if perFile > 10 {
		t.Errorf("a Server retains %.1f bytes per catalog file, want <= 10", perFile)
	}
	if got := s.svc.MaxID(); got != n {
		t.Errorf("MaxID = %d, want %d", got, n)
	}
	runtime.KeepAlive(s)
}

func TestObserveThenQuery(t *testing.T) {
	s, _ := testServer(t)
	w := do(s, "POST", "/v1/jobs", `{"files":[1,2,3]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("observe: %d %s", w.Code, w.Body)
	}
	var res wire.ObserveReply
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Observed != 1 || res.Filecules != 1 {
		t.Errorf("observe reply = %+v, want 1 job 1 filecule", res)
	}

	// Splitting job: {1,2} stays together, 3 departs.
	do(s, "POST", "/v1/jobs", `{"files":[1,2]}`)

	w = do(s, "GET", "/v1/filecules/1", "")
	if w.Code != http.StatusOK {
		t.Fatalf("filecule: %d %s", w.Code, w.Body)
	}
	var fc wire.FileculeLookupReply
	if err := json.Unmarshal(w.Body.Bytes(), &fc); err != nil {
		t.Fatal(err)
	}
	if len(fc.Files) != 2 || fc.Files[0] != 1 || fc.Files[1] != 2 || fc.Requests != 2 {
		t.Errorf("filecule of 1 = %+v, want files [1 2] requests 2", fc)
	}
	if fc.Bytes == 0 {
		t.Errorf("filecule bytes not populated from catalog")
	}

	w = do(s, "GET", "/v1/filecules/3", "")
	var fc3 wire.FileculeLookupReply
	if err := json.Unmarshal(w.Body.Bytes(), &fc3); err != nil {
		t.Fatal(err)
	}
	if len(fc3.Files) != 1 || fc3.Requests != 1 {
		t.Errorf("filecule of 3 = %+v, want singleton with 1 request", fc3)
	}
}

func TestBatchObserveMatchesSequential(t *testing.T) {
	s, tr := testServer(t)
	s2 := New(Config{Catalog: tr.Files})

	// Feed the same jobs batched and unbatched; partitions must agree.
	n := 200
	if n > len(tr.Jobs) {
		n = len(tr.Jobs)
	}
	var batch BatchBody
	for i := 0; i < n; i++ {
		body, _ := json.Marshal(JobBody{Files: tr.Jobs[i].Files})
		if w := do(s, "POST", "/v1/jobs", string(body)); w.Code != http.StatusOK {
			t.Fatalf("observe %d: %d %s", i, w.Code, w.Body)
		}
		batch.Jobs = append(batch.Jobs, JobBody{Files: tr.Jobs[i].Files})
	}
	bb, _ := json.Marshal(batch)
	if w := do(s2, "POST", "/v1/jobs/batch", string(bb)); w.Code != http.StatusOK {
		t.Fatalf("batch observe: %d %s", w.Code, w.Body)
	}

	if !s.Engine().Snapshot().Equal(s2.Engine().Snapshot()) {
		t.Error("batched and unbatched ingestion disagree")
	}
	p1 := do(s, "GET", "/v1/partition", "").Body.String()
	p2 := do(s2, "GET", "/v1/partition", "").Body.String()
	if p1 != p2 {
		t.Error("partition JSON differs between batched and unbatched ingestion")
	}
}

func TestPartitionMatchesBatchIdentify(t *testing.T) {
	s, tr := testServer(t)
	var batch BatchBody
	for i := range tr.Jobs {
		batch.Jobs = append(batch.Jobs, JobBody{Files: tr.Jobs[i].Files})
	}
	bb, _ := json.Marshal(batch)
	if w := do(s, "POST", "/v1/jobs/batch", string(bb)); w.Code != http.StatusOK {
		t.Fatalf("batch observe: %d %s", w.Code, w.Body)
	}

	want, err := PartitionJSON(core.Identify(tr), int64(len(tr.Jobs)), &trace.Trace{Files: tr.Files})
	if err != nil {
		t.Fatal(err)
	}
	got := strings.TrimSpace(do(s, "GET", "/v1/partition", "").Body.String())
	if got != string(want) {
		t.Errorf("served partition differs from core.Identify (%d vs %d bytes)", len(got), len(want))
	}
}

func TestSummary(t *testing.T) {
	s, _ := testServer(t)
	do(s, "POST", "/v1/jobs", `{"files":[0,1]}`)
	do(s, "POST", "/v1/jobs", `{"files":[2]}`)
	w := do(s, "GET", "/v1/partition/summary", "")
	if w.Code != http.StatusOK {
		t.Fatalf("summary: %d %s", w.Code, w.Body)
	}
	var sum wire.SummaryReply
	if err := json.Unmarshal(w.Body.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Observed != 2 || sum.Filecules != 2 || sum.Files != 3 || sum.Monatomic != 1 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.LargestFiles != 2 || sum.MeanFilesPerGroup != 1.5 {
		t.Errorf("summary shape = %+v", sum)
	}
	if sum.CoveredBytes == 0 {
		t.Errorf("summary bytes not populated")
	}
}

func TestAdviseEndpoint(t *testing.T) {
	s, _ := testServer(t)
	do(s, "POST", "/v1/jobs", `{"files":[0,1]}`)

	w := do(s, "POST", "/v1/cache/advise", `{"capacityBytes":1099511627776,"files":[0]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("advise: %d %s", w.Code, w.Body)
	}
	var adv cache.Advice
	if err := json.Unmarshal(w.Body.Bytes(), &adv); err != nil {
		t.Fatal(err)
	}
	if len(adv.Load) != 1 || len(adv.Load[0].Files) != 2 {
		t.Errorf("advise = %+v, want one 2-file filecule load", adv)
	}
	if adv.BytesToLoad == 0 {
		t.Errorf("advise bytes = %+v", adv)
	}

	// Second call with the advised unit resident: pure hit.
	body := fmt.Sprintf(`{"capacityBytes":1099511627776,"files":[0],"resident":[{"unit":%d,"lastAccess":1}]}`,
		adv.Load[0].Unit)
	w = do(s, "POST", "/v1/cache/advise", body)
	var adv2 cache.Advice
	if err := json.Unmarshal(w.Body.Bytes(), &adv2); err != nil {
		t.Fatal(err)
	}
	if len(adv2.Hits) != 1 || len(adv2.Load) != 0 {
		t.Errorf("resident advise = %+v, want one hit", adv2)
	}
}

func TestAdviseWithoutCatalog(t *testing.T) {
	s := New(Config{})
	do(s, "POST", "/v1/jobs", `{"files":[0,1]}`)
	w := do(s, "POST", "/v1/cache/advise", `{"capacityBytes":100,"files":[0]}`)
	if w.Code != http.StatusUnprocessableEntity {
		t.Errorf("advise without catalog: %d, want 422", w.Code)
	}
}

func TestClientErrors(t *testing.T) {
	s, tr := testServer(t)
	cases := []struct {
		name, method, path, body string
		want                     int
	}{
		{"bad json", "POST", "/v1/jobs", `{"files":`, http.StatusBadRequest},
		{"wrong type", "POST", "/v1/jobs", `{"files":"nope"}`, http.StatusBadRequest},
		{"unknown field", "POST", "/v1/jobs", `{"fils":[1]}`, http.StatusBadRequest},
		{"trailing data", "POST", "/v1/jobs", `{"files":[1]}{"files":[2]}`, http.StatusBadRequest},
		{"trailing bracket", "POST", "/v1/jobs", `{"files":[1]}]`, http.StatusBadRequest},
		{"trailing braces", "POST", "/v1/jobs", `{"files":[1]}}}garbage`, http.StatusBadRequest},
		{"batch trailing bracket", "POST", "/v1/jobs/batch", `{"jobs":[{"files":[1]}]}]`, http.StatusBadRequest},
		{"negative file", "POST", "/v1/jobs", `{"files":[-1]}`, http.StatusBadRequest},
		{"file beyond catalog", "POST", "/v1/jobs",
			fmt.Sprintf(`{"files":[%d]}`, len(tr.Files)), http.StatusBadRequest},
		{"bad batch", "POST", "/v1/jobs/batch", `{"jobs":[{"files":[-2]}]}`, http.StatusBadRequest},
		{"bad filecule id", "GET", "/v1/filecules/xyz", "", http.StatusBadRequest},
		{"huge filecule id", "GET", "/v1/filecules/99999999999999999999", "", http.StatusBadRequest},
		{"unobserved file", "GET", "/v1/filecules/0", "", http.StatusNotFound},
		{"advise bad capacity", "POST", "/v1/cache/advise", `{"capacityBytes":0,"files":[1]}`, http.StatusBadRequest},
		{"advise unknown unit", "POST", "/v1/cache/advise",
			`{"capacityBytes":100,"resident":[{"unit":123456789}]}`, http.StatusBadRequest},
		{"unknown route", "GET", "/v1/nope", "", http.StatusNotFound},
		{"wrong method", "GET", "/v1/jobs", "", http.StatusMethodNotAllowed},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := do(s, c.method, c.path, c.body)
			if w.Code != c.want {
				t.Errorf("%s %s: %d, want %d (body %s)", c.method, c.path, w.Code, c.want, w.Body)
			}
		})
	}
}

func TestBatchLimit(t *testing.T) {
	s := New(Config{})
	over := `{"jobs":[` + strings.Repeat(`{"files":[1]},`, wire.MaxBatchJobs) + `{"files":[2]}]}`
	w := do(s, "POST", "/v1/jobs/batch", over)
	if w.Code != http.StatusBadRequest || s.Engine().Observed() != 0 {
		t.Errorf("oversized batch: %d with %d jobs observed, want 400 and none", w.Code, s.Engine().Observed())
	}
}

func TestBodyLimit(t *testing.T) {
	s := New(Config{})
	s.lim.bodyBytes = 64
	big := `{"files":[` + strings.Repeat("1,", 1000) + `1]}`
	w := do(s, "POST", "/v1/jobs", big)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: %d, want 413", w.Code)
	}
}

// TestConcurrentObserveAndQuery hammers the handler from many goroutines —
// meaningful under -race — and checks the final partition against batch
// identification.
func TestConcurrentObserveAndQuery(t *testing.T) {
	s, tr := testServer(t)
	n := 400
	if n > len(tr.Jobs) {
		n = len(tr.Jobs)
	}
	workers := 8
	var next int64
	var mu sync.Mutex
	next = 0
	claim := func() int {
		mu.Lock()
		defer mu.Unlock()
		if next >= int64(n) {
			return -1
		}
		i := int(next)
		next++
		return i
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := claim()
				if i < 0 {
					return
				}
				body, _ := json.Marshal(JobBody{Files: tr.Jobs[i].Files})
				if w := do(s, "POST", "/v1/jobs", string(body)); w.Code != http.StatusOK {
					t.Errorf("observe: %d %s", w.Code, w.Body)
					return
				}
				// Interleave reads with writes.
				if i%7 == 0 {
					do(s, "GET", "/v1/partition/summary", "")
				}
				if i%11 == 0 {
					do(s, "GET", "/metrics", "")
				}
			}
		}()
	}
	wg.Wait()

	want := core.Identify(tr.WithJobs(jobIDs(n)))
	if !s.Engine().Snapshot().Equal(want) {
		t.Error("concurrent ingestion diverged from batch identification")
	}
}

func jobIDs(n int) []trace.JobID {
	ids := make([]trace.JobID, n)
	for i := range ids {
		ids[i] = trace.JobID(i)
	}
	return ids
}

func TestHealthz(t *testing.T) {
	s, _ := testServer(t)
	if w := do(s, "GET", "/healthz", ""); w.Code != http.StatusOK {
		t.Errorf("healthz: %d", w.Code)
	}
}

func TestPprofMounted(t *testing.T) {
	s := New(Config{EnablePprof: true})
	if w := do(s, "GET", "/debug/pprof/cmdline", ""); w.Code != http.StatusOK {
		t.Errorf("pprof cmdline: %d", w.Code)
	}
	off := New(Config{})
	if w := do(off, "GET", "/debug/pprof/cmdline", ""); w.Code == http.StatusOK {
		t.Errorf("pprof served while disabled")
	}
}

// TestEngineCacheMetrics: /metrics says whether the repeat-job fast path is
// hitting. {5,6} is cached by its first observe; the two repeats are hits.
func TestEngineCacheMetrics(t *testing.T) {
	s, _ := testServer(t)
	for _, body := range []string{`{"files":[5,6,7]}`, `{"files":[5,6]}`, `{"files":[5,6]}`, `{"files":[5,6]}`, `{"files":[]}`} {
		if w := do(s, "POST", "/v1/jobs", body); w.Code != http.StatusOK {
			t.Fatalf("observe %s: %d %s", body, w.Code, w.Body)
		}
	}
	ms := do(s, "GET", "/metrics", "").Body.String()
	for _, needle := range []string{
		"filecule_jobs_observed_total 5\n",
		"filecule_engine_fastpath_hits_total 2\n",
		"filecule_engine_jobcache_entries 2\n",
		"filecule_engine_jobcache_sweeps_total 0\n",
	} {
		if !strings.Contains(ms, needle) {
			t.Errorf("metrics missing %q", needle)
		}
	}
}

// TestSnapshotMetricsAndMembershipReads: /metrics tells an operator whether
// reads after observes hit the split-free path, and the reads that need
// membership alone (advise, summary) or one count (filecule lookup) assemble
// no partition at all once one of the current membership exists.
func TestSnapshotMetricsAndMembershipReads(t *testing.T) {
	s, _ := testServer(t)
	observe := func(body string) {
		t.Helper()
		if w := do(s, "POST", "/v1/jobs", body); w.Code != http.StatusOK {
			t.Fatalf("observe %s: %d %s", body, w.Code, w.Body)
		}
	}
	get := func(path string) string {
		t.Helper()
		w := do(s, "GET", path, "")
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, w.Code, w.Body)
		}
		return w.Body.String()
	}
	observe(`{"files":[5,6,7]}`)
	observe(`{"files":[5,6]}`)
	get("/v1/partition") // rebuilt: the first snapshot
	observe(`{"files":[5,6]}`)
	get("/v1/partition") // shared: counts moved, membership did not

	before := s.Engine().SnapshotStats()
	if before.Shared != 1 || before.Rebuilt != 1 {
		t.Fatalf("after one snapshot per kind: %+v", before)
	}
	for i := 0; i < 3; i++ {
		observe(`{"files":[5,6]}`)
		if w := do(s, "POST", "/v1/cache/advise", `{"capacityBytes":1000000000000,"files":[5,7]}`); w.Code != http.StatusOK {
			t.Fatalf("advise: %d %s", w.Code, w.Body)
		}
		get("/v1/partition/summary")
		if got, want := get("/v1/filecules/5"), fmt.Sprintf(`"requests":%d`, 4+i); !strings.Contains(got, want) {
			t.Errorf("filecule of 5 after %d re-requests = %s, want %s", i+1, got, want)
		}
	}
	ms := get("/metrics")
	if after := s.Engine().SnapshotStats(); after != before {
		t.Errorf("advise, summary, lookup and a scrape after re-requests assembled partitions: %+v -> %+v", before, after)
	}
	for _, needle := range []string{
		"filecule_engine_snapshots_total{kind=\"shared\"} 1\n",
		"filecule_engine_snapshots_total{kind=\"rebuilt\"} 1\n",
		"filecule_partition_filecules 2\n",
	} {
		if !strings.Contains(ms, needle) {
			t.Errorf("metrics missing %q", needle)
		}
	}

	observe(`{"files":[6]}`) // a split: membership moves, everything reads it
	if got := get("/v1/filecules/5"); !strings.Contains(got, `"files":[5]`) {
		t.Errorf("filecule of 5 after the split = %s", got)
	}
	if after := s.Engine().SnapshotStats(); after.Rebuilt != before.Rebuilt+1 {
		t.Errorf("a lookup after a split did not rebuild: %+v -> %+v", before, after)
	}
}

// TestSharedShapeSnapshotsAreIsolated: partitions handed out earlier stay
// byte-identical while re-request observes keep producing shared-shape
// snapshots that other goroutines read through everything the shape shares —
// the file index, the size table, the summary. Meaningful under -race.
func TestSharedShapeSnapshotsAreIsolated(t *testing.T) {
	s, tr := testServer(t)
	n := min(300, len(tr.Jobs))
	for i := 0; i < n; i++ {
		s.Engine().Observe(tr.Jobs[i].Files)
	}
	cat := &trace.Trace{Files: tr.Files}
	type held struct {
		p    *core.Partition
		json []byte
	}
	hold := func() held {
		p := s.Engine().Snapshot()
		buf, err := PartitionJSON(p, 0, cat)
		if err != nil {
			t.Fatal(err)
		}
		return held{p, buf}
	}
	first := hold()

	const writers, readers, rounds = 2, 3, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s.Engine().Observe(tr.Jobs[(w+writers*i)%n].Files) // a re-request: counts only
			}
		}(w)
	}
	kept := make([][]held, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				h := hold()
				f := tr.Jobs[(r+i)%n].Files
				if len(f) > 0 {
					id := h.p.Of(f[0])
					if id < 0 || h.p.SizeTable(cat)[id] <= 0 {
						t.Errorf("file %d: filecule %d in a shared-shape snapshot", f[0], id)
						return
					}
				}
				if sum := h.p.Summary(cat); sum.Filecules != first.p.NumFilecules() || sum.Files != first.p.NumFiles() {
					t.Errorf("summary %+v disagrees with the membership held before", sum)
					return
				}
				if i%20 == 0 {
					kept[r] = append(kept[r], h)
				}
			}
		}(r)
	}
	wg.Wait()

	if st := s.Engine().SnapshotStats(); st.Shared == 0 || st.Rebuilt != 1 {
		t.Errorf("re-requests took the wrong snapshot path: %+v", st)
	}
	for _, h := range append([]held{first}, slices.Concat(kept...)...) {
		buf, err := PartitionJSON(h.p, 0, cat)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, h.json) {
			t.Fatal("a partition changed after it was handed out")
		}
	}
	want := &trace.Trace{Files: tr.Files}
	for i := 0; i < n; i++ {
		want.Jobs = append(want.Jobs, tr.Jobs[i])
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < rounds; i++ {
			want.Jobs = append(want.Jobs, tr.Jobs[(w+writers*i)%n])
		}
	}
	for i := range want.Jobs {
		want.Jobs[i].ID = trace.JobID(i)
	}
	if !s.Engine().Snapshot().Equal(core.Identify(want)) {
		t.Error("final snapshot differs from batch identification of everything observed")
	}
}
