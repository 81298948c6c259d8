package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"filecule/internal/cache"
	"filecule/internal/trace"
)

// fuzzCatalog is a small fixed catalog so advise and observe validation
// paths both run.
func fuzzCatalog() []trace.File {
	files := make([]trace.File, 16)
	for i := range files {
		files[i] = trace.File{ID: trace.FileID(i), Name: "f", Size: int64(i+1) << 20}
	}
	return files
}

// FuzzServerHandlers throws arbitrary bodies and paths at every mutating
// and parameterized endpoint. The contract under fuzz: handlers never
// panic and never answer 5xx — malformed input is always a 4xx, valid
// input a 2xx.
func FuzzServerHandlers(f *testing.F) {
	f.Add(uint8(0), `{"files":[1,2,3]}`)
	f.Add(uint8(1), `{"jobs":[{"files":[1]},{"files":[2,3]}]}`)
	f.Add(uint8(2), `{"capacityBytes":1048576,"files":[1],"resident":[{"unit":0,"lastAccess":3}]}`)
	f.Add(uint8(3), `7`)
	f.Add(uint8(0), `{"files":`)
	f.Add(uint8(0), `{"files":[999999999999]}`)
	f.Add(uint8(1), `{"jobs":[{"files":[-5]}]}`)
	f.Add(uint8(2), `{"capacityBytes":-1}`)
	f.Add(uint8(2), `{"capacityBytes":100,"resident":[{"unit":0},{"unit":0}]}`)
	f.Add(uint8(3), `-1`)
	f.Add(uint8(3), `99999999999999999999`)
	f.Add(uint8(0), strings.Repeat(`[`, 10000))
	f.Add(uint8(0), `{"files":[1]}]`)
	f.Add(uint8(0), `{"files":[1]}}}garbage`)
	f.Add(uint8(1), `{"jobs":[{"files":[1]}]}]`)

	f.Fuzz(func(t *testing.T, which uint8, body string) {
		s := New(Config{Catalog: fuzzCatalog()})
		s.lim.bodyBytes = 1 << 20
		// Give the partition some state so query paths have content.
		s.Engine().Observe([]trace.FileID{1, 2})
		s.Engine().Observe([]trace.FileID{2, 3})

		var r *http.Request
		switch which % 4 {
		case 0:
			r = httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body))
		case 1:
			r = httptest.NewRequest("POST", "/v1/jobs/batch", strings.NewReader(body))
		case 2:
			r = httptest.NewRequest("POST", "/v1/cache/advise", strings.NewReader(body))
		case 3:
			// The body fuzzes the path parameter. NewRequest panics on
			// unescapable targets, so sanitize into a path segment.
			seg := sanitizePathSegment(body)
			r = httptest.NewRequest("GET", "/v1/filecules/"+seg, nil)
		}
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		if w.Code >= 500 {
			t.Fatalf("handler answered %d for %q body %q: %s", w.Code, r.URL, body, w.Body)
		}

		// Read-only endpoints must stay healthy regardless of what the
		// mutating ones ingested.
		for _, path := range []string{"/v1/partition", "/v1/partition/summary", "/metrics", "/healthz"} {
			wr := httptest.NewRecorder()
			s.Handler().ServeHTTP(wr, httptest.NewRequest("GET", path, nil))
			if wr.Code != http.StatusOK {
				t.Fatalf("GET %s: %d after fuzz input", path, wr.Code)
			}
		}
	})
}

// sanitizePathSegment keeps the fuzzed string printable and slash-free so
// it forms one path segment (the request constructor itself rejects raw
// control bytes; the server must still handle whatever gets through).
func sanitizePathSegment(s string) string {
	if len(s) > 64 {
		s = s[:64]
	}
	var b strings.Builder
	for _, c := range s {
		if c > 0x20 && c < 0x7f && c != '/' && c != '?' && c != '#' && c != '%' {
			b.WriteRune(c)
		}
	}
	if b.Len() == 0 {
		return "0"
	}
	return b.String()
}

// FuzzAdviseConsistency cross-checks the advise endpoint's arithmetic on
// randomized inputs: the reported byte total must equal the sum of the
// plan's parts, and no advised unit may exceed the declared capacity.
func FuzzAdviseConsistency(f *testing.F) {
	f.Add(int64(1<<20), uint8(3), uint8(1))
	f.Add(int64(100), uint8(7), uint8(0))
	f.Add(int64(1<<40), uint8(15), uint8(4))
	f.Fuzz(func(t *testing.T, capacity int64, fileMask, nResident uint8) {
		if capacity <= 0 {
			capacity = 1
		}
		s := New(Config{Catalog: fuzzCatalog()})
		s.Engine().Observe([]trace.FileID{1, 2})
		s.Engine().Observe([]trace.FileID{3, 4, 5})
		numFilecules := s.Engine().Snapshot().NumFilecules()

		var files []trace.FileID
		for i := 0; i < 8; i++ {
			if fileMask&(1<<i) != 0 {
				files = append(files, trace.FileID(i))
			}
		}
		body := cache.AdviceRequest{Capacity: capacity, Files: files}
		for i := 0; i < int(nResident)%4 && i < numFilecules; i++ {
			body.Resident = append(body.Resident, cache.ResidentUnit{
				Unit: cache.UnitID(i), LastAccess: int64(i),
			})
		}
		bb, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		w := do(s, "POST", "/v1/cache/advise", string(bb))
		if w.Code >= 500 {
			t.Fatalf("5xx: %s", w.Body)
		}
		if w.Code != http.StatusOK {
			return
		}
		var adv cache.Advice
		if err := json.Unmarshal(w.Body.Bytes(), &adv); err != nil {
			t.Fatal(err)
		}
		var load int64
		for _, lu := range adv.Load {
			load += lu.Bytes
			if lu.Bytes > capacity {
				t.Fatalf("advised loading unit %d of %d bytes into %d capacity", lu.Unit, lu.Bytes, capacity)
			}
		}
		if load != adv.BytesToLoad {
			t.Fatalf("BytesToLoad %d != sum %d", adv.BytesToLoad, load)
		}
	})
}
