package server

import (
	"os"
	"path/filepath"
	"testing"

	"filecule/internal/trace"
)

// TestHTTPGolden pins the JSON surface byte for byte: the contract with
// clients is field names and shapes, not the Go types that produce them. The
// files under testdata/ were recorded from the commit before the two serving
// surfaces were put on shared message types; a diff here is an API change.
func TestHTTPGolden(t *testing.T) {
	sizes := []int64{100, 200, 300, 400, 500, 600, 700, 800, 1500, 6000, 50, 60}
	catalog := make([]trace.File, len(sizes))
	for i, sz := range sizes {
		catalog[i] = trace.File{ID: trace.FileID(i), Size: sz}
	}
	s := New(Config{Catalog: catalog})
	// Six jobs leave the filecules {0,1} {2} {3,4} {5,6} {7} {8,9}, numbered
	// in that order; files 10 and 11 stay unseen.
	steps := []struct {
		golden, method, path, body string
		code                       int
	}{
		{"observe", "POST", "/v1/jobs", `{"files":[0,1,2]}`, 200},
		{"", "POST", "/v1/jobs", `{"files":[0,1]}`, 200},
		{"", "POST", "/v1/jobs", `{"files":[3,4,5,6]}`, 200},
		{"batch", "POST", "/v1/jobs/batch", `{"jobs":[{"files":[7]},{"files":[3,4]},{"files":[8,9]}]}`, 200},
		{"filecule", "GET", "/v1/filecules/4", "", 200},
		{"partition", "GET", "/v1/partition", "", 200},
		{"summary", "GET", "/v1/partition/summary", "", 200},
		// Capacity 3000 holding {0,1}, {5,6} and {7} (2400 bytes): file 0 hits,
		// {3,4} loads, {8,9} at 7500 bytes is bypassed for file 8 alone, and
		// the 2400 bytes to load evict {7} then {5,6}.
		{"advise", "POST", "/v1/cache/advise", `{"capacityBytes":3000,"files":[0,3,8],` +
			`"resident":[{"unit":0,"lastAccess":9},{"unit":3,"lastAccess":5},{"unit":4,"lastAccess":1}]}`, 200},
		{"error", "GET", "/v1/filecules/10", "", 404},
	}
	for _, st := range steps {
		w := do(s, st.method, st.path, st.body)
		if w.Code != st.code {
			t.Fatalf("%s %s: %d, want %d (%s)", st.method, st.path, w.Code, st.code, w.Body)
		}
		if st.golden == "" {
			continue
		}
		want, err := os.ReadFile(filepath.Join("testdata", st.golden+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if got := w.Body.String(); got != string(want) {
			t.Errorf("%s %s:\n got %s\nwant %s", st.method, st.path, got, want)
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type %q", st.method, st.path, ct)
		}
	}
}
