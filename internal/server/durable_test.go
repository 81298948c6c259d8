package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"filecule/internal/core"
	"filecule/internal/durable"
	"filecule/internal/synth"
	"filecule/internal/trace"
	"filecule/internal/wire"
)

// durableServer returns a server whose observes flow through the durability
// layer in strict-commit mode, plus the backing trace and engine.
func durableServer(tb testing.TB, dir string) (*Server, *trace.Trace, *durable.Engine) {
	tb.Helper()
	t, err := synth.Generate(synth.DZero(11, 0.003))
	if err != nil {
		tb.Fatal(err)
	}
	d, err := durable.Open(durable.Options{Dir: dir, SyncCommit: true})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { d.Close() })
	return New(Config{Catalog: t.Files, Durable: d}), t, d
}

// TestDurableObserveSurvivesRestart drives observes through the HTTP layer,
// checkpoints through the admin endpoint, and checks a fresh engine opened
// on the same directory serves the identical partition.
func TestDurableObserveSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s, tr, d := durableServer(t, dir)

	half := len(tr.Jobs) / 2
	for _, j := range tr.Jobs[:half] {
		body, err := json.Marshal(JobBody{Files: j.Files})
		if err != nil {
			t.Fatal(err)
		}
		if w := do(s, "POST", "/v1/jobs", string(body)); w.Code != http.StatusOK {
			t.Fatalf("observe: %d %s", w.Code, w.Body)
		}
	}

	w := do(s, "POST", "/v1/admin/checkpoint", "")
	if w.Code != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", w.Code, w.Body)
	}
	var cr CheckpointResult
	if err := json.Unmarshal(w.Body.Bytes(), &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Observed != int64(half) || cr.Epoch == 0 {
		t.Errorf("CheckpointResult = %+v, want observed %d at epoch >= 1", cr, half)
	}

	wantPart := do(s, "GET", "/v1/partition", "").Body.String()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := durable.Open(durable.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.Recovery().Observed; got != int64(half) {
		t.Fatalf("recovered %d jobs, want %d", got, half)
	}
	s2 := New(Config{Catalog: tr.Files, Durable: d2})
	if got := do(s2, "GET", "/v1/partition", "").Body.String(); got != wantPart {
		t.Errorf("recovered partition differs from pre-restart partition (%d vs %d bytes)", len(got), len(wantPart))
	}

	// And it matches batch identification over the observed prefix.
	ref := core.Identify(&trace.Trace{Files: tr.Files, Jobs: tr.Jobs[:half]})
	if !ref.Equal(d2.Core().Snapshot()) {
		t.Error("recovered engine partition differs from core.Identify over observed jobs")
	}
}

// TestDurableKeepsEveryAcknowledgedJob sends, over each surface in
// strict-commit mode, an ordinary job, a job of exactly trace.MaxJobFiles
// files and another ordinary job: a restart recovers all three, as
// core.Identify partitions them. A job one file over the bound is a 400 that
// never reaches the WAL.
func TestDurableKeepsEveryAcknowledgedJob(t *testing.T) {
	jobs := [][]trace.FileID{{5, 6, 7}, make([]trace.FileID, trace.MaxJobFiles), {6, 7}}
	over := make([]trace.FileID, trace.MaxJobFiles+1)
	surfaces := []struct {
		name    string
		observe func(t *testing.T, s *Server) func([]trace.FileID) int
	}{
		{"http", func(t *testing.T, s *Server) func([]trace.FileID) int {
			return func(files []trace.FileID) int {
				body, err := json.Marshal(JobBody{Files: files})
				if err != nil {
					t.Fatal(err)
				}
				return do(s, "POST", "/v1/jobs", string(body)).Code
			}
		}},
		{"wire", func(t *testing.T, s *Server) func([]trace.FileID) int {
			l := listen(t)
			startWireOn(t, s, l)
			c, err := wire.Dial(l.Addr().String(), 10*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return func(files []trace.FileID) int {
				var re *wire.RemoteError
				if _, err := c.Observe(files); errors.As(err, &re) {
					return re.Code
				} else if err != nil {
					t.Fatal(err)
				}
				return http.StatusOK
			}
		}},
	}
	for _, sf := range surfaces {
		t.Run(sf.name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := durable.Open(durable.Options{Dir: dir, SyncCommit: true})
			if err != nil {
				t.Fatal(err)
			}
			observe := sf.observe(t, New(Config{Durable: d}))
			for i, files := range jobs {
				if code := observe(files); code != http.StatusOK {
					t.Fatalf("job %d of %d files: %d, want 200", i, len(files), code)
				}
			}
			if code := observe(over); code != http.StatusBadRequest {
				t.Errorf("job of %d files: %d, want 400", len(over), code)
			}
			if got := d.Stats().WALAppended; got != int64(len(jobs)) {
				t.Errorf("WAL took %d jobs, want %d", got, len(jobs))
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}

			d2, err := durable.Open(durable.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer d2.Close()
			if rec := d2.Recovery(); rec.Observed != int64(len(jobs)) || rec.TruncatedBytes != 0 {
				t.Fatalf("recovered %d jobs with %d bytes truncated, want %d and none", rec.Observed, rec.TruncatedBytes, len(jobs))
			}
			tr := &trace.Trace{Files: make([]trace.File, 8)}
			for _, files := range jobs {
				tr.Jobs = append(tr.Jobs, trace.Job{Files: files})
			}
			if !core.Identify(tr).Equal(d2.Core().Snapshot()) {
				t.Error("recovered partition differs from core.Identify over the acknowledged jobs")
			}
		})
	}
}

// TestDurableBatchObserve checks the batch endpoint routes through the WAL.
func TestDurableBatchObserve(t *testing.T) {
	s, _, d := durableServer(t, t.TempDir())
	body := `{"jobs":[{"files":[1,2,3]},{"files":[2,3]},{"files":[7]}]}`
	if w := do(s, "POST", "/v1/jobs/batch", body); w.Code != http.StatusOK {
		t.Fatalf("batch observe: %d %s", w.Code, w.Body)
	}
	if got := d.Stats().WALSynced; got != 3 {
		t.Errorf("WALSynced = %d, want 3 (strict mode syncs before ack)", got)
	}
	if got := d.Core().Observed(); got != 3 {
		t.Errorf("engine observed %d, want 3", got)
	}
}

// TestDurableMetrics checks the durability gauges appear on /metrics.
func TestDurableMetrics(t *testing.T) {
	s, _, _ := durableServer(t, t.TempDir())
	do(s, "POST", "/v1/jobs", `{"files":[1,2]}`)
	do(s, "POST", "/v1/admin/checkpoint", "")
	ms := do(s, "GET", "/metrics", "").Body.String()
	for _, needle := range []string{
		"filecule_wal_appended_jobs_total 1",
		"filecule_wal_synced_jobs_total 1",
		"filecule_state_epoch 1",
		"filecule_checkpoints_total 1",
	} {
		if !strings.Contains(ms, needle) {
			t.Errorf("metrics missing %q", needle)
		}
	}
}

// TestCheckpointEndpointWithoutDurable checks the admin route is absent when
// the server runs in-memory only.
func TestCheckpointEndpointWithoutDurable(t *testing.T) {
	s, _ := testServer(t)
	if w := do(s, "POST", "/v1/admin/checkpoint", ""); w.Code == http.StatusOK {
		t.Errorf("checkpoint endpoint answered %d on an in-memory server", w.Code)
	}
}
