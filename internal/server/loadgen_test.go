package server

import (
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"filecule/internal/core"
	"filecule/internal/synth"
	"filecule/internal/trace"
)

// TestLoadGenReplay is the in-repo miniature of `filecule-serve -selftest`:
// boot the server on a loopback port, replay a synthetic trace from
// concurrent clients, and require a partition byte-identical to batch
// identification plus live metrics. Run under -race this also exercises the
// full network path concurrently.
func TestLoadGenReplay(t *testing.T) {
	tr, err := synth.Generate(synth.DZero(5, 0.003))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Catalog: tr.Files, ShutdownGrace: 5 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- s.ListenAndRun(ctx, "127.0.0.1:0", ready) }()
	addr := <-ready

	gen := &LoadGen{BaseURL: "http://" + addr.String(), Clients: 4, BatchSize: 3}
	rep, err := gen.Replay(tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Jobs != len(tr.Jobs) {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Latency.N == 0 || rep.JobsPerSec() <= 0 {
		t.Errorf("report lacks latency/throughput: %+v", rep)
	}
	if !strings.Contains(rep.String(), "jobs/s") {
		t.Errorf("report string = %q", rep.String())
	}

	want, err := PartitionJSON(core.Identify(tr), int64(len(tr.Jobs)), &trace.Trace{Files: tr.Files})
	if err != nil {
		t.Fatal(err)
	}
	got := strings.TrimSpace(do(s, "GET", "/v1/partition", "").Body.String())
	if got != string(want) {
		t.Error("served partition differs from batch identification after concurrent replay")
	}

	// Every claim of 3 jobs is one batch request; the last may be short.
	batches := (len(tr.Jobs) + 2) / 3
	needle := fmt.Sprintf(`filecule_server_request_seconds_count{route="observe_batch"} %d`, batches)
	if m := do(s, "GET", "/metrics", "").Body.String(); !strings.Contains(m, needle) {
		t.Errorf("metrics lack %q", needle)
	}

	// Graceful shutdown must drain and return nil.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown did not complete")
	}
}

func TestLoadGenReportsServerErrors(t *testing.T) {
	tr, err := synth.Generate(synth.DZero(5, 0.003))
	if err != nil {
		t.Fatal(err)
	}
	// A server with an empty catalog except one file rejects most jobs.
	s := New(Config{Catalog: tr.Files[:1]})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan net.Addr, 1)
	go func() { _ = s.ListenAndRun(ctx, "127.0.0.1:0", ready) }()
	addr := <-ready

	gen := &LoadGen{BaseURL: "http://" + addr.String(), Clients: 2}
	rep, err := gen.Replay(tr)
	if err == nil {
		t.Fatalf("expected replay errors, got %+v", rep)
	}
	if rep.Errors == 0 {
		t.Errorf("report shows no errors: %+v", rep)
	}
}
