// Command filecule-serve runs the filecule identification and cache-advice
// service: an HTTP/JSON wrapper around the online identification monitor,
// with Prometheus-style metrics and graceful shutdown.
//
//	filecule-serve -addr :8080                                    # serve a synthetic catalog
//	filecule-serve -addr :8080 -workload file,path=trace.txt      # serve a trace's catalog
//	filecule-serve -addr :8080 -wire-addr :9091                   # also serve filecule-wire/v1
//	filecule-serve -selftest                                      # closed-loop verification
//	filecule-serve -wire-addr :9091 -site a -peers b:9091         # federate with another site
//
// In -selftest mode the command starts an in-process server on a loopback
// port, replays a synthetic trace against it from -clients concurrent
// submitters, and verifies that the partition the service converged to is
// byte-identical to batch identification over the same trace, and that the
// metrics endpoint reflects the traffic. It exits non-zero on any mismatch.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"filecule/internal/cli"
	"filecule/internal/core"
	"filecule/internal/durable"
	"filecule/internal/fed"
	"filecule/internal/server"
	"filecule/internal/synth"
	"filecule/internal/trace"
	"filecule/internal/wire"
	"filecule/internal/workload"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		wireAddr = flag.String("wire-addr", "", "also serve the binary wire protocol (filecule-wire/v1) on this TCP address")
		spec     = cli.WorkloadFlag(flag.CommandLine)
		selftest = flag.Bool("selftest", false, "run the closed-loop load test and exit")
		clients  = flag.Int("clients", 8, "selftest: concurrent submitters")
		batch    = flag.Int("batch", 1, "selftest: jobs per request (1 = unbatched)")
		rpsShape = flag.String("rps-shape", "none", "selftest: offered-load profile (none, ramp, sweep, burst)")
		rpsStart = flag.Float64("rps-start", 10, "selftest: starting request rate for -rps-shape")
		rpsTgt   = flag.Float64("rps-target", 100, "selftest: peak request rate for -rps-shape")
		rpsStep  = flag.Float64("rps-step", 10, "selftest: per-slot rate step for ramp and sweep")
		rpsSlot  = flag.Duration("rps-slot", time.Second, "selftest: duration of one rate slot")
		pprof    = flag.Bool("pprof", true, "mount /debug/pprof")
		grace    = flag.Duration("shutdown-grace", 10*time.Second, "request-draining bound on shutdown")
		rdTO     = flag.Duration("read-timeout", 30*time.Second, "HTTP read timeout")
		wrTO     = flag.Duration("write-timeout", 60*time.Second, "HTTP write timeout")
		stateDir = flag.String("state-dir", "", "durable state directory (checkpoints + write-ahead log; empty = in-memory only)")
		ckptInt  = flag.Duration("checkpoint-interval", 0, "background checkpoint cadence (requires -state-dir; 0 = 30s with a state dir)")
		walSync  = flag.String("wal-sync", "50ms", "WAL group-commit cadence, or \"commit\" to fsync before acknowledging every observe")
		site     = flag.String("site", "", "this site's name in a federation (required with -peers; requires -wire-addr)")
		peers    = flag.String("peers", "", "comma-separated peer wire addresses (host:port) to exchange signature tables with")
		exchInt  = flag.Duration("exchange-interval", time.Second, "steady-state federation exchange cadence per peer")
		peerTO   = flag.Duration("peer-timeout", 2*time.Second, "bound on one federation exchange round-trip")
	)
	cli.Parse(flag.CommandLine, os.Args[1:])

	dopts, err := durableOptions(*stateDir, *ckptInt, *walSync)
	if err != nil {
		fatal(err)
	}
	fedCfg, err := fedConfig(*site, *peers, *wireAddr, *exchInt, *peerTO)
	if err != nil {
		fatal(err)
	}

	shape, err := selftestShape(*rpsShape, *rpsStart, *rpsTgt, *rpsStep, *rpsSlot)
	if err != nil {
		fatal(err)
	}
	cfg := server.Config{
		EnablePprof:   *pprof,
		ShutdownGrace: *grace,
		ReadTimeout:   *rdTO,
		WriteTimeout:  *wrTO,
		Fed:           fedCfg,
	}

	if *selftest {
		t, err := workload.Load(*spec)
		if err != nil {
			fatal(err)
		}
		cfg.Catalog = t.Files
		if dopts != nil {
			if *wireAddr != "" {
				fatal(fmt.Errorf("filecule-serve: -selftest supports -wire-addr or -state-dir, not both"))
			}
			err = runSelftestDurable(cfg, t, *clients, *batch, shape, *dopts)
		} else {
			err = runSelftest(cfg, t, *clients, *batch, shape, *wireAddr)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "selftest FAILED:", err)
			os.Exit(1)
		}
		fmt.Println("selftest PASSED")
		return
	}

	if err := serve(cfg, *spec, *addr, *wireAddr, dopts); err != nil {
		fatal(err)
	}
}

// serve runs the listeners until a signal or a listener failure, then
// checkpoints and closes the state directory, whichever way they ended.
func serve(cfg server.Config, spec, addr, wireAddr string, dopts *durable.Options) (err error) {
	// Serving needs the file catalog only, and a source's catalog outlives
	// it: no job is decoded or generated. The server copies the sizes out,
	// and only the count is kept here, so the rest is garbage once it has.
	src, err := workload.Open(spec)
	if err != nil {
		return err
	}
	cfg.Catalog = src.Files()
	nFiles := len(cfg.Catalog)
	if err := src.Close(); err != nil {
		return err
	}
	if dopts != nil {
		d, err := durable.Open(*dopts)
		if err != nil {
			return err
		}
		printRecovery(dopts.Dir, d.Recovery())
		cfg.Durable = d
		defer func() {
			if cerr := d.Checkpoint(); cerr != nil {
				fmt.Fprintln(os.Stderr, "filecule-serve: shutdown checkpoint:", cerr)
			}
			if cerr := d.Close(); cerr != nil {
				err = errors.Join(err, fmt.Errorf("filecule-serve: closing state: %w", cerr))
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	s := server.New(cfg)
	ready := make(chan net.Addr, 1)
	go func() {
		a := <-ready
		fmt.Printf("filecule-serve: listening on %s (catalog: %d files)\n", a, nFiles)
	}()
	listeners := 1
	errc := make(chan error, 2)
	go func() { errc <- s.ListenAndRun(ctx, addr, ready) }()
	if wireAddr != "" {
		listeners++
		wready := make(chan net.Addr, 1)
		go func() {
			fmt.Printf("filecule-serve: wire protocol (filecule-wire/v1) on %s\n", <-wready)
		}()
		go func() { errc <- s.ListenAndRunWire(ctx, wireAddr, wready) }()
	}
	for i := 0; i < listeners; i++ {
		if lerr := <-errc; lerr != nil {
			err = errors.Join(err, lerr)
			stop() // bring the other listener down cleanly
		}
	}
	if err == nil {
		fmt.Println("filecule-serve: drained and stopped")
	}
	return err
}

// fedConfig validates the federation flag set. A nil result means the
// server runs standalone. Deltas travel between wire listeners.
func fedConfig(site, peers, wireAddr string, interval, timeout time.Duration) (*fed.Config, error) {
	// fed.Config would silently take a non-positive value for its default.
	if interval <= 0 || timeout <= 0 {
		return nil, fmt.Errorf("filecule-serve: -exchange-interval and -peer-timeout must be positive (got %v, %v)", interval, timeout)
	}
	if site == "" {
		if peers != "" {
			return nil, fmt.Errorf("filecule-serve: -peers requires -site")
		}
		return nil, nil
	}
	if wireAddr == "" {
		return nil, fmt.Errorf("filecule-serve: -site requires -wire-addr")
	}
	cfg := &fed.Config{
		Site:     site,
		Interval: interval,
		Timeout:  timeout,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "filecule-serve: fed: "+format+"\n", args...)
		},
	}
	for _, p := range strings.Split(peers, ",") {
		if p = strings.TrimSpace(p); p == "" {
			continue
		}
		if _, _, err := net.SplitHostPort(p); err != nil {
			return nil, fmt.Errorf("filecule-serve: -peers: %q is not a wire address host:port: %v", p, err)
		}
		cfg.Peers = append(cfg.Peers, p)
	}
	return cfg, nil
}

// durableOptions validates the durability flag set. A nil result means the
// server runs in-memory only.
func durableOptions(dir string, ckptInt time.Duration, walSync string) (*durable.Options, error) {
	if dir == "" {
		if ckptInt != 0 {
			return nil, fmt.Errorf("filecule-serve: -checkpoint-interval requires -state-dir")
		}
		return nil, nil
	}
	if ckptInt < 0 {
		return nil, fmt.Errorf("filecule-serve: negative -checkpoint-interval %v", ckptInt)
	}
	if ckptInt == 0 {
		ckptInt = 30 * time.Second
	}
	opts := &durable.Options{
		Dir:                dir,
		CheckpointInterval: ckptInt,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "filecule-serve: "+format+"\n", args...)
		},
	}
	if walSync == "commit" {
		opts.SyncCommit = true
	} else {
		d, err := time.ParseDuration(walSync)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("filecule-serve: -wal-sync must be a positive duration or \"commit\" (got %q)", walSync)
		}
		opts.SyncInterval = d
	}
	return opts, nil
}

func printRecovery(dir string, rec durable.Recovery) {
	if rec.Fresh {
		fmt.Printf("filecule-serve: initialized fresh state in %s\n", dir)
		return
	}
	fmt.Printf("filecule-serve: recovered %d jobs from %s (checkpoint epoch %d at %d jobs + %d WAL jobs replayed)\n",
		rec.Observed, dir, rec.CheckpointEpoch, rec.CheckpointObserved, rec.ReplayedJobs)
	if rec.TruncatedBytes > 0 {
		fmt.Fprintf(os.Stderr, "filecule-serve: dropped %d bytes of torn WAL tail\n", rec.TruncatedBytes)
	}
	if rec.SkippedCheckpoints > 0 {
		fmt.Fprintf(os.Stderr, "filecule-serve: skipped %d corrupt checkpoint(s)\n", rec.SkippedCheckpoints)
	}
}

// selftestShape assembles the -rps-* flags into a load profile for the
// selftest generator; ShapeNone replays closed-loop at full speed as before.
func selftestShape(mode string, start, target, step float64, slot time.Duration) (synth.Shape, error) {
	m, err := synth.ParseShapeMode(mode)
	if err != nil {
		return synth.Shape{}, err
	}
	sh := synth.Shape{Mode: m, StartRPS: start, TargetRPS: target, StepRPS: step, Slot: slot}
	return sh, sh.Validate()
}

// runSelftest boots the service on a loopback port, replays t from many
// clients, and cross-checks the served partition against batch
// identification. With wireAddr set, it additionally serves the binary wire
// protocol on that address, replays over it instead of HTTP, and verifies
// that both surfaces answer the identical partition — the cross-protocol
// differential check.
func runSelftest(cfg server.Config, t *trace.Trace, clients, batch int, shape synth.Shape, wireAddr string) error {
	fmt.Printf("selftest: %d jobs, %d files, %d clients, batch %d\n",
		len(t.Jobs), len(t.Files), clients, batch)

	s := server.New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- s.ListenAndRun(ctx, "127.0.0.1:0", ready) }()
	addr := <-ready
	base := "http://" + addr.String()

	gen := &server.LoadGen{BaseURL: base, Clients: clients, BatchSize: batch, Shape: shape}
	var wdone chan error
	if wireAddr != "" {
		wready := make(chan net.Addr, 1)
		wdone = make(chan error, 1)
		go func() { wdone <- s.ListenAndRunWire(ctx, wireAddr, wready) }()
		select {
		case a := <-wready:
			gen.WireAddr = a.String()
			fmt.Printf("selftest: replaying over filecule-wire/v1 at %s\n", a)
		case err := <-wdone:
			return fmt.Errorf("wire listener: %w", err)
		}
	}
	rep, err := gen.Replay(t)
	if err != nil {
		return err
	}
	fmt.Println(rep)

	if wireAddr != "" {
		if err := verifyWirePartition(gen.WireAddr, base); err != nil {
			return err
		}
		fmt.Println("wire partition: byte-identical to the HTTP partition")
	}

	// The served partition must be byte-identical to batch identification
	// over the same trace, in the service's canonical wire form.
	want, err := server.PartitionJSON(core.Identify(t), int64(len(t.Jobs)), &trace.Trace{Files: t.Files})
	if err != nil {
		return err
	}
	got, err := get(base + "/v1/partition")
	if err != nil {
		return err
	}
	if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
		return fmt.Errorf("served partition differs from batch identification (%d vs %d bytes)", len(got), len(want))
	}
	fmt.Printf("partition: byte-identical to core.Identify (%d filecules, %d bytes of JSON)\n",
		core.Identify(t).NumFilecules(), len(want))

	// The metrics endpoint must reflect the traffic.
	metrics, err := get(base + "/metrics")
	if err != nil {
		return err
	}
	ms := string(metrics)
	for _, needle := range []string{
		"filecule_server_requests_total",
		"filecule_server_request_seconds_quantile",
		"filecule_server_gomaxprocs",
		`filecule_engine_snapshots_total{kind="shared"}`,
		`filecule_engine_snapshots_total{kind="rebuilt"}`,
		"filecule_engine_jobcache_entries",
		"filecule_engine_jobcache_sweeps_total",
		"filecule_engine_fastpath_hits_total",
		fmt.Sprintf("filecule_jobs_observed_total %d", len(t.Jobs)),
	} {
		if !strings.Contains(ms, needle) {
			return fmt.Errorf("metrics output missing %q", needle)
		}
	}
	fmt.Println("metrics: request counters and latency quantiles present")

	// Exercise graceful shutdown.
	cancel()
	if err := <-done; err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if wdone != nil {
		if err := <-wdone; err != nil {
			return fmt.Errorf("wire shutdown: %w", err)
		}
	}
	return nil
}

// verifyWirePartition fetches the partition over both protocols and requires
// the wire reply, marshalled as JSON, to be byte-identical to GET
// /v1/partition.
func verifyWirePartition(wireAddr, base string) error {
	c, err := wire.Dial(wireAddr, 10*time.Second)
	if err != nil {
		return fmt.Errorf("dial wire: %w", err)
	}
	defer c.Close()
	pr, err := c.Partition()
	if err != nil {
		return fmt.Errorf("wire partition: %w", err)
	}
	fromWire, err := json.Marshal(pr)
	if err != nil {
		return err
	}
	fromHTTP, err := get(base + "/v1/partition")
	if err != nil {
		return err
	}
	if !bytes.Equal(bytes.TrimSpace(fromWire), bytes.TrimSpace(fromHTTP)) {
		return fmt.Errorf("wire partition differs from HTTP partition (%d vs %d bytes)",
			len(fromWire), len(fromHTTP))
	}
	return nil
}

// runSelftestDurable verifies the crash-safety wiring end to end: it serves
// the first half of the trace with durability on, checkpoints through the
// admin endpoint, tears the whole stack down, then recovers from the state
// directory and checks the reconstructed partition is byte-identical to
// batch identification over the first half before replaying the rest.
func runSelftestDurable(cfg server.Config, t *trace.Trace, clients, batch int, shape synth.Shape, opts durable.Options) error {
	half := len(t.Jobs) / 2
	firstHalf := &trace.Trace{Files: t.Files, Jobs: t.Jobs[:half]}
	secondHalf := &trace.Trace{Files: t.Files, Jobs: t.Jobs[half:]}
	catalog := &trace.Trace{Files: t.Files}

	fmt.Printf("selftest (durable): %d jobs, %d files, restart after %d jobs, state dir %s\n",
		len(t.Jobs), len(t.Files), half, opts.Dir)

	// Phase 1: replay the first half, checkpoint via the admin endpoint,
	// shut everything down.
	err := withDurableServer(cfg, opts, func(base string, d *durable.Engine) error {
		gen := &server.LoadGen{BaseURL: base, Clients: clients, BatchSize: batch, Shape: shape}
		if _, err := gen.Replay(firstHalf); err != nil {
			return err
		}
		resp, err := http.Post(base+"/v1/admin/checkpoint", "application/json", nil)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("admin checkpoint: HTTP %d", resp.StatusCode)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("phase 1: %w", err)
	}

	// Phase 2: recover, verify the reconstructed state, finish the trace.
	err = withDurableServer(cfg, opts, func(base string, d *durable.Engine) error {
		rec := d.Recovery()
		if rec.Fresh {
			return fmt.Errorf("recovery found no prior state in %s", opts.Dir)
		}
		if rec.Observed != int64(half) {
			return fmt.Errorf("recovered %d jobs, want %d", rec.Observed, half)
		}
		fmt.Printf("recovery: %d jobs (checkpoint epoch %d at %d jobs + %d WAL jobs replayed)\n",
			rec.Observed, rec.CheckpointEpoch, rec.CheckpointObserved, rec.ReplayedJobs)

		want, err := server.PartitionJSON(core.Identify(firstHalf), int64(half), catalog)
		if err != nil {
			return err
		}
		got, err := get(base + "/v1/partition")
		if err != nil {
			return err
		}
		if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
			return fmt.Errorf("recovered partition differs from batch identification over the first %d jobs (%d vs %d bytes)",
				half, len(got), len(want))
		}
		fmt.Printf("recovered partition: byte-identical to core.Identify over first %d jobs\n", half)

		gen := &server.LoadGen{BaseURL: base, Clients: clients, BatchSize: batch, Shape: shape}
		if _, err := gen.Replay(secondHalf); err != nil {
			return err
		}
		want, err = server.PartitionJSON(core.Identify(t), int64(len(t.Jobs)), catalog)
		if err != nil {
			return err
		}
		got, err = get(base + "/v1/partition")
		if err != nil {
			return err
		}
		if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
			return fmt.Errorf("final partition differs from batch identification (%d vs %d bytes)", len(got), len(want))
		}
		fmt.Printf("final partition: byte-identical to core.Identify (%d filecules)\n",
			core.Identify(t).NumFilecules())

		metrics, err := get(base + "/metrics")
		if err != nil {
			return err
		}
		ms := string(metrics)
		for _, needle := range []string{
			"filecule_state_epoch",
			"filecule_wal_appended_jobs_total",
			"filecule_checkpoints_total",
			fmt.Sprintf("filecule_jobs_observed_total %d", len(t.Jobs)),
		} {
			if !strings.Contains(ms, needle) {
				return fmt.Errorf("metrics output missing %q", needle)
			}
		}
		fmt.Println("metrics: durability gauges present")
		return nil
	})
	if err != nil {
		return fmt.Errorf("phase 2: %w", err)
	}
	return nil
}

// withDurableServer opens the state directory, serves on a loopback port
// with durability wired in, runs fn, and tears down in order: server drain,
// then WAL sync and close.
func withDurableServer(cfg server.Config, opts durable.Options, fn func(base string, d *durable.Engine) error) error {
	d, err := durable.Open(opts)
	if err != nil {
		return err
	}
	cfg.Durable = d
	s := server.New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- s.ListenAndRun(ctx, "127.0.0.1:0", ready) }()
	addr := <-ready
	ferr := fn("http://"+addr.String(), d)
	cancel()
	if err := <-done; err != nil && ferr == nil {
		ferr = fmt.Errorf("shutdown: %w", err)
	}
	if err := d.Close(); err != nil && ferr == nil {
		ferr = fmt.Errorf("closing state: %w", err)
	}
	return ferr
}

func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, b)
	}
	return b, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
