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
// port, replays the workload's trace against it from -clients concurrent
// submitters (over the wire listener with -wire-addr, restarting from
// -state-dir halfway), and verifies that the served partition is
// byte-identical to batch identification over the same trace and that the
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
		gen := server.LoadGen{Clients: *clients, BatchSize: *batch, Shape: shape}
		if err := runSelftest(cfg, t, gen, *wireAddr, dopts); err != nil {
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
	l, err := listen(ctx, server.New(cfg), addr, wireAddr)
	if err != nil {
		return err
	}
	fmt.Printf("filecule-serve: listening on %s (catalog: %d files)\n", l.httpAt, nFiles)
	if l.wireAt != "" {
		fmt.Printf("filecule-serve: wire protocol (filecule-wire/v1) on %s\n", l.wireAt)
	}
	// A listener ends on a failure or once ctx is done at a signal.
	if err := l.ended(<-l.errc); err != nil {
		return err
	}
	fmt.Println("filecule-serve: drained and stopped")
	return nil
}

// listeners are a server's HTTP listener and, when asked for, its wire
// listener.
type listeners struct {
	httpAt, wireAt string // bound addresses
	cancel         context.CancelFunc
	errc           chan error // each listener's result, once it ends
	running        int        // listeners whose result is not read yet
}

// listen starts s's HTTP listener on addr and, when wireAddr is set, its
// wire listener, until ctx is done or stop is called, and returns once both
// are bound. If one ends first, the other is drained and every result
// returned.
func listen(ctx context.Context, s *server.Server, addr, wireAddr string) (*listeners, error) {
	ctx, cancel := context.WithCancel(ctx)
	l := &listeners{cancel: cancel, errc: make(chan error, 2)}
	start := func(run func(context.Context, string, chan<- net.Addr) error, addr string) (string, error) {
		ready := make(chan net.Addr, 1)
		l.running++
		go func() { l.errc <- run(ctx, addr, ready) }()
		select {
		case a := <-ready:
			return a.String(), nil
		case err := <-l.errc:
			return "", l.ended(err)
		}
	}
	var err error
	if l.httpAt, err = start(s.ListenAndRun, addr); err != nil {
		return nil, err
	}
	if wireAddr != "" {
		if l.wireAt, err = start(s.ListenAndRunWire, wireAddr); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// ended takes the result err of a listener that has ended, stops the
// others, and returns every result.
func (l *listeners) ended(err error) error {
	l.running--
	return errors.Join(err, l.stop())
}

// stop cancels the listeners and returns once every one has drained, with
// their results.
func (l *listeners) stop() (err error) {
	l.cancel()
	for ; l.running > 0; l.running-- {
		err = errors.Join(err, <-l.errc)
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

// runSelftest boots the service on a loopback port, replays t from gen's
// clients, and cross-checks the served partition against batch
// identification and /metrics against the traffic. With wireAddr set it
// also serves the binary wire protocol there, replays over it instead of
// HTTP, and requires both surfaces to answer the identical partition. With
// opts it serves from that state directory and replays t in two halves:
// between them it checkpoints through the admin endpoint and tears the
// whole stack down, and the restarted server must recover the first half's
// jobs and its partition before it takes the second.
func runSelftest(cfg server.Config, t *trace.Trace, gen server.LoadGen, wireAddr string, opts *durable.Options) error {
	fmt.Printf("selftest: %d jobs, %d files, %d clients, batch %d\n", len(t.Jobs), len(t.Files), gen.Clients, gen.BatchSize)
	ends := []int{len(t.Jobs)}
	if opts != nil {
		ends = []int{len(t.Jobs) / 2, len(t.Jobs)}
		fmt.Printf("selftest: restart after %d jobs, state dir %s\n", ends[0], opts.Dir)
	}
	done := 0
	for i, end := range ends {
		err := withServer(cfg, wireAddr, opts, func(base, wireAt string, d *durable.Engine) error {
			if i > 0 {
				if rec := d.Recovery(); rec.Fresh || rec.Observed != int64(done) {
					return fmt.Errorf("recovered %d jobs from %s, want %d", rec.Observed, opts.Dir, done)
				}
				if err := checkPartition(base, wireAt, t, done); err != nil {
					return err
				}
			}
			gen.BaseURL, gen.WireAddr = base, wireAt
			rep, err := gen.Replay(&trace.Trace{Files: t.Files, Jobs: t.Jobs[done:end]})
			if err != nil {
				return err
			}
			fmt.Println(rep)
			if err := checkPartition(base, wireAt, t, end); err != nil {
				return err
			}
			err = checkMetrics(base, end, d != nil)
			if err == nil && end < len(t.Jobs) {
				_, err = fetch(http.MethodPost, base+"/v1/admin/checkpoint")
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("jobs [%d, %d): %w", done, end, err)
		}
		done = end
	}
	return nil
}

// withServer serves cfg on a loopback HTTP port, and on wireAddr when set,
// from the state directory opts names when set, and runs fn with the bound
// addresses. It then drains the listeners, and only then closes the state.
func withServer(cfg server.Config, wireAddr string, opts *durable.Options, fn func(base, wireAt string, d *durable.Engine) error) (err error) {
	var d *durable.Engine
	if opts != nil {
		if d, err = durable.Open(*opts); err != nil {
			return err
		}
		printRecovery(opts.Dir, d.Recovery())
		cfg.Durable = d
		defer func() {
			if cerr := d.Close(); cerr != nil {
				err = errors.Join(err, fmt.Errorf("closing state: %w", cerr))
			}
		}()
	}
	l, err := listen(context.Background(), server.New(cfg), "127.0.0.1:0", wireAddr)
	if err != nil {
		return err
	}
	defer func() {
		if serr := l.stop(); serr != nil {
			err = errors.Join(err, fmt.Errorf("shutdown: %w", serr))
		}
	}()
	if l.wireAt != "" {
		fmt.Printf("selftest: replaying over filecule-wire/v1 at %s\n", l.wireAt)
	}
	return fn("http://"+l.httpAt, l.wireAt, d)
}

// checkPartition requires the served partition to be byte-identical to
// batch identification over t's first n jobs, in the service's canonical
// wire form, and the wire listener's at wireAt, when set, to the same bytes.
func checkPartition(base, wireAt string, t *trace.Trace, n int) error {
	p := core.Identify(&trace.Trace{Files: t.Files, Jobs: t.Jobs[:n]})
	want, err := server.PartitionJSON(p, int64(n), &trace.Trace{Files: t.Files})
	if err != nil {
		return err
	}
	got, err := fetch(http.MethodGet, base+"/v1/partition")
	if err != nil {
		return err
	}
	if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
		return fmt.Errorf("served partition differs from batch identification over the first %d jobs (%d vs %d bytes)",
			n, len(got), len(want))
	}
	fmt.Printf("partition: byte-identical to core.Identify over the first %d jobs (%d filecules, %d bytes of JSON)\n",
		n, p.NumFilecules(), len(want))
	if wireAt == "" {
		return nil
	}
	return verifyWirePartition(wireAt, got)
}

// checkMetrics requires /metrics to carry the request and engine series,
// the WAL and epoch series when the server has a state directory, and an
// observed-jobs total of n.
func checkMetrics(base string, n int, durable bool) error {
	metrics, err := fetch(http.MethodGet, base+"/metrics")
	if err != nil {
		return err
	}
	needles := []string{
		"filecule_server_requests_total",
		"filecule_server_request_seconds_quantile",
		"filecule_server_gomaxprocs",
		`filecule_engine_snapshots_total{kind="shared"}`,
		`filecule_engine_snapshots_total{kind="rebuilt"}`,
		"filecule_engine_jobcache_entries",
		"filecule_engine_jobcache_sweeps_total",
		"filecule_engine_fastpath_hits_total",
		fmt.Sprintf("filecule_jobs_observed_total %d", n),
	}
	if durable {
		needles = append(needles, "filecule_state_epoch", "filecule_wal_appended_jobs_total", "filecule_checkpoints_total")
	}
	for _, needle := range needles {
		if !bytes.Contains(metrics, []byte(needle)) {
			return fmt.Errorf("metrics output missing %q", needle)
		}
	}
	fmt.Printf("metrics: %d series present\n", len(needles))
	return nil
}

// verifyWirePartition requires the partition fetched over the wire listener
// at wireAt, marshalled as JSON, to be byte-identical to fromHTTP, the body
// of GET /v1/partition.
func verifyWirePartition(wireAt string, fromHTTP []byte) error {
	c, err := wire.Dial(wireAt, 10*time.Second)
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
	if !bytes.Equal(fromWire, bytes.TrimSpace(fromHTTP)) {
		return fmt.Errorf("wire partition differs from HTTP partition (%d vs %d bytes)", len(fromWire), len(fromHTTP))
	}
	fmt.Println("wire partition: byte-identical to the HTTP partition")
	return nil
}

// fetch sends a body-less request and returns the body of its 200 reply.
func fetch(method, url string) ([]byte, error) {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, b)
	}
	return b, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
