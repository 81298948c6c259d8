// Package server exposes the filecule identification service over
// HTTP/JSON — the deployment Section 6 of the paper sketches, where job
// submissions stream past a concentration point and distributed site caches
// ask for staging advice. The six operations are answered by a wire.Service,
// the request core this package shares with the binary protocol: a handler
// here decodes JSON, makes one Service call and encodes the reply.
//
// Endpoints:
//
//	POST /v1/jobs              observe one job's input set
//	POST /v1/jobs/batch        observe many jobs in one request
//	GET  /v1/filecules/{file}  the filecule containing a file
//	GET  /v1/partition         the full canonical partition
//	GET  /v1/partition/summary partition shape statistics
//	POST /v1/cache/advise      admission/eviction advice for a client cache
//	POST /v1/admin/checkpoint  write a checkpoint now (when Config.Durable)
//	GET  /v1/fed/partition     merged cross-site partition (when Config.Fed)
//	GET  /metrics              Prometheus text exposition
//	GET  /healthz              liveness probe
//	GET  /readyz               readiness probe (503 while federation degraded)
//	/debug/pprof/*             standard profiles (when Config.EnablePprof)
//
// All responses are JSON except /metrics. Invalid input is answered with a
// 4xx and a JSON {"error": ...} body; handlers never panic (fuzz-verified).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"time"

	"filecule/internal/cache"
	"filecule/internal/core"
	"filecule/internal/durable"
	"filecule/internal/fed"
	"filecule/internal/trace"
	"filecule/internal/wire"
)

// Config parameterizes a Server. The zero value serves with no catalog
// (identification only; /v1/cache/advise is disabled).
type Config struct {
	// Catalog is the file catalog backing cache advice and byte accounting.
	// File IDs in requests are validated against it when present; without a
	// catalog any non-negative int32 ID is accepted and advice is
	// unavailable. New copies the sizes out and keeps nothing else of it.
	Catalog []trace.File
	// ReadTimeout and WriteTimeout configure the underlying http.Server in
	// Run (and WriteTimeout the wire server's flushes); zero values mean
	// 30s and 60s.
	ReadTimeout, WriteTimeout time.Duration
	// ShutdownGrace bounds request draining on shutdown; zero means 10s.
	ShutdownGrace time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Durable, when set, makes observes WAL-ahead through the durability
	// layer (its engine becomes the serving engine, so recovered state is
	// what the server answers from) and mounts POST /v1/admin/checkpoint.
	// A WAL append failure answers 500 and the job is not applied.
	Durable *durable.Engine
	// Fed, when set, federates this server's engine with peer sites: New
	// builds a fed.Node over the serving engine (Fed.Self and Fed.Transport,
	// a wire.FedTransport, are overridden; Fed.MaxFiles defaults to the
	// catalog size), mounts the merged-partition endpoint, and Run drives
	// the exchange loops. Peers send deltas to the wire listener.
	Fed *fed.Config
}

// limits are the JSON decoder's budgets. New sets them; tests narrow one to
// reach a bound cheaply.
type limits struct {
	bodyBytes int64 // request body cap; what the body may hold is the wire.Service's
	// bodyRead bounds reading any single request body via a per-request
	// connection read deadline, independent of the server-wide ReadTimeout.
	// This is the slowloris guard: a client trickling body bytes is cut off
	// after this long, not after ReadTimeout (which callers may set
	// generously for large batches).
	bodyRead time.Duration
}

func orDefault(d, def time.Duration) time.Duration {
	if d > 0 {
		return d
	}
	return def
}

// Server is the HTTP serving layer: the JSON codec over a wire.Service. Create
// with New; it is safe for concurrent use by any number of connections.
type Server struct {
	cfg Config // without its Catalog
	lim limits
	// svc answers every operation, for these handlers and for the frame
	// server WireServer builds, and holds the federation node.
	svc     *wire.Service
	metrics *Metrics
	mux     *http.ServeMux

	// fedErr holds a federation construction failure, surfaced by Run so
	// New keeps its signature.
	fedErr error
}

// New builds a Server from the configuration.
func New(cfg Config) *Server {
	svc := &wire.Service{Engine: core.NewEngine(0)}
	if cfg.Durable != nil {
		svc.Engine, svc.Journal = cfg.Durable.Core(), cfg.Durable
	}
	if len(cfg.Catalog) > 0 {
		svc.Catalog = trace.NewSizes(cfg.Catalog)
	}
	cfg.Catalog = nil // the caller's catalog, names and all, is not held
	s := &Server{
		cfg:     cfg,
		lim:     limits{bodyBytes: 32 << 20, bodyRead: 30 * time.Second},
		svc:     svc,
		metrics: NewMetrics(),
		mux:     http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /v1/jobs", s.metrics.instrument("observe", s.handleObserve))
	s.mux.HandleFunc("POST /v1/jobs/batch", s.metrics.instrument("observe_batch", s.handleObserveBatch))
	s.mux.HandleFunc("GET /v1/filecules/{file}", s.metrics.instrument("filecule", s.handleFilecule))
	s.mux.HandleFunc("GET /v1/partition", s.metrics.instrument("partition", s.handlePartition))
	s.mux.HandleFunc("GET /v1/partition/summary", s.metrics.instrument("summary", s.handleSummary))
	s.mux.HandleFunc("POST /v1/cache/advise", s.metrics.instrument("advise", s.handleAdvise))
	if cfg.Durable != nil {
		s.mux.HandleFunc("POST /v1/admin/checkpoint", s.metrics.instrument("checkpoint", s.handleCheckpoint))
	}
	if cfg.Fed != nil {
		fc := *cfg.Fed
		fc.Self = svc.Engine
		if fc.MaxFiles == 0 && svc.Catalog != nil {
			// Bound incoming deltas by the catalog, as Service.CheckJobs
			// bounds observes: remote state may never reference a file the
			// local catalog cannot resolve.
			fc.MaxFiles = svc.Catalog.NumFiles()
		}
		fc.Transport = wire.FedTransport{}
		node, err := fed.NewNode(fc)
		if err != nil {
			s.fedErr = fmt.Errorf("server: federation: %w", err)
		} else {
			svc.Fed = node
			s.mux.HandleFunc("GET /v1/fed/partition", s.metrics.instrument("fed_partition", s.handleFedPartition))
		}
	}
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the root handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Engine exposes the underlying identification engine. Observing through it
// bypasses the durability layer when one is configured.
func (s *Server) Engine() *core.Engine { return s.svc.Engine }

// Run serves on l until ctx is cancelled, then drains in-flight requests
// for at most Config.ShutdownGrace before returning. It returns nil on a
// clean shutdown.
func (s *Server) Run(ctx context.Context, l net.Listener) error {
	if s.fedErr != nil {
		l.Close()
		return s.fedErr
	}
	if s.svc.Fed != nil {
		s.svc.Fed.Start()
		defer s.svc.Fed.Stop()
	}
	hs := &http.Server{
		Handler:      s.Handler(),
		ReadTimeout:  orDefault(s.cfg.ReadTimeout, 30*time.Second),
		WriteTimeout: orDefault(s.cfg.WriteTimeout, 60*time.Second),
		IdleTimeout:  120 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), orDefault(s.cfg.ShutdownGrace, 10*time.Second))
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			return fmt.Errorf("server: shutdown: %w", err)
		}
		return nil
	}
}

// ListenAndRun listens on addr and calls Run. ready, if non-nil, receives
// the bound address once listening (useful with ":0").
func (s *Server) ListenAndRun(ctx context.Context, addr string, ready chan<- net.Addr) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- l.Addr()
	}
	return s.Run(ctx, l)
}

// --- request bodies ---
//
// Replies, and the advise request, are the message types of internal/wire and
// internal/cache, which carry this surface's JSON field names.

// JobBody is the POST /v1/jobs request payload.
type JobBody struct {
	Files []trace.FileID `json:"files"`
}

// BatchBody is the POST /v1/jobs/batch request payload.
type BatchBody struct {
	Jobs []JobBody `json:"jobs"`
}

type errorBody struct {
	Error string `json:"error"`
}

// --- handlers ---

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// reply encodes what a Service call returned: v, or the refusal with its
// code as the status.
func reply(w http.ResponseWriter, v any, rerr *wire.RemoteError) {
	if rerr != nil {
		writeJSON(w, rerr.Code, errorBody{Error: rerr.Msg})
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// writeRaw sends an already-marshalled JSON document.
func writeRaw(w http.ResponseWriter, buf []byte, err error) {
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf)
}

// bodyReadError maps a body-read failure to a client-appropriate status.
func writeBodyReadError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", mbe.Limit)
	case errors.Is(err, os.ErrDeadlineExceeded):
		writeError(w, http.StatusRequestTimeout, "reading body: %v", err)
	default:
		writeError(w, http.StatusBadRequest, "bad JSON body: %v", err)
	}
}

// decodeBody parses the JSON request body into v, enforcing the size cap
// and a read deadline of limits.bodyRead on the body, so a client trickling
// bytes cannot pin a handler. It reports a client-appropriate status code on
// failure. Only a successful read clears the deadline: net/http's
// post-handler drain of a failed body would otherwise block on the stalled
// connection before the error is flushed. Deadline errors are ignored
// (httptest recorders have none; the server-wide ReadTimeout still applies).
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	rc := http.NewResponseController(w)
	_ = rc.SetReadDeadline(time.Now().Add(s.lim.bodyRead))
	body := http.MaxBytesReader(w, r.Body, s.lim.bodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeBodyReadError(w, err)
		return false
	}
	// Only whitespace may follow the JSON value. (More would pass trailing
	// bytes that start with ']' or '}'.)
	if _, err := dec.Token(); err != io.EOF {
		var syn *json.SyntaxError
		if err == nil || errors.As(err, &syn) {
			writeError(w, http.StatusBadRequest, "trailing data after JSON body")
		} else {
			writeBodyReadError(w, err)
		}
		return false
	}
	_ = rc.SetReadDeadline(time.Time{})
	return true
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	var body JobBody
	if !s.decodeBody(w, r, &body) {
		return
	}
	if rerr := s.svc.CheckJobs(body.Files); rerr != nil {
		reply(w, nil, rerr)
		return
	}
	res, rerr := s.svc.Observe(body.Files)
	reply(w, res, rerr)
}

func (s *Server) handleObserveBatch(w http.ResponseWriter, r *http.Request) {
	var body BatchBody
	if !s.decodeBody(w, r, &body) {
		return
	}
	jobs := make([][]trace.FileID, len(body.Jobs))
	for i, j := range body.Jobs {
		jobs[i] = j.Files
	}
	if rerr := s.svc.CheckJobs(jobs...); rerr != nil {
		reply(w, nil, rerr)
		return
	}
	res, rerr := s.svc.ObserveBatch(jobs)
	reply(w, res, rerr)
}

// CheckpointResult is the POST /v1/admin/checkpoint response.
type CheckpointResult struct {
	Epoch    uint64 `json:"epoch"`
	Observed int64  `json:"observed"`
	Groups   int    `json:"groups"`
	Reused   int    `json:"reused"`
	Bytes    int64  `json:"bytes"`
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if err := s.cfg.Durable.Checkpoint(); err != nil {
		writeError(w, http.StatusInternalServerError, "checkpoint: %v", err)
		return
	}
	st := s.cfg.Durable.Stats()
	writeJSON(w, http.StatusOK, CheckpointResult{
		Epoch:    st.Epoch,
		Observed: s.svc.Engine.Observed(),
		Groups:   st.LastGroups,
		Reused:   st.LastReused,
		Bytes:    st.LastBytes,
	})
}

// handleFedPartition serves the merged cross-site partition in the same
// canonical wire form as /v1/partition, so convergence is checkable by
// byte comparison against a single-site identification.
func (s *Server) handleFedPartition(w http.ResponseWriter, r *http.Request) {
	buf, err := PartitionJSON(s.svc.Fed.Merged(), s.svc.Fed.MergedObserved(), s.svc.Catalog)
	writeRaw(w, buf, err)
}

// handleReady is the readiness probe. Without federation it mirrors
// /healthz. With federation it answers 503 while any peer is unhealthy:
// a degraded node still serves (its merged partition is provably a
// coarsening of the global truth, never a corruption), but load balancers
// may prefer converged replicas.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.svc.Fed != nil {
		if degraded, reasons := s.svc.Fed.Degraded(); degraded {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"status":  "degraded",
				"reasons": reasons,
			})
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleFilecule(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("file"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad file ID %q", r.PathValue("file"))
		return
	}
	res, rerr := s.svc.Filecule(id)
	reply(w, res, rerr)
}

// PartitionJSON encodes a partition in the service's canonical wire form:
// filecules in canonical order, each with sorted member files. Two equal
// partitions encode to identical bytes, which the self-test relies on.
func PartitionJSON(p *core.Partition, observed int64, catalog trace.Catalog) ([]byte, error) {
	return json.Marshal(wire.NewPartitionReply(p, observed, catalog))
}

func (s *Server) handlePartition(w http.ResponseWriter, r *http.Request) {
	buf, err := json.Marshal(s.svc.Partition())
	writeRaw(w, buf, err)
}

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.svc.Summary())
}

func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	// Without a catalog the answer is 422 whatever the body says, so it is
	// given before the body is read.
	if _, rerr := s.svc.Granularity(); rerr != nil {
		reply(w, nil, rerr)
		return
	}
	var req cache.AdviceRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if rerr := s.svc.CheckJobs(req.Files); rerr != nil {
		reply(w, nil, rerr)
		return
	}
	var pl cache.Planner
	adv, rerr := s.svc.Advise(&pl, req)
	reply(w, adv, rerr)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WritePrometheus(w)
	// Application-level gauges alongside the HTTP counters.
	p := s.svc.Engine.Membership()
	fmt.Fprintf(w, "# TYPE filecule_jobs_observed_total counter\n")
	fmt.Fprintf(w, "filecule_jobs_observed_total %d\n", s.svc.Engine.Observed())
	fmt.Fprintf(w, "# TYPE filecule_partition_filecules gauge\n")
	fmt.Fprintf(w, "filecule_partition_filecules %d\n", p.NumFilecules())
	fmt.Fprintf(w, "# TYPE filecule_partition_files gauge\n")
	fmt.Fprintf(w, "filecule_partition_files %d\n", p.NumFiles())
	// Capacity gauge, so throughput regressions are diagnosable from scrapes
	// alone.
	fmt.Fprintf(w, "# TYPE filecule_server_gomaxprocs gauge\n")
	fmt.Fprintf(w, "filecule_server_gomaxprocs %d\n", runtime.GOMAXPROCS(0))
	// The repeat-job fast path: whether it is hitting, and that its cache
	// tracks the live repeat set rather than every job ever seen.
	jc := s.svc.Engine.JobCacheStats()
	fmt.Fprintf(w, "# TYPE filecule_engine_jobcache_entries gauge\n")
	fmt.Fprintf(w, "filecule_engine_jobcache_entries %d\n", jc.Entries)
	fmt.Fprintf(w, "# TYPE filecule_engine_jobcache_sweeps_total counter\n")
	fmt.Fprintf(w, "filecule_engine_jobcache_sweeps_total %d\n", jc.Sweeps)
	fmt.Fprintf(w, "# TYPE filecule_engine_fastpath_hits_total counter\n")
	fmt.Fprintf(w, "filecule_engine_fastpath_hits_total %d\n", jc.FastPathHits)
	// Whether reads after observes hit the split-free path: a shared snapshot
	// reused the previous one's member lists, index and size table.
	ss := s.svc.Engine.SnapshotStats()
	fmt.Fprintf(w, "# TYPE filecule_engine_snapshots_total counter\n")
	fmt.Fprintf(w, "filecule_engine_snapshots_total{kind=\"shared\"} %d\n", ss.Shared)
	fmt.Fprintf(w, "filecule_engine_snapshots_total{kind=\"rebuilt\"} %d\n", ss.Rebuilt)
	if s.cfg.Durable != nil {
		st := s.cfg.Durable.Stats()
		fmt.Fprintf(w, "# TYPE filecule_wal_appended_jobs_total counter\n")
		fmt.Fprintf(w, "filecule_wal_appended_jobs_total %d\n", st.WALAppended)
		fmt.Fprintf(w, "# TYPE filecule_wal_synced_jobs_total counter\n")
		fmt.Fprintf(w, "filecule_wal_synced_jobs_total %d\n", st.WALSynced)
		fmt.Fprintf(w, "# TYPE filecule_state_epoch gauge\n")
		fmt.Fprintf(w, "filecule_state_epoch %d\n", st.Epoch)
		fmt.Fprintf(w, "# TYPE filecule_checkpoints_total counter\n")
		fmt.Fprintf(w, "filecule_checkpoints_total %d\n", st.Checkpoints)
	}
	if s.svc.Fed != nil {
		s.writeFedMetrics(w)
	}
}

// writeFedMetrics emits the federation health gauges: one series per peer
// for retry/breaker state, plus node-wide degradation and site counts.
func (s *Server) writeFedMetrics(w io.Writer) {
	degraded, _ := s.svc.Fed.Degraded()
	fmt.Fprintf(w, "# TYPE filecule_fed_degraded gauge\n")
	fmt.Fprintf(w, "filecule_fed_degraded %d\n", boolGauge(degraded))
	fmt.Fprintf(w, "# TYPE filecule_fed_sites_known gauge\n")
	fmt.Fprintf(w, "filecule_fed_sites_known %d\n", len(s.svc.Fed.Sites()))
	fmt.Fprintf(w, "# TYPE filecule_fed_merged_observed gauge\n")
	fmt.Fprintf(w, "filecule_fed_merged_observed %d\n", s.svc.Fed.MergedObserved())

	health := s.svc.Fed.Health()
	perPeer := func(name, kind string, val func(h fed.PeerHealth) int64) {
		fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
		for _, h := range health {
			fmt.Fprintf(w, "%s{peer=%q} %d\n", name, h.Addr, val(h))
		}
	}
	perPeer("filecule_fed_peer_healthy", "gauge", func(h fed.PeerHealth) int64 { return boolGauge(h.Healthy) })
	perPeer("filecule_fed_peer_breaker_state", "gauge", func(h fed.PeerHealth) int64 { return int64(h.BreakerState) })
	perPeer("filecule_fed_peer_consecutive_failures", "gauge", func(h fed.PeerHealth) int64 { return int64(h.ConsecutiveFailures) })
	perPeer("filecule_fed_peer_acked_version", "gauge", func(h fed.PeerHealth) int64 { return int64(h.AckedVersion) })
	perPeer("filecule_fed_peer_exchanges_total", "counter", func(h fed.PeerHealth) int64 { return h.Exchanges })
	perPeer("filecule_fed_peer_failures_total", "counter", func(h fed.PeerHealth) int64 { return h.Failures })
	perPeer("filecule_fed_peer_breaker_trips_total", "counter", func(h fed.PeerHealth) int64 { return h.BreakerTrips })
}

func boolGauge(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
