package server

import (
	"context"
	"fmt"
	"net"

	"filecule/internal/cache"
	"filecule/internal/core"
	"filecule/internal/trace"
	"filecule/internal/wire"
)

// This file adapts the Server to the binary wire protocol (internal/wire),
// so one process serves both surfaces from the same engine, durability
// layer, advice granularity and metrics. The adapter is deliberately thin:
// every decision — durable WAL-ahead observes, membership-keyed granularity
// caching, catalog bounds — is the same code the HTTP handlers run, which is
// what makes the two stacks differentially testable.

// wireBackend implements wire.Backend over a Server.
type wireBackend struct{ s *Server }

func (b wireBackend) Observe(files []trace.FileID) error {
	if b.s.cfg.Durable != nil {
		return b.s.cfg.Durable.Observe(files)
	}
	b.s.engine.Observe(files)
	return nil
}

func (b wireBackend) ObserveBatch(jobs [][]trace.FileID) error {
	if b.s.cfg.Durable != nil {
		return b.s.cfg.Durable.ObserveBatch(jobs)
	}
	b.s.engine.ObserveBatch(jobs)
	return nil
}

func (b wireBackend) Counts() (int64, int) {
	return b.s.engine.Observed(), b.s.engine.NumFilecules()
}

func (b wireBackend) Granularity() (cache.Granularity, error) {
	if b.s.catTrace == nil {
		return nil, fmt.Errorf("cache advice requires a file catalog; start the server with one")
	}
	return b.s.granularity(), nil
}

func (b wireBackend) PartitionState() (*core.Partition, int64, *trace.Trace) {
	return b.s.engine.Snapshot(), b.s.engine.Observed(), b.s.catTrace
}

func (b wireBackend) Membership() (*core.Partition, int64, *trace.Trace) {
	return b.s.engine.Membership(), b.s.engine.Observed(), b.s.catTrace
}

func (b wireBackend) Lookup(f trace.FileID) (*core.Partition, core.Filecule, *trace.Trace, bool) {
	p, fc, ok := b.s.engine.Lookup(f)
	return p, fc, b.s.catTrace, ok
}

// WireServer builds the binary protocol server answering from this Server's
// state, with limits mirroring the HTTP surface and requests recorded in the
// same metrics collector (routes wire_observe, wire_observe_batch,
// wire_advise, wire_partition).
func (s *Server) WireServer() *wire.Server {
	return &wire.Server{
		Backend:      wireBackend{s},
		MaxFiles:     len(s.cfg.Catalog),
		MaxBatchJobs: s.cfg.maxBatch(),
		IdleTimeout:  s.cfg.IdleTimeout,
		WriteTimeout: s.cfg.WriteTimeout,
		Metrics:      s.metrics.Observe,
	}
}

// RunWire serves filecule-wire/v1 on l until ctx is cancelled. Run it
// alongside Run to expose both surfaces from one process.
func (s *Server) RunWire(ctx context.Context, l net.Listener) error {
	return s.WireServer().Serve(ctx, l)
}

// ListenAndRunWire listens on addr and calls RunWire. ready, if non-nil,
// receives the bound address once listening (useful with ":0").
func (s *Server) ListenAndRunWire(ctx context.Context, addr string, ready chan<- net.Addr) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- l.Addr()
	}
	return s.RunWire(ctx, l)
}
