package server

import (
	"context"
	"net"

	"filecule/internal/wire"
)

// WireServer builds the frame server over this Server's Service, so one
// process serves both surfaces from the same engine, durability layer and
// advice granularity, with requests recorded in the same metrics collector
// under wire_* routes.
func (s *Server) WireServer() *wire.Server {
	ws := wire.NewServer(s.svc)
	ws.Metrics = s.metrics.Observe
	if s.cfg.WriteTimeout > 0 {
		ws.WriteTimeout = s.cfg.WriteTimeout
	}
	return ws
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
