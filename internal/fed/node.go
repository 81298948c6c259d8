// Package fed implements multi-site federation of filecule identification:
// N serving instances each observe their own site's jobs and periodically
// push signature-table deltas to their peers, so every site converges on
// the global partition — the common refinement of all per-site views.
//
// Correctness rests on the paper's Section 6 theorem and one accounting
// fact. Per-site identification can only merge true filecules, never split
// them, so any subset of site views combines (core.Combine) into a
// partition that coarsens the global one — a degraded federation loses
// precision, not correctness. And because the sites partition the job
// stream, per-site request counts sum to the global counts, so the fold of
// all site views is byte-identical to single-node identification of the
// concatenated trace. The fault-injection differential in this package's
// tests pins both properties.
//
// The exchange protocol is state-based and idempotent: a delta carries the
// sender's full live-signature set plus complete records for every group
// that changed since the version the receiver last acknowledged, all gated
// by (incarnation, version). Duplicated, reordered, or retried deltas move
// the receiver nowhere; a restarted sender gets a fresh incarnation, which
// makes receivers discard its old state and request everything; a restarted
// receiver acknowledges version 0 and is resent everything. Failure
// handling is per peer: request deadlines, capped exponential backoff with
// jitter, and a circuit breaker that opens after repeated failures and
// re-probes after a cooldown.
package fed

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"time"

	"filecule/internal/core"
	"filecule/internal/trace"
)

// Transport carries one exchange to a peer and returns the peer's ack
// bytes, within the context deadline; wire.FedTransport crosses a network.
type Transport interface {
	Exchange(ctx context.Context, peer string, delta []byte) ([]byte, error)
}

// Config parameterizes a federation node.
type Config struct {
	// Site is this node's unique site name (required).
	Site string
	// Self is the local identification engine whose state is federated
	// (required).
	Self *core.Engine
	// Peers lists peer addresses, passed verbatim to the Transport.
	Peers []string
	// Transport delivers deltas (required when Peers is non-empty).
	Transport Transport

	// Interval is the steady-state exchange cadence per peer (default 1s).
	Interval time.Duration
	// Timeout bounds one exchange: dial, write and read (default 2s).
	Timeout time.Duration
	// BreakerFailures is the consecutive-failure count that opens a peer's
	// circuit breaker (default 5).
	BreakerFailures int
	// BreakerCooldown is how long an open breaker waits before letting one
	// probe through (default 5s).
	BreakerCooldown time.Duration

	// MaxFiles, when > 0, bounds the file IDs this node accepts in
	// incoming deltas: a delta referencing a file ID >= MaxFiles is
	// rejected before any state is held. Deployments with a file catalog
	// set this to the catalog size so remote state can never reference
	// files the local catalog cannot resolve; 0 accepts any wire-legal ID
	// (matching a catalog-less server's observe path).
	MaxFiles int

	// Incarnation identifies this process lifetime; 0 means derive one
	// from the clock. Receivers discard held state when a sender's
	// incarnation changes, so it must differ across restarts.
	Incarnation uint64
	// Seed seeds the jitter RNG; 0 derives it from the incarnation.
	Seed int64
	// Logf, when set, receives one line per peer state transition.
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.BreakerFailures <= 0 {
		cfg.BreakerFailures = 5
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 5 * time.Second
	}
	if cfg.Incarnation == 0 {
		cfg.Incarnation = uint64(time.Now().UnixNano()) | 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = int64(cfg.Incarnation)
	}
	return cfg
}

// backoffMin..backoffMax bound the exponential retry backoff after
// failures; actual waits are jittered.
const (
	backoffMin = 100 * time.Millisecond
	backoffMax = 10 * time.Second
)

// Breaker states, in escalation order.
const (
	breakerClosed = iota
	breakerHalfOpen
	breakerOpen
)

func breakerName(s int) string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "open"
	}
}

// peer is the sender-side view of one peer: how much of our state it has
// acknowledged, and how its exchanges have been going.
type peer struct {
	addr string

	mu          sync.Mutex
	site        string // learned from acks
	acked       uint64 // our state version the peer confirmed holding
	consecFails int
	breaker     int
	openUntil   time.Time
	lastOK      time.Time
	lastErr     string
	exchanges   int64
	failures    int64
	trips       int64 // breaker open transitions
}

// remoteSite is the receiver-side held state for one remote site.
type remoteSite struct {
	inc      uint64
	version  uint64
	observed int64
	groups   map[sigKey]heldGroup
	part     *core.Partition // built at apply time; nil only before first apply
}

// heldGroup is one group of a remote site's state.
type heldGroup struct {
	requests int
	files    []trace.FileID
}

// Node is one federation participant.
type Node struct {
	cfg   Config
	eng   *core.Engine
	peers []*peer

	mu      sync.Mutex
	remotes map[string]*remoteSite

	mergedMu  sync.Mutex
	mergedKey string
	merged    *core.Partition

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	wg        sync.WaitGroup
}

// NewNode validates cfg and returns a node. Exchange loops start with
// Start; HandleExchange works immediately.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Site == "" {
		return nil, fmt.Errorf("fed: config requires a site name")
	}
	if len(cfg.Site) > maxSiteName {
		return nil, fmt.Errorf("fed: site name longer than %d bytes", maxSiteName)
	}
	if cfg.Self == nil {
		return nil, fmt.Errorf("fed: config requires an engine")
	}
	if len(cfg.Peers) > 0 && cfg.Transport == nil {
		return nil, fmt.Errorf("fed: peers configured without a transport")
	}
	seen := map[string]bool{}
	for _, p := range cfg.Peers {
		if p == "" {
			return nil, fmt.Errorf("fed: empty peer address")
		}
		if seen[p] {
			return nil, fmt.Errorf("fed: duplicate peer address %q", p)
		}
		seen[p] = true
	}
	c := cfg.withDefaults()
	n := &Node{
		cfg:     c,
		eng:     c.Self,
		remotes: make(map[string]*remoteSite),
		stop:    make(chan struct{}),
	}
	for _, addr := range c.Peers {
		n.peers = append(n.peers, &peer{addr: addr})
	}
	return n, nil
}

// Start launches one exchange loop per peer. Safe to call once.
func (n *Node) Start() {
	n.startOnce.Do(func() {
		for _, p := range n.peers {
			n.wg.Add(1)
			go n.runPeer(p)
		}
	})
}

// Stop terminates the exchange loops and waits for them. Safe to call
// concurrently and more than once.
func (n *Node) Stop() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.wg.Wait()
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// runPeer is one peer's exchange loop: steady-interval exchanges, jittered
// exponential backoff while failing, and cooldown-length sleeps while the
// breaker is open.
func (n *Node) runPeer(p *peer) {
	defer n.wg.Done()
	h := fnv.New64a()
	h.Write([]byte(p.addr))
	rng := rand.New(rand.NewSource(n.cfg.Seed ^ int64(h.Sum64())))
	for {
		d := n.nextDelay(p, rng)
		select {
		case <-n.stop:
			return
		case <-time.After(d):
		}
		n.ExchangePeer(p.addr)
	}
}

// nextDelay computes how long the loop should sleep before the next
// exchange attempt, based on the peer's failure state.
func (n *Node) nextDelay(p *peer, rng *rand.Rand) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	jitter := 0.5 + rng.Float64() // 0.5x..1.5x
	switch {
	case p.breaker == breakerOpen:
		if remaining := time.Until(p.openUntil); remaining > 0 {
			return remaining
		}
		return backoffMin
	case p.consecFails > 0:
		d := backoffMin << uint(min(p.consecFails-1, 20))
		if d > backoffMax || d <= 0 {
			d = backoffMax
		}
		return time.Duration(float64(d) * jitter)
	default:
		return time.Duration(float64(n.cfg.Interval) * jitter)
	}
}

// ExchangePeer performs one synchronous exchange with the named peer,
// honoring its breaker state: while open and cooling down it does nothing.
// Unknown addresses are ignored. Exposed so tests and callers can drive
// rounds deterministically; the background loops call it too.
func (n *Node) ExchangePeer(addr string) {
	for _, p := range n.peers {
		if p.addr == addr {
			n.exchangeOnce(p)
			return
		}
	}
}

// ExchangeAll performs one synchronous exchange with every peer.
func (n *Node) ExchangeAll() {
	for _, p := range n.peers {
		n.exchangeOnce(p)
	}
}

func (n *Node) exchangeOnce(p *peer) {
	p.mu.Lock()
	if p.breaker == breakerOpen {
		if time.Now().Before(p.openUntil) {
			p.mu.Unlock()
			return
		}
		p.breaker = breakerHalfOpen
		n.logf("fed: peer %s: breaker half-open, probing", p.addr)
	}
	from := p.acked
	p.mu.Unlock()

	st := n.eng.ExportState()
	if from > st.Version {
		// A peer can only claim a version ahead of us if it still holds a
		// previous incarnation's state; resend everything.
		from = 0
	}
	body := encodeDelta(buildDelta(n.cfg.Site, n.cfg.Incarnation, from, st))
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.Timeout)
	resp, err := n.cfg.Transport.Exchange(ctx, p.addr, body)
	cancel()
	var a *ack
	if err == nil {
		a, err = decodeAck(resp)
	}
	if err == nil && a.Site == n.cfg.Site {
		err = fmt.Errorf("peer %s answered with our own site name %q", p.addr, a.Site)
	}

	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.exchanges++
	if err != nil {
		p.failures++
		p.consecFails++
		p.lastErr = err.Error()
		if p.breaker == breakerHalfOpen || (p.breaker == breakerClosed && p.consecFails >= n.cfg.BreakerFailures) {
			p.breaker = breakerOpen
			p.openUntil = now.Add(n.cfg.BreakerCooldown)
			p.trips++
			n.logf("fed: peer %s: breaker open after %d consecutive failures (%v)", p.addr, p.consecFails, err)
		}
		return
	}
	if p.breaker != breakerClosed {
		n.logf("fed: peer %s: breaker closed", p.addr)
	}
	p.breaker = breakerClosed
	p.consecFails = 0
	p.lastOK = now
	p.lastErr = ""
	p.site = a.Site
	p.acked = a.Held
}

// HandleExchange processes one incoming delta and returns the ack bytes.
// An error means the delta was malformed (transport-level rejection); a
// valid delta that cannot be applied still produces an ack telling the
// sender what to resend.
func (n *Node) HandleExchange(body []byte) ([]byte, error) {
	d, err := decodeDelta(body)
	if err != nil {
		return nil, err
	}
	if d.Site == n.cfg.Site {
		return nil, fmt.Errorf("fed: delta claims our own site name %q", d.Site)
	}
	// Wire decoding bounds file IDs only by the format's own ceiling; the
	// local deployment may know far fewer files. Reject such deltas before
	// holding any state, so merged partitions never reference files the
	// local catalog cannot resolve.
	if max := n.cfg.MaxFiles; max > 0 {
		for i := range d.Records {
			for _, f := range d.Records[i].Files {
				if int(f) >= max {
					return nil, fmt.Errorf("fed: delta from site %q references file ID %d outside the local catalog of %d files", d.Site, f, max)
				}
			}
		}
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	r := n.remotes[d.Site]
	if r == nil {
		r = &remoteSite{}
		n.remotes[d.Site] = r
	}
	if r.inc != d.Incarnation {
		// The sender restarted (or this is first contact): whatever we
		// hold is from a dead incarnation. Drop it and re-sync from zero.
		r.inc = d.Incarnation
		r.reset()
	}

	status := byte(ackApplied)
	switch {
	case d.To <= r.version:
		status = ackCurrent // duplicate or reordered old delta
	case d.From > r.version:
		status = ackStale // we hold too little; sender must widen the delta
	default:
		if err := r.apply(d); err != nil {
			// Structurally valid wire bytes but semantically inconsistent
			// state (should not happen with a correct peer). Drop the held
			// state and re-sync from zero rather than serving bad merges.
			n.logf("fed: site %s: rejecting delta %d..%d: %v", d.Site, d.From, d.To, err)
			r.reset()
			status = ackStale
		}
	}
	return encodeAck(&ack{Site: n.cfg.Site, Held: r.version, Status: status}), nil
}

func (r *remoteSite) reset() {
	r.version = 0
	r.observed = 0
	r.groups = nil
	r.part = nil
}

// apply patches r from version r.version (in [d.From, d.To)) to d.To: take
// the delta's records, carry over every other live group, drop the rest.
func (r *remoteSite) apply(d *delta) error {
	next := make(map[sigKey]heldGroup, len(d.Live))
	recs := make(map[sigKey]heldGroup, len(d.Records))
	for i := range d.Records {
		g := &d.Records[i]
		recs[sigKey{Lo: g.SigLo, Hi: g.SigHi}] = heldGroup{requests: g.Requests, files: g.Files}
	}
	for _, s := range d.Live {
		if g, ok := recs[s]; ok {
			next[s] = g
			continue
		}
		g, held := r.groups[s]
		if !held {
			return fmt.Errorf("live signature %016x%016x neither held nor in the delta", s.Hi, s.Lo)
		}
		next[s] = g
	}
	if len(next) != len(d.Live) {
		return fmt.Errorf("duplicate live signatures (%d distinct of %d)", len(next), len(d.Live))
	}
	fcs := make([]core.Filecule, 0, len(next))
	for _, g := range next {
		fcs = append(fcs, core.Filecule{Files: g.files, Requests: g.requests})
	}
	part := core.NewPartition(fcs)
	if err := part.Validate(); err != nil {
		return err
	}
	r.groups = next
	r.version = d.To
	r.observed = d.Observed
	r.part = part
	return nil
}

// Merged returns the node's best current view of the global partition: the
// common refinement of the local engine's partition and every held remote
// site state. The result is cached and recomputed only when any input
// version moves.
func (n *Node) Merged() *core.Partition {
	localVersion := n.eng.Version()

	n.mu.Lock()
	sites := make([]string, 0, len(n.remotes))
	for s := range n.remotes {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	key := fmt.Sprintf("l:%d", localVersion)
	parts := make([]*core.Partition, 0, len(sites))
	for _, s := range sites {
		r := n.remotes[s]
		if r.part == nil {
			continue
		}
		// %q delimits the (peer-controlled) site name unambiguously, so
		// names containing ':' or '|' cannot collide distinct state
		// combinations into one cache key.
		key += fmt.Sprintf("|%q:%d:%d", s, r.inc, r.version)
		parts = append(parts, r.part)
	}
	n.mu.Unlock()

	n.mergedMu.Lock()
	defer n.mergedMu.Unlock()
	// The local engine may have observed between the Version read and the
	// Snapshot below; that only makes the result fresher than the key
	// claims, and the next call recomputes.
	if n.merged != nil && n.mergedKey == key {
		return n.merged
	}
	merged := n.eng.Snapshot()
	for _, p := range parts {
		merged = core.Combine(merged, p)
	}
	n.mergedKey = key
	n.merged = merged
	return merged
}

// MergedObserved returns the total job count behind Merged: local observes
// plus every held remote site's observed count.
func (n *Node) MergedObserved() int64 {
	total := n.eng.Observed()
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, r := range n.remotes {
		total += r.observed
	}
	return total
}

// SiteState describes one remote site's held state.
type SiteState struct {
	Site     string
	Version  uint64
	Observed int64
	Groups   int
}

// Sites returns the held remote site states, sorted by site name.
func (n *Node) Sites() []SiteState {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]SiteState, 0, len(n.remotes))
	for s, r := range n.remotes {
		out = append(out, SiteState{Site: s, Version: r.version, Observed: r.observed, Groups: len(r.groups)})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Site < out[b].Site })
	return out
}

// PeerHealth is one peer's sender-side health snapshot.
type PeerHealth struct {
	Addr                string
	Site                string // empty until the first successful exchange
	Healthy             bool   // at least one success and not currently failing
	Breaker             string
	BreakerState        int // 0 closed, 1 half-open, 2 open (gauge encoding)
	ConsecutiveFailures int
	AckedVersion        uint64
	Exchanges           int64
	Failures            int64
	BreakerTrips        int64
	LastError           string
	LastSuccess         time.Time
}

// Health returns a snapshot per configured peer, in configuration order.
func (n *Node) Health() []PeerHealth {
	out := make([]PeerHealth, 0, len(n.peers))
	for _, p := range n.peers {
		p.mu.Lock()
		out = append(out, PeerHealth{
			Addr:                p.addr,
			Site:                p.site,
			Healthy:             !p.lastOK.IsZero() && p.consecFails == 0,
			Breaker:             breakerName(p.breaker),
			BreakerState:        p.breaker,
			ConsecutiveFailures: p.consecFails,
			AckedVersion:        p.acked,
			Exchanges:           p.exchanges,
			Failures:            p.failures,
			BreakerTrips:        p.trips,
			LastError:           p.lastErr,
			LastSuccess:         p.lastOK,
		})
		p.mu.Unlock()
	}
	return out
}

// Degraded reports whether the federation is running in degraded mode —
// any peer that has never completed an exchange or is currently failing —
// together with one reason per unhealthy peer. A degraded node still
// serves: its merged partition is provably a coarsening of the global
// truth, never a corruption of it.
func (n *Node) Degraded() (bool, []string) {
	var reasons []string
	for _, h := range n.Health() {
		switch {
		case h.Healthy:
		case h.LastSuccess.IsZero():
			reasons = append(reasons, fmt.Sprintf("peer %s: no successful exchange yet", h.Addr))
		default:
			reasons = append(reasons, fmt.Sprintf("peer %s: breaker %s after %d consecutive failures: %s",
				h.Addr, h.Breaker, h.ConsecutiveFailures, h.LastError))
		}
	}
	return len(reasons) > 0, reasons
}
