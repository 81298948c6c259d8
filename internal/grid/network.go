package grid

import (
	"fmt"
	"math"
	"sort"
	"time"

	"filecule/internal/sim"
)

// Network models transfers that are constrained at both endpoints: a flow
// from A to B progresses at min(A.Up/|A's outbound|, B.Down/|B's inbound|),
// the standard bottleneck approximation of max-min fairness. Rates are
// recomputed globally on every arrival and departure; with the flow counts
// a trace-driven grid produces (thousands), the O(flows) recomputation per
// event is negligible.
type Network struct {
	kernel     *sim.Kernel
	flows      map[*Flow]struct{}
	seq        uint64
	epoch      uint64
	lastUpdate time.Time
}

// Endpoint is one site's connection: independent uplink and downlink
// capacities in bytes/second. A capacity of +Inf is unbounded: a flow out
// of an unbounded uplink is limited by its destination alone.
type Endpoint struct {
	Up, Down float64
	outbound int
	inbound  int
}

// Flow is an in-flight transfer across two endpoints.
type Flow struct {
	src, dst  *Endpoint
	seq       uint64
	remaining float64
	done      func(*Flow)
}

// NewNetwork creates a network driven by the kernel.
func NewNetwork(k *sim.Kernel) *Network {
	return &Network{
		kernel:     k,
		flows:      make(map[*Flow]struct{}),
		lastUpdate: k.Now(),
	}
}

// NewEndpoint registers an endpoint with the given capacities.
func (n *Network) NewEndpoint(up, down float64) *Endpoint {
	if up <= 0 || down <= 0 || math.IsNaN(up) || math.IsNaN(down) {
		panic(fmt.Sprintf("grid: endpoint capacities must be > 0, got %v/%v", up, down))
	}
	return &Endpoint{Up: up, Down: down}
}

// InFlight returns the number of active flows.
func (n *Network) InFlight() int { return len(n.flows) }

// Start begins a transfer of bytes from src to dst; done runs in virtual
// time at completion (inline for zero bytes).
func (n *Network) Start(src, dst *Endpoint, bytes int64, done func(*Flow)) *Flow {
	if src == nil || dst == nil || src == dst {
		panic("grid: flow needs two distinct endpoints")
	}
	if math.IsInf(src.Up, 1) && math.IsInf(dst.Down, 1) {
		panic("grid: flow between two unbounded ends would never drain")
	}
	if bytes < 0 {
		panic(fmt.Sprintf("grid: negative flow size %d", bytes))
	}
	n.seq++
	f := &Flow{src: src, dst: dst, seq: n.seq, remaining: float64(bytes), done: done}
	if bytes == 0 {
		if done != nil {
			done(f)
		}
		return f
	}
	n.progress()
	n.flows[f] = struct{}{}
	src.outbound++
	dst.inbound++
	n.reschedule()
	return f
}

// rate returns a flow's current bottleneck share.
func (n *Network) rate(f *Flow) float64 {
	up := f.src.Up / float64(f.src.outbound)
	down := f.dst.Down / float64(f.dst.inbound)
	return math.Min(up, down)
}

// progress advances every flow to the current time at the rates that held
// since the last change.
func (n *Network) progress() {
	now := n.kernel.Now()
	dt := now.Sub(n.lastUpdate).Seconds()
	n.lastUpdate = now
	if dt <= 0 || len(n.flows) == 0 {
		return
	}
	for f := range n.flows {
		f.remaining -= n.rate(f) * dt
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
}

// reschedule plans the next completion under current rates.
func (n *Network) reschedule() {
	n.epoch++
	if len(n.flows) == 0 {
		return
	}
	var soonest *Flow
	var soonestAt float64
	for f := range n.flows {
		at := f.remaining / n.rate(f)
		if soonest == nil || at < soonestAt ||
			(at == soonestAt && f.seq < soonest.seq) {
			soonest = f
			soonestAt = at
		}
	}
	delay := time.Duration(math.Ceil(soonestAt * float64(time.Second)))
	epoch := n.epoch
	n.kernel.After(delay, func() {
		if epoch != n.epoch {
			return
		}
		n.complete()
	})
}

// complete drains finished flows, replans, then fires callbacks.
func (n *Network) complete() {
	n.progress()
	var finished []*Flow
	for f := range n.flows {
		if f.remaining <= 1e-6 {
			finished = append(finished, f)
		}
	}
	sort.Slice(finished, func(a, b int) bool { return finished[a].seq < finished[b].seq })
	for _, f := range finished {
		delete(n.flows, f)
		f.src.outbound--
		f.dst.inbound--
	}
	n.reschedule()
	for _, f := range finished {
		if f.done != nil {
			f.done(f)
		}
	}
}
