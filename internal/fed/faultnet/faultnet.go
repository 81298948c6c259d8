// Package faultnet wraps a fed.Transport with deterministic fault
// injection: dropped, delayed, duplicated, and corrupted deltas, plus
// scheduled partitions — the failure modes a federation must shrug off.
// Every decision comes from a per-peer PRNG seeded with Seed and the peer
// address, and advances one step per Exchange call, so a given (seed, call
// sequence) replays the exact same fault schedule regardless of timing.
package faultnet

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"filecule/internal/fed"
)

// Plan is a deterministic fault schedule. Probabilities are per Exchange
// call, evaluated in the order partition, drop, corrupt, duplicate, delay.
type Plan struct {
	// Seed drives every random decision.
	Seed int64

	// Drop is the probability a call fails outright without delivery.
	Drop float64
	// Corrupt is the probability one byte of the delta is flipped before
	// delivery (exercising the receiver's CRC/structural validation). The
	// corrupted call still reaches the peer; the injected error, if any,
	// comes from the peer rejecting the bytes.
	Corrupt float64
	// Duplicate is the probability the delta is delivered twice
	// (exercising idempotent application); the first response is thrown
	// away.
	Duplicate float64
	// Delay is the probability a delivery is delayed by up to DelayMax.
	Delay    float64
	DelayMax time.Duration

	// HealAfter, when positive, stops injecting faults at a peer after
	// that many Exchange calls to it — the "eventual connectivity" the
	// convergence differential requires. Zero or negative means faults
	// never heal.
	HealAfter int

	// Partitioned, when set, blocks a call outright (before any other
	// fault) when it returns true for the peer and per-peer call index
	// (0-based). It is consulted even after HealAfter.
	Partitioned func(peer string, call int) bool
}

// Net is the fault-injecting transport.
type Net struct {
	inner fed.Transport
	plan  Plan

	mu    sync.Mutex
	peers map[string]*peerState
}

type peerState struct {
	rng   *rand.Rand
	calls int
}

// Wrap returns a Transport that applies plan to every exchange through
// inner.
func Wrap(inner fed.Transport, plan Plan) *Net {
	return &Net{inner: inner, plan: plan, peers: make(map[string]*peerState)}
}

// decision is one call's precomputed fault outcome, drawn under the lock
// so concurrent exchanges to different peers stay deterministic per peer.
type decision struct {
	partitioned bool
	drop        bool
	corrupt     int // byte index to flip, -1 for none
	duplicate   bool
	delay       time.Duration
}

func (n *Net) decide(peer string, deltaLen int) decision {
	n.mu.Lock()
	defer n.mu.Unlock()
	ps := n.peers[peer]
	if ps == nil {
		h := fnv.New64a()
		h.Write([]byte(peer))
		ps = &peerState{rng: rand.New(rand.NewSource(n.plan.Seed ^ int64(h.Sum64())))}
		n.peers[peer] = ps
	}
	call := ps.calls
	ps.calls++

	d := decision{corrupt: -1}
	if n.plan.Partitioned != nil && n.plan.Partitioned(peer, call) {
		d.partitioned = true
	}
	healed := n.plan.HealAfter > 0 && call >= n.plan.HealAfter
	// Draw the same number of variates whether or not faults apply, so a
	// peer's schedule is a pure function of its call count.
	pDrop := ps.rng.Float64()
	pCorrupt := ps.rng.Float64()
	pDup := ps.rng.Float64()
	pDelay := ps.rng.Float64()
	fDelay := ps.rng.Float64()
	iCorrupt := ps.rng.Intn(1 << 20)
	if healed {
		return d
	}
	if pDrop < n.plan.Drop {
		d.drop = true
	}
	if pCorrupt < n.plan.Corrupt && deltaLen > 0 {
		d.corrupt = iCorrupt % deltaLen
	}
	if pDup < n.plan.Duplicate {
		d.duplicate = true
	}
	if pDelay < n.plan.Delay && n.plan.DelayMax > 0 {
		d.delay = time.Duration(fDelay * float64(n.plan.DelayMax))
	}
	return d
}

// Exchange implements fed.Transport with faults applied.
func (n *Net) Exchange(ctx context.Context, peer string, delta []byte) ([]byte, error) {
	d := n.decide(peer, len(delta))
	if d.partitioned {
		return nil, fmt.Errorf("faultnet: partitioned from %s", peer)
	}
	if d.drop {
		return nil, fmt.Errorf("faultnet: dropped delta to %s", peer)
	}
	if d.delay > 0 {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(d.delay):
		}
	}
	payload := delta
	if d.corrupt >= 0 {
		payload = append([]byte(nil), delta...)
		payload[d.corrupt] ^= 0x20
	}
	if d.duplicate {
		// First delivery's response is lost; the retry must be harmless.
		if _, err := n.inner.Exchange(ctx, peer, payload); err != nil {
			return nil, fmt.Errorf("faultnet: duplicated first send: %w", err)
		}
	}
	return n.inner.Exchange(ctx, peer, payload)
}
