package swarm

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Scenario describes a single-torrent transfer workload for the fluid
// model: one always-on origin seed plus leechers arriving over time, all
// wanting the same FileBytes (a filecule).
type Scenario struct {
	FileBytes int64
	// SeedUpload is the origin's upload capacity in bytes/second.
	SeedUpload float64
	// PeerUpload / PeerDownload are per-peer capacities in bytes/second.
	PeerUpload   float64
	PeerDownload float64
	// Eta is BitTorrent's sharing effectiveness in [0,1]: the fraction
	// of peer upload capacity actually usable (chunk availability is
	// imperfect). Qiu & Srikant measure it close to 1 for large swarms;
	// 0.85 is a reasonable default.
	Eta float64
	// Arrivals are leecher arrival offsets from the scenario start,
	// in any order.
	Arrivals []time.Duration
}

// Validate checks the scenario parameters.
func (s *Scenario) Validate() error {
	if s.FileBytes <= 0 {
		return fmt.Errorf("swarm: FileBytes must be > 0")
	}
	if s.SeedUpload <= 0 || s.PeerDownload <= 0 {
		return fmt.Errorf("swarm: SeedUpload and PeerDownload must be > 0")
	}
	if s.PeerUpload < 0 {
		return fmt.Errorf("swarm: PeerUpload must be >= 0")
	}
	if s.Eta < 0 || s.Eta > 1 || math.IsNaN(s.Eta) {
		return fmt.Errorf("swarm: Eta %v outside [0,1]", s.Eta)
	}
	if len(s.Arrivals) == 0 {
		return fmt.Errorf("swarm: need at least one leecher")
	}
	for _, a := range s.Arrivals {
		if a < 0 {
			return fmt.Errorf("swarm: negative arrival offset %v", a)
		}
	}
	return nil
}

// Result summarizes per-leecher download completions.
type Result struct {
	// Completions[i] is the download duration of the i-th arrival
	// (ordered by arrival time).
	Completions []time.Duration
	Mean, Max   time.Duration
	// PeakDownloads is the most leechers downloading at one instant. A
	// download that completes as another arrives does not overlap it.
	PeakDownloads int
}

func newResult(times []time.Duration, peak int) Result {
	r := Result{Completions: times, PeakDownloads: peak}
	var sum time.Duration
	for _, t := range times {
		sum += t
		if t > r.Max {
			r.Max = t
		}
	}
	if len(times) > 0 {
		r.Mean = sum / time.Duration(len(times))
	}
	return r
}

// Speedup returns how much faster (mean download) this result is than the
// baseline; >1 means faster.
func (r Result) Speedup(baseline Result) float64 {
	if r.Mean == 0 {
		return math.Inf(1)
	}
	return float64(baseline.Mean) / float64(r.Mean)
}

// SimulateSwarm runs the fluid BitTorrent model (after Qiu & Srikant): with
// n active leechers, aggregate service capacity is
//
//	SeedUpload + Eta*PeerUpload*(n-1)    (leechers serve each other)
//
// split equally, capped by each leecher's download capacity. Departure is
// selfish: a leecher stops uploading when its own download completes.
func SimulateSwarm(s Scenario) Result {
	return simulateFluid(s, func(n int) float64 {
		return s.SeedUpload + s.Eta*s.PeerUpload*float64(n-1)
	})
}

// SimulateClientServer runs the baseline: every leecher downloads from the
// origin only, which divides its upload fairly.
func SimulateClientServer(s Scenario) Result {
	return simulateFluid(s, func(int) float64 { return s.SeedUpload })
}

// simulateFluid advances piecewise-constant rates between events (arrivals
// and completions). capacity is only asked about one or more active
// leechers.
func simulateFluid(s Scenario, capacity func(activeLeechers int) float64) Result {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	type leecher struct {
		idx       int
		remaining float64
		arrived   time.Duration
	}
	arrivals := append([]time.Duration(nil), s.Arrivals...)
	sort.Slice(arrivals, func(a, b int) bool { return arrivals[a] < arrivals[b] })

	completions := make([]time.Duration, len(arrivals))
	var active []*leecher
	nextArrival := 0
	peak := 0
	now := time.Duration(0)

	rate := func() float64 {
		n := len(active)
		if n == 0 {
			return 0
		}
		r := capacity(n) / float64(n)
		if r > s.PeerDownload {
			r = s.PeerDownload
		}
		return r
	}

	for nextArrival < len(arrivals) || len(active) > 0 {
		// Next event: arrival or earliest completion.
		r := rate()
		eventAt := time.Duration(math.MaxInt64)
		if nextArrival < len(arrivals) {
			eventAt = arrivals[nextArrival]
		}
		if len(active) > 0 && r > 0 {
			minRemaining := active[0].remaining
			for _, l := range active[1:] {
				if l.remaining < minRemaining {
					minRemaining = l.remaining
				}
			}
			fin := now + time.Duration(math.Ceil(minRemaining/r*float64(time.Second)))
			if fin < eventAt {
				eventAt = fin
			}
		}
		// Advance everyone to the event.
		dt := (eventAt - now).Seconds()
		for _, l := range active {
			l.remaining -= r * dt
			if l.remaining < 0 {
				l.remaining = 0
			}
		}
		now = eventAt
		// Process completions.
		var still []*leecher
		for _, l := range active {
			if l.remaining <= 1e-6 {
				completions[l.idx] = now - l.arrived
			} else {
				still = append(still, l)
			}
		}
		active = still
		// Process arrivals at this instant.
		for nextArrival < len(arrivals) && arrivals[nextArrival] == now {
			active = append(active, &leecher{
				idx:       nextArrival,
				remaining: float64(s.FileBytes),
				arrived:   now,
			})
			nextArrival++
		}
		peak = max(peak, len(active))
	}
	return newResult(completions, peak)
}

// ArrivalsFromIntervals turns entity access intervals into leecher arrival
// offsets relative to the earliest interval — the bridge from the Figure
// 11/12 analysis to the swarm model: each site (or user) becomes one peer
// wanting the filecule at its first access.
func ArrivalsFromIntervals(ivs []Interval) []time.Duration {
	if len(ivs) == 0 {
		return nil
	}
	min := ivs[0].First
	for _, iv := range ivs[1:] {
		if iv.First.Before(min) {
			min = iv.First
		}
	}
	out := make([]time.Duration, len(ivs))
	for i, iv := range ivs {
		out[i] = iv.First.Sub(min)
	}
	return out
}
