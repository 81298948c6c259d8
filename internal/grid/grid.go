// Package grid is the wide-area substrate behind the paper's resource-
// management discussion (Sections 5 and 6): the central mass-storage system
// (the FermiLab tape store / SAM cache) behind the hub site, and the
// collaborating sites, each with a disk cache and a pinned replica set, on
// one fluid transfer Network. A flow is limited at both of its ends; the
// mass store's uplink is unbounded, so a transfer out of it is limited only
// by the fair share of the hub's downlink.
//
// System replays a trace's jobs against the sites and measures the WAN
// traffic and stage latency that data-placement decisions (caching
// granularity, proactive replication, replica placement) produce. A site
// reads a file it pins or caches locally; any other file is a miss, fetched
// the way a SAM station fetches it: from another station's pinned copy if
// there is one, else from the mass store, which a remote site reaches
// through the hub's link.
package grid

import (
	"fmt"
	"math"
	"time"

	"filecule/internal/cache"
	"filecule/internal/sim"
	"filecule/internal/trace"
)

// Config parameterizes the grid simulation.
type Config struct {
	// SiteBandwidth is a site's WAN link in bytes per second, each way:
	// the downlink is fair-shared by the transfers into the site, the
	// uplink by those it serves to other sites from pinned replicas.
	SiteBandwidth float64
	// HubSiteBandwidth is the hub site's link (local access to the mass
	// store); it should be much larger than SiteBandwidth. Every remote
	// miss that no other site pins crosses its uplink.
	HubSiteBandwidth float64
	// SiteCacheBytes is each site's disk cache capacity: an LRU of files.
	// Pinned replicas live outside it.
	SiteCacheBytes int64
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if !finitePositive(c.SiteBandwidth, c.HubSiteBandwidth) {
		return fmt.Errorf("grid: bandwidths must be finite and > 0")
	}
	if c.SiteCacheBytes <= 0 {
		return fmt.Errorf("grid: SiteCacheBytes must be > 0")
	}
	return nil
}

// finitePositive reports whether every capacity is a finite number above zero.
func finitePositive(caps ...float64) bool {
	for _, c := range caps {
		if !(c > 0) || math.IsInf(c, 1) {
			return false
		}
	}
	return true
}

// Metrics aggregates a replay's outcome.
type Metrics struct {
	Jobs        int
	JobsStalled int // jobs that had to wait on transfers (any site)
	// RemoteStalled counts stalled jobs at non-hub sites only — the
	// population replication is meant to help.
	RemoteStalled int
	// HubBytes and PeerBytes are what non-hub sites fetched over the WAN:
	// through the hub's link and from other sites' pinned replicas. The
	// hub's fetches from its local mass store count in neither.
	HubBytes   int64
	PeerBytes  int64
	LocalBytes int64 // bytes a job found on its site, cached or pinned
	TotalStage time.Duration
	MaxStage   time.Duration
}

// WANBytes returns the bytes pulled over wide-area links.
func (m Metrics) WANBytes() int64 { return m.HubBytes + m.PeerBytes }

// HubShare returns the fraction of WAN bytes that came through the hub.
func (m Metrics) HubShare() float64 {
	if m.WANBytes() == 0 {
		return 0
	}
	return float64(m.HubBytes) / float64(m.WANBytes())
}

// MeanStage returns the mean stage latency per job.
func (m Metrics) MeanStage() time.Duration {
	if m.Jobs == 0 {
		return 0
	}
	return m.TotalStage / time.Duration(m.Jobs)
}

// System is the simulated grid.
type System struct {
	tr     *trace.Trace
	kernel *sim.Kernel
	net    *Network
	store  *Endpoint // the mass store: unbounded uplink
	sites  []*site
	hub    trace.SiteID
	m      Metrics
	// seen[f] == m.Jobs marks f as already staged by the current job;
	// pending holds the job's missed bytes per source, indexed by site,
	// with the mass store last.
	seen    []int
	pending []int64
}

// site is one participating institution: a disk cache and a pinned replica
// set behind a WAN link.
type site struct {
	link   *Endpoint
	cache  *cache.Sim
	pinned []bool // by file; nil until the first Pin
	clock  int64  // logical access counter for the cache policy
}

func (st *site) pins(f trace.FileID) bool { return st.pinned != nil && st.pinned[f] }

// hubDomain is the mass store's domain: FermiLab's, in the DZero trace.
const hubDomain = ".gov"

// Hub returns the trace's hub site: the first site in hubDomain, which need
// not be site 0 (the busiest); with no such site, site 0.
func Hub(t *trace.Trace) trace.SiteID {
	for i := range t.Sites {
		if t.Sites[i].Domain == hubDomain {
			return trace.SiteID(i)
		}
	}
	return 0
}

// New builds a System for the trace, its hub at Hub(t).
func New(t *trace.Trace, cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	start, _, ok := t.Span()
	if !ok {
		return nil, fmt.Errorf("grid: trace has no jobs")
	}
	s := &System{tr: t, hub: Hub(t), kernel: sim.New(start), seen: make([]int, len(t.Files)),
		pending: make([]int64, len(t.Sites)+1)}
	s.net = NewNetwork(s.kernel)
	s.store = s.net.NewEndpoint(math.Inf(1), math.Inf(1))
	for i := range t.Sites {
		bw := cfg.SiteBandwidth
		if trace.SiteID(i) == s.hub {
			bw = cfg.HubSiteBandwidth
		}
		s.sites = append(s.sites, &site{
			link:  s.net.NewEndpoint(bw, bw),
			cache: cache.NewSim(t, cache.NewFileGranularity(t), cache.NewLRU(), cfg.SiteCacheBytes),
		})
	}
	return s, nil
}

// Hub returns the hub site, the one on the mass store.
func (s *System) Hub() trace.SiteID { return s.hub }

// Warm loads files into a site's cache without counting metrics, evicting
// as its budget requires — the replica-placement primitive used by
// internal/replica.
func (s *System) Warm(site trace.SiteID, files []trace.FileID) {
	st := s.sites[site]
	for _, f := range files {
		st.clock++
		st.cache.Preload(f, st.clock)
	}
}

// Pin installs replicas of the files at a site, outside its cache budget:
// a pinned file is read locally, served to other sites' misses, and never
// evicted.
func (s *System) Pin(site trace.SiteID, files []trace.FileID) {
	st := s.sites[site]
	if st.pinned == nil {
		st.pinned = make([]bool, len(s.tr.Files))
	}
	for _, f := range files {
		st.pinned[f] = true
	}
}

// Replay schedules every job at its start time and runs the simulation to
// completion, returning the metrics. Jobs with every input on site start
// immediately.
func (s *System) Replay() Metrics {
	for i := range s.tr.Jobs {
		j := &s.tr.Jobs[i]
		s.kernel.At(j.Start, func() { s.stage(j) })
	}
	s.kernel.Run()
	return s.m
}

// stage runs one job's data staging. It reads the job's distinct files in
// order, each as the site holds it at that moment, so a file the job's own
// earlier read evicted is fetched again.
func (s *System) stage(j *trace.Job) {
	st, hub := s.sites[j.Site], j.Site == s.hub
	s.m.Jobs++
	stalled := false
	for _, f := range j.Files {
		if s.seen[f] == s.m.Jobs {
			continue
		}
		s.seen[f] = s.m.Jobs
		size := s.tr.Files[f].Size
		if st.pins(f) {
			s.m.LocalBytes += size
			continue
		}
		st.clock++
		if st.cache.Access(f, st.clock) {
			s.m.LocalBytes += size
			continue
		}
		src := len(s.sites)
		if !hub {
			if src = s.source(f); src == int(s.hub) {
				s.m.HubBytes += size
			} else {
				s.m.PeerBytes += size
			}
		}
		s.pending[src] += size
		stalled = stalled || size > 0
	}
	if !stalled {
		return
	}
	s.m.JobsStalled++
	if !hub {
		s.m.RemoteStalled++
	}
	s.fetch(st.link)
}

// source picks where a non-hub site fetches a miss of f from: the non-hub
// site pinning f with the fewest outbound flows (ties to the lowest ID),
// else the hub.
func (s *System) source(f trace.FileID) int {
	best := int(s.hub)
	for i, st := range s.sites {
		if i != int(s.hub) && st.pins(f) &&
			(best == int(s.hub) || st.link.outbound < s.sites[best].link.outbound) {
			best = i
		}
	}
	return best
}

// fetch starts one flow into dst from each source of the current job's
// misses; the job's stage latency is its slowest flow's.
func (s *System) fetch(dst *Endpoint) {
	start, left := s.kernel.Now(), 0
	done := func(*Flow) {
		if left--; left == 0 {
			stage := s.kernel.Now().Sub(start)
			s.m.TotalStage += stage
			s.m.MaxStage = max(s.m.MaxStage, stage)
		}
	}
	for src, n := range s.pending {
		if n == 0 {
			continue
		}
		s.pending[src] = 0
		from := s.store
		if src < len(s.sites) {
			from = s.sites[src].link
		}
		left++
		s.net.Start(from, dst, n, done)
	}
}
