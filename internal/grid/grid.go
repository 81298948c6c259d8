// Package grid is the wide-area substrate behind the paper's resource-
// management discussion (Sections 5 and 6): the central mass-storage system
// (the FermiLab tape store / SAM cache) and the collaborating sites, each
// with a disk cache, on one fluid transfer Network. A flow is limited at
// both of its ends; the mass store's uplink is unbounded, so a transfer
// out of it is limited only by the fair share of the site's downlink.
// Trace-driven stagers replay jobs against the site caches and measure the
// WAN traffic and stage latency that data-placement decisions (caching
// granularity, proactive replication, replica placement) produce: System
// stages every miss from the mass store, PeerSystem from pinned replicas
// at other sites as well.
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
	// SiteBandwidth is a site's WAN downlink in bytes per second, fair-
	// shared by its concurrent transfers out of the mass store (the store
	// is assumed well-provisioned, the site's link is the bottleneck — the
	// DZero reality where remote collaborators sit behind trans-Atlantic
	// paths).
	SiteBandwidth float64
	// HubSiteBandwidth overrides the downlink of the hub site (local
	// access to the mass store); it should be much larger than
	// SiteBandwidth.
	HubSiteBandwidth float64
	// SiteCacheBytes is each site's disk cache capacity: an LRU of files.
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

// hubSite picks the hub, the site that sits on the mass store: the first
// site in hubDomain, else site 0.
func hubSite(t *trace.Trace, hubDomain string) trace.SiteID {
	for i := range t.Sites {
		if hubDomain != "" && t.Sites[i].Domain == hubDomain {
			return trace.SiteID(i)
		}
	}
	return 0
}

// Metrics aggregates a replay's outcome.
type Metrics struct {
	Jobs        int
	JobsStalled int // jobs that had to wait on transfers (any site)
	// RemoteStalled counts stalled jobs at non-hub sites only — the
	// population replication is meant to help.
	RemoteStalled int
	// WANBytes are bytes pulled over true wide-area links (non-hub sites;
	// the hub's fetches from its local mass store are not counted).
	WANBytes   int64
	LocalBytes int64 // bytes served from site caches
	TotalStage time.Duration
	MaxStage   time.Duration
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
	sites  []*Site
	m      Metrics
}

// Site is one participating institution: a disk cache behind a WAN link.
type Site struct {
	ID    trace.SiteID
	Hub   bool
	Link  *Endpoint // its downlink carries every stage-in
	Store *cache.Sim
	clock int64 // logical access counter for the cache policy
}

// New builds a System for the trace. The hub is the first site whose
// domain is hubDomain (usually ".gov"), which need not be site 0 (the
// busiest); with no such site, or hubDomain "", the hub is site 0.
func New(t *trace.Trace, cfg Config, hubDomain string) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	start, _, ok := t.Span()
	if !ok {
		return nil, fmt.Errorf("grid: trace has no jobs")
	}
	s := &System{tr: t, kernel: sim.New(start)}
	s.net = NewNetwork(s.kernel)
	s.store = s.net.NewEndpoint(math.Inf(1), math.Inf(1))
	hub := hubSite(t, hubDomain)
	for i := range t.Sites {
		id, down := trace.SiteID(i), cfg.SiteBandwidth
		if id == hub {
			down = cfg.HubSiteBandwidth
		}
		s.sites = append(s.sites, &Site{
			ID:    id,
			Hub:   id == hub,
			Link:  s.net.NewEndpoint(down, down),
			Store: cache.NewSim(t, cache.NewFileGranularity(t), cache.NewLRU(), cfg.SiteCacheBytes),
		})
	}
	return s, nil
}

// Site returns the site state.
func (s *System) Site(id trace.SiteID) *Site { return s.sites[id] }

// Place warms a site's cache with the given files without counting metrics
// — the replica-placement primitive used by internal/replica.
func (s *System) Place(site trace.SiteID, files []trace.FileID) {
	st := s.sites[site]
	for _, f := range files {
		st.clock++
		st.Store.Preload(f, st.clock)
	}
}

// Replay schedules every job at its start time and runs the simulation to
// completion, returning the metrics. Each job stages its missing input
// bytes from the mass store in one flow into its site; jobs with
// fully-cached inputs start immediately.
func (s *System) Replay() Metrics {
	for i := range s.tr.Jobs {
		j := &s.tr.Jobs[i]
		s.kernel.At(j.Start, func() { s.stage(j) })
	}
	s.kernel.Run()
	return s.m
}

// stage runs one job's data staging.
func (s *System) stage(j *trace.Job) {
	site := s.sites[j.Site]
	before := site.Store.Metrics()
	for _, f := range j.Files {
		site.clock++
		site.Store.Access(f, site.clock)
	}
	after := site.Store.Metrics()

	missing := after.BytesLoaded - before.BytesLoaded
	served := after.BytesRequested - before.BytesRequested - (after.BytesMissed - before.BytesMissed)

	s.m.Jobs++
	s.m.LocalBytes += served
	if missing == 0 {
		return
	}
	s.m.JobsStalled++
	if !site.Hub {
		s.m.RemoteStalled++
		s.m.WANBytes += missing
	}
	s.net.Start(s.store, site.Link, missing, func(f *Flow) {
		stage := s.kernel.Now().Sub(f.Started())
		s.m.TotalStage += stage
		if stage > s.m.MaxStage {
			s.m.MaxStage = stage
		}
	})
}
