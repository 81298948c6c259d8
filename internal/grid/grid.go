package grid

import (
	"fmt"
	"time"

	"filecule/internal/cache"
	"filecule/internal/sim"
	"filecule/internal/trace"
)

// Config parameterizes the grid simulation.
type Config struct {
	// HubBandwidth is the aggregate egress of the central store in bytes
	// per second (shared per-site via each site's link instead of
	// modelled separately; the hub is assumed well-provisioned, the
	// site's WAN link is the bottleneck — the DZero reality where remote
	// collaborators sit behind trans-Atlantic paths).
	SiteBandwidth float64
	// HubSiteBandwidth overrides the bandwidth of the hub site's "link"
	// (local access to the mass store); it should be much larger than
	// SiteBandwidth.
	HubSiteBandwidth float64
	// SiteCacheBytes is each site's disk cache capacity: an LRU of files.
	SiteCacheBytes int64
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.SiteBandwidth <= 0 || c.HubSiteBandwidth <= 0 {
		return fmt.Errorf("grid: bandwidths must be > 0")
	}
	if c.SiteCacheBytes <= 0 {
		return fmt.Errorf("grid: SiteCacheBytes must be > 0")
	}
	return nil
}

// Metrics aggregates a replay's outcome.
type Metrics struct {
	Jobs        int
	JobsStalled int // jobs that had to wait on transfers (any site)
	// RemoteStalled counts stalled jobs at non-hub sites only — the
	// population replication is meant to help.
	RemoteStalled int
	// WANBytes are bytes pulled over true wide-area links (non-hub
	// sites); HubBytes are the hub's fetches from its local mass store.
	WANBytes      int64
	HubBytes      int64
	LocalBytes    int64 // bytes served from site caches
	TotalStage    time.Duration
	MaxStage      time.Duration
	PerSiteWAN    map[trace.SiteID]int64
	PerSiteJobs   map[trace.SiteID]int
	TransfersUsed int
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
	cfg    Config
	tr     *trace.Trace
	kernel *sim.Kernel
	sites  []*Site
	m      Metrics
}

// Site is one participating institution: a disk cache behind a WAN link.
type Site struct {
	ID    trace.SiteID
	Hub   bool
	Link  *Link
	Store *cache.Sim
	clock int64 // logical access counter for the cache policy
}

// New builds a System for the trace. Site 0's domain (the busiest, FermiLab
// in the calibrated workload) is NOT automatically the hub; the hub is the
// site whose domain matches hubDomain (usually ".gov"); pass "" to make
// site 0 the hub.
func New(t *trace.Trace, cfg Config, hubDomain string) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	start, _, ok := t.Span()
	if !ok {
		return nil, fmt.Errorf("grid: trace has no jobs")
	}
	s := &System{cfg: cfg, tr: t, kernel: sim.New(start)}
	hubbed := false
	for i := range t.Sites {
		bw := cfg.SiteBandwidth
		hub := false
		if (hubDomain == "" && i == 0) || (hubDomain != "" && t.Sites[i].Domain == hubDomain && !hubbed) {
			bw = cfg.HubSiteBandwidth
			hub = true
			hubbed = true
		}
		s.sites = append(s.sites, &Site{
			ID:    trace.SiteID(i),
			Hub:   hub,
			Link:  NewLink(s.kernel, bw),
			Store: cache.NewSim(t, cache.NewFileGranularity(t), cache.NewLRU(), cfg.SiteCacheBytes),
		})
	}
	s.m.PerSiteWAN = make(map[trace.SiteID]int64)
	s.m.PerSiteJobs = make(map[trace.SiteID]int)
	return s, nil
}

// Kernel exposes the simulation kernel (for tests and custom schedules).
func (s *System) Kernel() *sim.Kernel { return s.kernel }

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
// bytes from the hub over the site's link; jobs with fully-cached inputs
// start immediately.
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
	s.m.PerSiteJobs[j.Site]++
	s.m.LocalBytes += served
	if missing == 0 {
		return
	}
	s.m.JobsStalled++
	if site.Hub {
		s.m.HubBytes += missing
	} else {
		s.m.RemoteStalled++
		s.m.WANBytes += missing
	}
	s.m.PerSiteWAN[j.Site] += missing
	s.m.TransfersUsed++
	site.Link.Start(missing, func(t *Transfer) {
		stage := s.kernel.Now().Sub(t.Started())
		s.m.TotalStage += stage
		if stage > s.m.MaxStage {
			s.m.MaxStage = stage
		}
	})
}
