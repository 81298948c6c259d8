package grid

import (
	"fmt"
	"sort"
	"time"

	"filecule/internal/cache"
	"filecule/internal/sim"
	"filecule/internal/trace"
)

// PeerSystem is the replica-placement-aware grid: sites can fetch data from
// any peer holding a pinned replica, not only from the hub. It answers
// Section 6's "replica placement algorithms" discussion: where replicas sit
// determines both WAN traffic distribution (hub offload) and stage latency.
//
// Sites keep file-granularity LRU disk caches; replicas installed with
// Place are pinned (never evicted, exempt from the cache budget) so the
// location registry stays truthful — the model of deliberately provisioned
// replica space next to a working cache.
type PeerSystem struct {
	tr     *trace.Trace
	kernel *sim.Kernel
	net    *Network
	sites  []*peerSite
	hub    trace.SiteID
	m      PeerMetrics
}

// PeerConfig parameterizes the peer grid.
type PeerConfig struct {
	// SiteUp/SiteDown are per-site capacities in bytes/second; HubUp is
	// the hub's (mass store) egress.
	SiteUp, SiteDown float64
	HubUp, HubDown   float64
	// SiteCacheBytes is each site's working-cache capacity (pinned
	// replicas live outside it).
	SiteCacheBytes int64
}

// Validate checks the configuration.
func (c *PeerConfig) Validate() error {
	if !finitePositive(c.SiteUp, c.SiteDown, c.HubUp, c.HubDown) {
		return fmt.Errorf("grid: peer capacities must be finite and > 0")
	}
	if c.SiteCacheBytes <= 0 {
		return fmt.Errorf("grid: SiteCacheBytes must be > 0")
	}
	return nil
}

// PeerMetrics aggregates a peer-grid replay.
type PeerMetrics struct {
	Jobs    int
	Stalled int
	// HubBytes came from the hub's mass store; PeerBytes from pinned
	// replicas at other sites; LocalBytes were already on site (cache or
	// pinned replica).
	HubBytes   int64
	PeerBytes  int64
	LocalBytes int64
	TotalStage time.Duration
	MaxStage   time.Duration
}

// MeanStage returns mean stage latency per job.
func (m PeerMetrics) MeanStage() time.Duration {
	if m.Jobs == 0 {
		return 0
	}
	return m.TotalStage / time.Duration(m.Jobs)
}

// HubShare returns the fraction of transferred bytes served by the hub.
func (m PeerMetrics) HubShare() float64 {
	total := m.HubBytes + m.PeerBytes
	if total == 0 {
		return 0
	}
	return float64(m.HubBytes) / float64(total)
}

type peerSite struct {
	id     trace.SiteID
	ep     *Endpoint
	store  *cache.Sim
	pinned map[trace.FileID]struct{}
	clock  int64
}

// NewPeerSystem builds the peer grid; the hub (first site of hubDomain, or
// site 0) implicitly holds every file.
func NewPeerSystem(t *trace.Trace, cfg PeerConfig, hubDomain string) (*PeerSystem, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	start, _, ok := t.Span()
	if !ok {
		return nil, fmt.Errorf("grid: trace has no jobs")
	}
	s := &PeerSystem{tr: t, kernel: sim.New(start), hub: hubSite(t, hubDomain)}
	s.net = NewNetwork(s.kernel)
	for i := range t.Sites {
		up, down := cfg.SiteUp, cfg.SiteDown
		if trace.SiteID(i) == s.hub {
			up, down = cfg.HubUp, cfg.HubDown
		}
		s.sites = append(s.sites, &peerSite{
			id:     trace.SiteID(i),
			ep:     s.net.NewEndpoint(up, down),
			store:  cache.NewSim(t, cache.NewFileGranularity(t), cache.NewLRU(), cfg.SiteCacheBytes),
			pinned: make(map[trace.FileID]struct{}),
		})
	}
	return s, nil
}

// Hub returns the hub site ID.
func (s *PeerSystem) Hub() trace.SiteID { return s.hub }

// Place pins replicas of the files at the site. Pinned replicas are served
// to local jobs and to remote peers but never evicted.
func (s *PeerSystem) Place(site trace.SiteID, files []trace.FileID) {
	st := s.sites[site]
	for _, f := range files {
		st.pinned[f] = struct{}{}
	}
}

// holds reports whether the site can serve the file right now.
func (st *peerSite) holds(f trace.FileID) bool {
	if _, ok := st.pinned[f]; ok {
		return true
	}
	return st.store.Contains(f)
}

// pickSource chooses where requester fetches f from: the pinned replica
// holder with the least outbound load (ties to the lowest site ID), else
// the hub. Only pinned replicas are advertised — cached copies churn too
// fast to be a reliable catalog entry.
func (s *PeerSystem) pickSource(f trace.FileID, requester trace.SiteID) trace.SiteID {
	best := s.hub
	bestLoad := -1
	for _, st := range s.sites {
		if st.id == requester || st.id == s.hub {
			continue
		}
		if _, ok := st.pinned[f]; !ok {
			continue
		}
		load := st.ep.outbound
		if bestLoad < 0 || load < bestLoad || (load == bestLoad && st.id < best) {
			best = st.id
			bestLoad = load
		}
	}
	return best
}

// Replay schedules all jobs and runs the simulation.
func (s *PeerSystem) Replay() PeerMetrics {
	for i := range s.tr.Jobs {
		j := &s.tr.Jobs[i]
		s.kernel.At(j.Start, func() { s.stage(j) })
	}
	s.kernel.Run()
	return s.m
}

func (s *PeerSystem) stage(j *trace.Job) {
	site := s.sites[j.Site]
	s.m.Jobs++

	// The hub sits on the mass store: its jobs read everything locally.
	if j.Site == s.hub {
		seen := make(map[trace.FileID]struct{}, len(j.Files))
		for _, f := range j.Files {
			if _, dup := seen[f]; dup {
				continue
			}
			seen[f] = struct{}{}
			s.m.LocalBytes += s.tr.Files[f].Size
		}
		return
	}

	// Classify each input file before touching the cache.
	bySource := make(map[trace.SiteID]int64)
	seen := make(map[trace.FileID]struct{}, len(j.Files))
	for _, f := range j.Files {
		if _, dup := seen[f]; dup {
			continue
		}
		seen[f] = struct{}{}
		size := s.tr.Files[f].Size
		if site.holds(f) {
			s.m.LocalBytes += size
			continue
		}
		src := s.pickSource(f, j.Site)
		bySource[src] += size
		if src == s.hub {
			s.m.HubBytes += size
		} else {
			s.m.PeerBytes += size
		}
	}
	// Warm the working cache with the accesses (pinned files bypass it).
	for _, f := range j.Files {
		if _, ok := site.pinned[f]; ok {
			continue
		}
		site.clock++
		site.store.Access(f, site.clock)
	}
	if len(bySource) == 0 {
		return
	}
	s.m.Stalled++

	// One flow per source; the job's stage latency is the slowest flow.
	sources := make([]trace.SiteID, 0, len(bySource))
	for src := range bySource {
		sources = append(sources, src)
	}
	sort.Slice(sources, func(a, b int) bool { return sources[a] < sources[b] })
	remaining := len(sources)
	start := s.kernel.Now()
	for _, src := range sources {
		s.net.Start(s.sites[src].ep, site.ep, bySource[src], func(*Flow) {
			remaining--
			if remaining == 0 {
				stage := s.kernel.Now().Sub(start)
				s.m.TotalStage += stage
				if stage > s.m.MaxStage {
					s.m.MaxStage = stage
				}
			}
		})
	}
}
