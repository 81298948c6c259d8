package grid

import (
	"math"
	"testing"
	"time"

	"filecule/internal/trace"
)

var t0 = time.Date(2003, 1, 1, 0, 0, 0, 0, time.UTC)

// gridTrace: 2 sites; site 0 hub (.gov). Jobs at site 1 request files.
func gridTrace(tb testing.TB, jobFiles [][]trace.FileID, gap time.Duration) *trace.Trace {
	tb.Helper()
	b := trace.NewBuilder()
	hub := b.Site("fnal", ".gov", 2)
	remote := b.Site("kit", ".de", 1)
	u := b.User("u", remote)
	_ = hub
	for i := 0; i < 8; i++ {
		b.File(fname(i), 100, trace.TierThumbnail)
	}
	for i, fs := range jobFiles {
		b.SimpleJob(u, remote, t0.Add(time.Duration(i)*gap), fs)
	}
	return b.Build()
}

func fname(i int) string { return string(rune('a' + i)) }

func defaultCfg(t *trace.Trace) Config {
	return Config{
		SiteBandwidth:    100,
		HubSiteBandwidth: 1e6,
		SiteCacheBytes:   400,
	}
}

func TestReplayColdThenWarm(t *testing.T) {
	tr := gridTrace(t, [][]trace.FileID{{0, 1}, {0, 1}}, time.Hour)
	sys, err := New(tr, defaultCfg(tr), ".gov")
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Replay()
	if m.Jobs != 2 {
		t.Fatalf("jobs = %d", m.Jobs)
	}
	if m.WANBytes != 200 {
		t.Errorf("WAN bytes = %d, want 200 (cold fetch only)", m.WANBytes)
	}
	if m.LocalBytes != 200 {
		t.Errorf("local bytes = %d, want 200 (warm re-run)", m.LocalBytes)
	}
	if m.JobsStalled != 1 {
		t.Errorf("stalled jobs = %d, want 1", m.JobsStalled)
	}
	// 200 bytes at 100 B/s = 2s mean over 2 jobs = 1s.
	if m.MeanStage().Round(100*time.Millisecond) != time.Second {
		t.Errorf("mean stage = %v, want ~1s", m.MeanStage())
	}
}

func TestPlaceAvoidsWAN(t *testing.T) {
	tr := gridTrace(t, [][]trace.FileID{{0, 1}}, time.Hour)
	sys, err := New(tr, defaultCfg(tr), ".gov")
	if err != nil {
		t.Fatal(err)
	}
	sys.Place(1, []trace.FileID{0, 1})
	m := sys.Replay()
	if m.WANBytes != 0 || m.JobsStalled != 0 {
		t.Errorf("metrics after placement = %+v, want no WAN traffic", m)
	}
}

func TestCacheEvictionCausesRefetch(t *testing.T) {
	// Cache 400 bytes = 4 files. Jobs touch 8 files then the first 4
	// again: everything missed.
	tr := gridTrace(t, [][]trace.FileID{{0, 1, 2, 3}, {4, 5, 6, 7}, {0, 1, 2, 3}}, time.Hour)
	sys, err := New(tr, defaultCfg(tr), ".gov")
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Replay()
	if m.WANBytes != 1200 {
		t.Errorf("WAN bytes = %d, want 1200 (no reuse)", m.WANBytes)
	}
}

func TestConcurrentJobsShareLink(t *testing.T) {
	// Two jobs start together, each staging 200 bytes over the 100 B/s
	// link: fair sharing means both take ~4s rather than 2s.
	tr := gridTrace(t, [][]trace.FileID{{0, 1}, {2, 3}}, 0)
	sys, err := New(tr, defaultCfg(tr), ".gov")
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Replay()
	if m.MaxStage.Round(100*time.Millisecond) != 4*time.Second {
		t.Errorf("max stage = %v, want ~4s under sharing", m.MaxStage)
	}
}

// TestHubSelection: both constructors pick the first site in the hub
// domain, else site 0 — also when no site is in the domain at all.
func TestHubSelection(t *testing.T) {
	tr := gridTrace(t, [][]trace.FileID{{0}}, time.Hour)
	b := trace.NewBuilder()
	b.Site("slac", ".edu", 1)
	edu := b.Site("ucsd", ".edu", 1)
	b.File("a", 100, trace.TierThumbnail)
	b.SimpleJob(b.User("u", edu), edu, t0, []trace.FileID{0})
	noGov := b.Build()
	for _, c := range []struct {
		name   string
		tr     *trace.Trace
		domain string
		hub    trace.SiteID
	}{
		{"by domain", tr, ".gov", 0},
		{"by site", tr, "", 0},
		{"another domain", tr, ".de", 1},
		{"no site in the domain", noGov, ".gov", 0},
	} {
		sys, err := New(c.tr, defaultCfg(c.tr), c.domain)
		if err != nil {
			t.Fatal(err)
		}
		for i := range c.tr.Sites {
			if id := trace.SiteID(i); sys.Site(id).Hub != (id == c.hub) {
				t.Errorf("%s: System site %d Hub = %v, want hub %d", c.name, id, sys.Site(id).Hub, c.hub)
			}
		}
		peer, err := NewPeerSystem(c.tr, peerCfg(), c.domain)
		if err != nil {
			t.Fatal(err)
		}
		if peer.Hub() != c.hub {
			t.Errorf("%s: PeerSystem hub = %d, want %d", c.name, peer.Hub(), c.hub)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	tr := gridTrace(t, [][]trace.FileID{{0}}, time.Hour)
	bad := []func(*Config){
		func(c *Config) { c.SiteBandwidth = 0 },
		func(c *Config) { c.HubSiteBandwidth = -1 },
		func(c *Config) { c.SiteCacheBytes = 0 },
		func(c *Config) { c.SiteBandwidth = math.NaN() },
		func(c *Config) { c.HubSiteBandwidth = math.NaN() },
		func(c *Config) { c.SiteBandwidth = math.Inf(1) },
		func(c *Config) { c.HubSiteBandwidth = math.Inf(1) },
	}
	for i, mutate := range bad {
		cfg := defaultCfg(tr)
		mutate(&cfg)
		if _, err := New(tr, cfg, ""); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
}
