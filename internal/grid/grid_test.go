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
	sys, err := New(tr, defaultCfg(tr))
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Replay()
	if m.Jobs != 2 {
		t.Fatalf("jobs = %d", m.Jobs)
	}
	if m.WANBytes() != 200 || m.HubBytes != 200 {
		t.Errorf("WAN bytes = %d (hub %d), want 200 from the hub (cold fetch only)", m.WANBytes(), m.HubBytes)
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
	sys, err := New(tr, defaultCfg(tr))
	if err != nil {
		t.Fatal(err)
	}
	sys.Warm(1, []trace.FileID{0, 1})
	m := sys.Replay()
	if m.WANBytes() != 0 || m.JobsStalled != 0 {
		t.Errorf("metrics after placement = %+v, want no WAN traffic", m)
	}
}

func TestCacheEvictionCausesRefetch(t *testing.T) {
	// Cache 400 bytes = 4 files. Jobs touch 8 files then the first 4
	// again: everything missed.
	tr := gridTrace(t, [][]trace.FileID{{0, 1, 2, 3}, {4, 5, 6, 7}, {0, 1, 2, 3}}, time.Hour)
	sys, err := New(tr, defaultCfg(tr))
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Replay()
	if m.WANBytes() != 1200 {
		t.Errorf("WAN bytes = %d, want 1200 (no reuse)", m.WANBytes())
	}
}

func TestConcurrentJobsShareLink(t *testing.T) {
	// Two jobs start together, each staging 200 bytes over the 100 B/s
	// link: fair sharing means both take ~4s rather than 2s.
	tr := gridTrace(t, [][]trace.FileID{{0, 1}, {2, 3}}, 0)
	sys, err := New(tr, defaultCfg(tr))
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Replay()
	if m.MaxStage.Round(100*time.Millisecond) != 4*time.Second {
		t.Errorf("max stage = %v, want ~4s under sharing", m.MaxStage)
	}
}

// TestHubSelection: the hub is the first .gov site, also when that is not
// site 0, else site 0.
func TestHubSelection(t *testing.T) {
	withSites := func(domains ...string) *trace.Trace {
		b := trace.NewBuilder()
		var last trace.SiteID
		for i, d := range domains {
			last = b.Site(fname(i), d, 1)
		}
		b.File("a", 100, trace.TierThumbnail)
		b.SimpleJob(b.User("u", last), last, t0, []trace.FileID{0})
		return b.Build()
	}
	for _, c := range []struct {
		name string
		tr   *trace.Trace
		hub  trace.SiteID
	}{
		{"first .gov site, not site 0", withSites(".de", ".gov", ".gov"), 1},
		{"no .gov site", withSites(".edu", ".edu"), 0},
	} {
		sys, err := New(c.tr, defaultCfg(c.tr))
		if err != nil {
			t.Fatal(err)
		}
		if sys.Hub() != c.hub {
			t.Errorf("%s: hub = %d, want %d", c.name, sys.Hub(), c.hub)
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
		if _, err := New(tr, cfg); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
}

// peerTrace: hub (.gov) plus two remote sites; jobs run at site 2 ("edge"),
// site 1 ("mirror") is a placement target.
func peerTrace(tb testing.TB, jobFiles [][]trace.FileID) *trace.Trace {
	tb.Helper()
	b := trace.NewBuilder()
	b.Site("fnal", ".gov", 1)
	b.Site("mirror", ".de", 1)
	edge := b.Site("edge", ".uk", 1)
	u := b.User("u", edge)
	for i := 0; i < 6; i++ {
		b.File(fname(i), 100, trace.TierThumbnail)
	}
	for i, fs := range jobFiles {
		b.SimpleJob(u, edge, t0.Add(time.Duration(i)*time.Hour), fs)
	}
	return b.Build()
}

func peerCfg() Config {
	return Config{SiteBandwidth: 100, HubSiteBandwidth: 1000, SiteCacheBytes: 400}
}

// newPeerSystem builds a System on tr whose hub pins every file, as the
// placement experiment's does.
func newPeerSystem(tb testing.TB, tr *trace.Trace, cfg Config) *System {
	tb.Helper()
	sys, err := New(tr, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	all := make([]trace.FileID, len(tr.Files))
	for i := range all {
		all[i] = trace.FileID(i)
	}
	sys.Pin(sys.Hub(), all)
	return sys
}

func TestPeerSystemHubOnlyWithoutPlacement(t *testing.T) {
	tr := peerTrace(t, [][]trace.FileID{{0, 1}, {0, 1}})
	m := newPeerSystem(t, tr, peerCfg()).Replay()
	if m.HubBytes != 200 || m.PeerBytes != 0 {
		t.Errorf("hub=%d peer=%d, want 200/0", m.HubBytes, m.PeerBytes)
	}
	if m.LocalBytes != 200 {
		t.Errorf("local=%d, want 200 (second run cached)", m.LocalBytes)
	}
	if m.Jobs != 2 || m.JobsStalled != 1 || m.RemoteStalled != 1 {
		t.Errorf("jobs=%d stalled=%d remote stalled=%d, want 2/1/1", m.Jobs, m.JobsStalled, m.RemoteStalled)
	}
}

func TestPeerSystemFetchesFromReplica(t *testing.T) {
	tr := peerTrace(t, [][]trace.FileID{{0, 1}})
	sys := newPeerSystem(t, tr, peerCfg())
	sys.Pin(1, []trace.FileID{0, 1}) // mirror holds both files
	m := sys.Replay()
	if m.PeerBytes != 200 || m.HubBytes != 0 {
		t.Errorf("hub=%d peer=%d, want 0/200", m.HubBytes, m.PeerBytes)
	}
	if m.HubShare() != 0 {
		t.Errorf("HubShare = %v", m.HubShare())
	}
}

func TestPeerSystemLocalPinnedReplica(t *testing.T) {
	tr := peerTrace(t, [][]trace.FileID{{0}})
	sys := newPeerSystem(t, tr, peerCfg())
	sys.Pin(2, []trace.FileID{0}) // replica at the requesting site itself
	m := sys.Replay()
	if m.LocalBytes != 100 || m.JobsStalled != 0 {
		t.Errorf("local=%d stalled=%d, want 100/0", m.LocalBytes, m.JobsStalled)
	}
}

func TestPeerSystemSplitsSources(t *testing.T) {
	// File 0 replicated at mirror, file 1 only at hub: one job fetches
	// from both concurrently; latency is the max of the two flows.
	tr := peerTrace(t, [][]trace.FileID{{0, 1}})
	sys := newPeerSystem(t, tr, peerCfg())
	sys.Pin(1, []trace.FileID{0})
	m := sys.Replay()
	if m.PeerBytes != 100 || m.HubBytes != 100 {
		t.Errorf("hub=%d peer=%d, want 100/100", m.HubBytes, m.PeerBytes)
	}
	if m.HubShare() != 0.5 {
		t.Errorf("HubShare = %v, want 0.5", m.HubShare())
	}
	// Both flows share the edge downlink (100 B/s): 200 bytes total
	// through one 100 B/s pipe -> ~2s.
	if m.MaxStage.Round(100*time.Millisecond) != 2*time.Second {
		t.Errorf("stage = %v, want ~2s (shared downlink)", m.MaxStage)
	}
}

func TestPeerSystemPinnedSurvivesCacheChurn(t *testing.T) {
	// Cache holds 4 files; jobs touch 6 distinct files then re-read the
	// pinned one: it must still be local.
	tr := peerTrace(t, [][]trace.FileID{{0}, {1, 2, 3, 4, 5}, {0}})
	sys := newPeerSystem(t, tr, peerCfg())
	sys.Pin(2, []trace.FileID{0})
	m := sys.Replay()
	// Both accesses of 0 are local; the 5-file job stalls on the hub.
	if m.LocalBytes != 200 {
		t.Errorf("local=%d, want 200", m.LocalBytes)
	}
	if m.HubBytes != 500 {
		t.Errorf("hub=%d, want 500", m.HubBytes)
	}
}

// TestPeerSystemValidation: a trace with no jobs is refused; bad configs
// are TestConfigValidation's.
func TestPeerSystemValidation(t *testing.T) {
	if _, err := New(&trace.Trace{}, peerCfg()); err == nil {
		t.Error("empty trace accepted")
	}
}

// TestOwnEvictionRefetches: a job's read that evicts one of its own later
// inputs makes that input a miss when it is read.
func TestOwnEvictionRefetches(t *testing.T) {
	tr := peerTrace(t, [][]trace.FileID{{2, 0}})
	cfg := peerCfg()
	cfg.SiteCacheBytes = 200 // two files
	sys, err := New(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Warm(2, []trace.FileID{0, 1}) // 0 is the least recently used
	sys.Pin(1, []trace.FileID{2})
	m := sys.Replay()
	// Loading 2 from the mirror evicts 0, which then comes from the hub.
	if m.PeerBytes != 100 || m.HubBytes != 100 || m.LocalBytes != 0 {
		t.Errorf("peer=%d hub=%d local=%d, want 100/100/0", m.PeerBytes, m.HubBytes, m.LocalBytes)
	}
}

func TestRepeatedFileStagedOnce(t *testing.T) {
	tr := peerTrace(t, [][]trace.FileID{{3, 3}})
	m := newPeerSystem(t, tr, peerCfg()).Replay()
	if m.HubBytes != 100 || m.LocalBytes != 0 {
		t.Errorf("hub=%d local=%d, want 100/0", m.HubBytes, m.LocalBytes)
	}
	if m.MaxStage.Round(100*time.Millisecond) != time.Second {
		t.Errorf("stage = %v, want ~1s (one 100 B fetch)", m.MaxStage)
	}
}

// TestHubMissesComeFromMassStore: the hub's own misses are not WAN bytes,
// and its stalls are not remote ones.
func TestHubMissesComeFromMassStore(t *testing.T) {
	b := trace.NewBuilder()
	hub := b.Site("fnal", ".gov", 1)
	b.Site("kit", ".de", 1)
	b.File("a", 1000, trace.TierThumbnail)
	b.SimpleJob(b.User("u", hub), hub, t0, []trace.FileID{0})
	m, err := New(b.Build(), peerCfg())
	if err != nil {
		t.Fatal(err)
	}
	got := m.Replay()
	if got.WANBytes() != 0 || got.JobsStalled != 1 || got.RemoteStalled != 0 {
		t.Errorf("metrics = %+v, want no WAN bytes and one hub stall", got)
	}
	// 1000 B through the hub's 1000 B/s downlink.
	if got.MaxStage.Round(100*time.Millisecond) != time.Second {
		t.Errorf("stage = %v, want ~1s", got.MaxStage)
	}
}

// TestRemoteMissesShareHubUplink: remote misses cross the hub's link, so
// concurrent fetches at two sites split its uplink.
func TestRemoteMissesShareHubUplink(t *testing.T) {
	b := trace.NewBuilder()
	b.Site("fnal", ".gov", 1)
	s1, s2 := b.Site("kit", ".de", 1), b.Site("ral", ".uk", 1)
	b.File("a", 100, trace.TierThumbnail)
	b.File("b", 100, trace.TierThumbnail)
	b.SimpleJob(b.User("u1", s1), s1, t0, []trace.FileID{0})
	b.SimpleJob(b.User("u2", s2), s2, t0, []trace.FileID{1})
	sys, err := New(b.Build(), Config{SiteBandwidth: 100, HubSiteBandwidth: 100, SiteCacheBytes: 400})
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Replay()
	// Each flow gets 50 B/s of the hub's 100 B/s uplink: 2s, not 1s.
	if m.MaxStage.Round(100*time.Millisecond) != 2*time.Second || m.HubBytes != 200 {
		t.Errorf("max stage = %v, hub bytes = %d, want ~2s and 200", m.MaxStage, m.HubBytes)
	}
}
