package grid

import (
	"math"
	"testing"
	"time"

	"filecule/internal/sim"
	"filecule/internal/trace"
)

var t0 = time.Date(2003, 1, 1, 0, 0, 0, 0, time.UTC)

func TestLinkSingleTransferTime(t *testing.T) {
	k := sim.New(t0)
	l := NewLink(k, 100) // 100 B/s
	var doneAt time.Time
	l.Start(1000, func(*Transfer) { doneAt = k.Now() })
	k.Run()
	want := t0.Add(10 * time.Second)
	if doneAt.Sub(want).Abs() > time.Millisecond {
		t.Errorf("transfer done at %v, want ~%v", doneAt, want)
	}
}

func TestLinkFairSharing(t *testing.T) {
	// Two equal transfers started together on a 100 B/s link: both take
	// 20s (each gets 50 B/s).
	k := sim.New(t0)
	l := NewLink(k, 100)
	var done []time.Time
	l.Start(1000, func(*Transfer) { done = append(done, k.Now()) })
	l.Start(1000, func(*Transfer) { done = append(done, k.Now()) })
	k.Run()
	if len(done) != 2 {
		t.Fatalf("%d transfers completed", len(done))
	}
	for _, d := range done {
		if d.Sub(t0.Add(20*time.Second)).Abs() > 10*time.Millisecond {
			t.Errorf("completion at %v, want ~t0+20s", d)
		}
	}
}

func TestLinkLateArrivalSlowsFirst(t *testing.T) {
	// T1 (1000B) alone for 5s (500B done), then T2 (250B) arrives: both
	// at 50 B/s. T2 finishes at 5+5=10s; T1's remaining 500-250... T1 has
	// 500 left at t=5, runs at 50 B/s until T2 done (t=10, 250 more),
	// then 100 B/s for the last 250 -> 12.5s total.
	k := sim.New(t0)
	l := NewLink(k, 100)
	var t1Done, t2Done time.Time
	l.Start(1000, func(*Transfer) { t1Done = k.Now() })
	k.At(t0.Add(5*time.Second), func() {
		l.Start(250, func(*Transfer) { t2Done = k.Now() })
	})
	k.Run()
	if t2Done.Sub(t0.Add(10*time.Second)).Abs() > 50*time.Millisecond {
		t.Errorf("t2 done at %v, want ~t0+10s", t2Done)
	}
	if t1Done.Sub(t0.Add(12500*time.Millisecond)).Abs() > 50*time.Millisecond {
		t.Errorf("t1 done at %v, want ~t0+12.5s", t1Done)
	}
}

func TestLinkZeroByteTransfer(t *testing.T) {
	k := sim.New(t0)
	l := NewLink(k, 10)
	ran := false
	l.Start(0, func(*Transfer) { ran = true })
	if !ran {
		t.Error("zero-byte transfer did not complete inline")
	}
	if l.InFlight() != 0 {
		t.Error("zero-byte transfer left residue")
	}
}

func TestLinkPanics(t *testing.T) {
	k := sim.New(t0)
	for i, f := range []func(){
		func() { NewLink(k, 0) },
		func() { NewLink(k, math.NaN()) },
		func() { NewLink(k, 10).Start(-1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}

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

func TestHubSelection(t *testing.T) {
	tr := gridTrace(t, [][]trace.FileID{{0}}, time.Hour)
	sys, err := New(tr, defaultCfg(tr), ".gov")
	if err != nil {
		t.Fatal(err)
	}
	if !sys.Site(0).Hub || sys.Site(1).Hub {
		t.Error("hub selection by domain failed")
	}
	sys2, err := New(tr, defaultCfg(tr), "")
	if err != nil {
		t.Fatal(err)
	}
	if !sys2.Site(0).Hub {
		t.Error("default hub should be site 0")
	}
}

func TestConfigValidation(t *testing.T) {
	tr := gridTrace(t, [][]trace.FileID{{0}}, time.Hour)
	bad := []func(*Config){
		func(c *Config) { c.SiteBandwidth = 0 },
		func(c *Config) { c.HubSiteBandwidth = -1 },
		func(c *Config) { c.SiteCacheBytes = 0 },
	}
	for i, mutate := range bad {
		cfg := defaultCfg(tr)
		mutate(&cfg)
		if _, err := New(tr, cfg, ""); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
}
