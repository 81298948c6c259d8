package swarm

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"filecule/internal/core"
	"filecule/internal/synth"
	"filecule/internal/trace"
)

var t0 = time.Date(2003, 1, 15, 0, 0, 0, 0, time.UTC)

// hotTrace builds a trace with a 2-file filecule accessed by several users
// at two sites plus an unrelated cold filecule.
func hotTrace(tb testing.TB) *trace.Trace {
	tb.Helper()
	b := trace.NewBuilder()
	fnal := b.Site("fnal", ".gov", 2)
	kit := b.Site("kit", ".de", 1)
	hot0 := b.File("hot0", 1<<30, trace.TierThumbnail)
	hot1 := b.File("hot1", 1<<30, trace.TierThumbnail)
	cold := b.File("cold", 1<<20, trace.TierThumbnail)

	alice := b.User("alice", fnal)
	bob := b.User("bob", fnal)
	carol := b.User("carol", kit)

	hot := []trace.FileID{hot0, hot1}
	b.SimpleJob(alice, fnal, t0, hot)
	b.SimpleJob(alice, fnal, t0.Add(48*time.Hour), hot)
	b.SimpleJob(bob, fnal, t0.Add(24*time.Hour), hot)
	b.SimpleJob(carol, kit, t0.Add(36*time.Hour), hot)
	b.SimpleJob(carol, kit, t0.Add(200*time.Hour), []trace.FileID{cold})
	return b.Build()
}

func TestHottestFilecule(t *testing.T) {
	tr := hotTrace(t)
	p := core.Identify(tr)
	hc := HottestFilecule(tr, p)
	fc := p.Filecules[hc]
	if fc.NumFiles() != 2 {
		t.Fatalf("hottest filecule has %d files, want the 2-file hot set", fc.NumFiles())
	}
	if users := core.UsersPerFilecule(tr, p)[hc]; users != 3 {
		t.Errorf("hottest filecule users = %d, want 3", users)
	}
}

func TestSiteAndUserIntervals(t *testing.T) {
	tr := hotTrace(t)
	p := core.Identify(tr)
	hc := HottestFilecule(tr, p)

	sites := SiteIntervals(tr, p)[hc]
	if len(sites) != 2 {
		t.Fatalf("site intervals = %+v, want 2 sites", sites)
	}
	if sites[0].Entity != "fnal" || sites[0].Jobs != 3 {
		t.Errorf("first site interval = %+v", sites[0])
	}
	// fnal's window: t0 .. t0+48h+1h (SimpleJob runs 1 hour).
	if !sites[0].First.Equal(t0) || !sites[0].Last.Equal(t0.Add(49*time.Hour)) {
		t.Errorf("fnal window = %v..%v", sites[0].First, sites[0].Last)
	}
	if sites[1].Entity != "kit" || sites[1].Jobs != 1 {
		t.Errorf("second site interval = %+v", sites[1])
	}

	users := UserIntervals(tr, p)[hc]
	if len(users) != 3 {
		t.Fatalf("user intervals = %+v, want 3 users", users)
	}
	if users[0].Entity != "alice" || users[0].Duration() != 49*time.Hour {
		t.Errorf("alice interval = %+v", users[0])
	}
}

// intervalsOf is the per-filecule scan SiteIntervals and UserIntervals
// replace: one member set, then every job, for one filecule. It is the
// oracle of the one-pass version.
func intervalsOf(t *trace.Trace, p *core.Partition, fc int, key func(*trace.Job) string) []Interval {
	member := make(map[trace.FileID]struct{}, p.Filecules[fc].NumFiles())
	for _, f := range p.Filecules[fc].Files {
		member[f] = struct{}{}
	}
	byEntity := make(map[string]*Interval)
	var order []string
	for i := range t.Jobs {
		j := &t.Jobs[i]
		touches := false
		for _, f := range j.Files {
			if _, ok := member[f]; ok {
				touches = true
				break
			}
		}
		if !touches {
			continue
		}
		k := key(j)
		iv := byEntity[k]
		if iv == nil {
			byEntity[k] = &Interval{Entity: k, First: j.Start, Last: j.End, Jobs: 1}
			order = append(order, k)
			continue
		}
		iv.Jobs++
		if j.Start.Before(iv.First) {
			iv.First = j.Start
		}
		if j.End.After(iv.Last) {
			iv.Last = j.End
		}
	}
	out := make([]Interval, 0, len(order))
	for _, k := range order {
		out = append(out, *byEntity[k])
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].First.Before(out[b].First) })
	return out
}

// TestIntervalsMatchPerFileculeScan holds the one pass to the per-filecule
// scan on every filecule of generated traces: entities, windows, job counts
// and order.
func TestIntervalsMatchPerFileculeScan(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		tr, err := synth.Generate(synth.DZero(seed, 0.005))
		if err != nil {
			t.Fatal(err)
		}
		p := core.Identify(tr)
		sites, users := SiteIntervals(tr, p), UserIntervals(tr, p)
		if len(sites) != p.NumFilecules() || len(users) != p.NumFilecules() {
			t.Fatalf("seed %d: %d site and %d user lists for %d filecules", seed, len(sites), len(users), p.NumFilecules())
		}
		site := func(j *trace.Job) string { return tr.Sites[j.Site].Name }
		user := func(j *trace.Job) string { return tr.Users[j.User].Name }
		multi := 0
		for fc := range p.Filecules {
			if want := intervalsOf(tr, p, fc, site); !reflect.DeepEqual(sites[fc], want) {
				t.Fatalf("seed %d filecule %d: site intervals\n got %+v\nwant %+v", seed, fc, sites[fc], want)
			}
			if want := intervalsOf(tr, p, fc, user); !reflect.DeepEqual(users[fc], want) {
				t.Fatalf("seed %d filecule %d: user intervals\n got %+v\nwant %+v", seed, fc, users[fc], want)
			}
			if len(sites[fc]) > 1 {
				multi++
			}
		}
		if multi == 0 {
			t.Errorf("seed %d: no filecule read at two sites; the comparison is vacuous", seed)
		}
	}
}

func TestMeasureConcurrency(t *testing.T) {
	mk := func(startH, endH int) Interval {
		return Interval{First: t0.Add(time.Duration(startH) * time.Hour), Last: t0.Add(time.Duration(endH) * time.Hour)}
	}
	// [0,10), [5,15), [20,30): max overlap 2.
	c := MeasureConcurrency([]Interval{mk(0, 10), mk(5, 15), mk(20, 30)})
	if c.Max != 2 {
		t.Errorf("max concurrency = %d, want 2", c.Max)
	}
	// Time-averaged: 5h@1 + 5h@2 + 5h@1 + 10h@1 = (5+10+5+10)/25 = 1.2.
	if math.Abs(c.Mean-1.2) > 1e-9 {
		t.Errorf("mean concurrency = %v, want 1.2", c.Mean)
	}
	if got := MeasureConcurrency(nil); got.Max != 0 || got.Mean != 0 {
		t.Errorf("empty concurrency = %+v", got)
	}
	// Touching intervals do not overlap (close before open).
	c = MeasureConcurrency([]Interval{mk(0, 10), mk(10, 20)})
	if c.Max != 1 {
		t.Errorf("touching intervals max = %d, want 1", c.Max)
	}
	// A zero-length interval holds at its instant: one entity whose only
	// job is a point is one, and n at one instant are n.
	for n := 1; n <= 3; n++ {
		ivs := make([]Interval, n)
		for i := range ivs {
			ivs[i] = mk(5, 5)
		}
		if c := MeasureConcurrency(ivs); c.Max != n {
			t.Errorf("%d coincident zero-length intervals: max = %d, want %d", n, c.Max, n)
		}
	}
	// A point inside an interval overlaps it; at an interval's end, it
	// does not (touching), but it does overlap one opening there.
	cases := []struct {
		ivs  []Interval
		want int
	}{
		{[]Interval{mk(0, 10), mk(5, 5)}, 2},
		{[]Interval{mk(0, 10), mk(10, 10)}, 1},
		{[]Interval{mk(0, 10), mk(10, 10), mk(10, 20)}, 2},
		{[]Interval{mk(0, 0), mk(10, 20)}, 1},
	}
	for i, tc := range cases {
		if c := MeasureConcurrency(tc.ivs); c.Max != tc.want {
			t.Errorf("case %d: max = %d, want %d", i, c.Max, tc.want)
		}
	}
}

func baseScenario() Scenario {
	return Scenario{
		FileBytes:    1000,
		SeedUpload:   100,
		PeerUpload:   100,
		PeerDownload: 1000,
		Eta:          1,
		Arrivals:     []time.Duration{0},
	}
}

func TestSingleLeecherSwarmEqualsClientServer(t *testing.T) {
	s := baseScenario()
	sw := SimulateSwarm(s)
	cs := SimulateClientServer(s)
	if sw.Mean != cs.Mean {
		t.Errorf("single peer: swarm %v vs client-server %v", sw.Mean, cs.Mean)
	}
	want := 10 * time.Second // 1000 bytes at 100 B/s
	if sw.Mean.Round(time.Millisecond) != want {
		t.Errorf("download time = %v, want %v", sw.Mean, want)
	}
}

func TestFlashCrowdSwarmScalesClientServerDoesNot(t *testing.T) {
	s := baseScenario()
	for i := 0; i < 50; i++ {
		s.Arrivals = append(s.Arrivals, 0)
	}
	sw := SimulateSwarm(s)
	cs := SimulateClientServer(s)
	// Client-server: 51 peers share 100 B/s -> ~510s each.
	if cs.Mean < 400*time.Second {
		t.Errorf("client-server mean = %v, want ~510s", cs.Mean)
	}
	// Swarm: aggregate capacity ~ 100 + 50*100, bounded by download cap;
	// each peer ~ min(1000, (100+50*100)/51) ~ 100 B/s -> ~10s.
	if sw.Mean > 30*time.Second {
		t.Errorf("swarm mean = %v, want ~10s", sw.Mean)
	}
	if sp := sw.Speedup(cs); sp < 10 {
		t.Errorf("flash-crowd speedup = %v, want >= 10", sp)
	}
}

func TestLowConcurrencySwarmGainIsSmall(t *testing.T) {
	// The paper's observed regime: a couple of sites, arrivals spread
	// far apart. Peers rarely coexist, so swarming gains little.
	s := baseScenario()
	s.Arrivals = []time.Duration{0, time.Hour, 10 * time.Hour}
	sw := SimulateSwarm(s)
	cs := SimulateClientServer(s)
	if sp := sw.Speedup(cs); sp > 1.05 {
		t.Errorf("disjoint-arrival speedup = %v, want ~1 (no overlap, no gain)", sp)
	}
}

func TestDownloadCapBinds(t *testing.T) {
	s := baseScenario()
	s.PeerDownload = 100 // even alone, capped at 100 B/s... seed has 100
	s.SeedUpload = 1000
	r := SimulateSwarm(s)
	if r.Mean.Round(time.Millisecond) != 10*time.Second {
		t.Errorf("capped download = %v, want 10s", r.Mean)
	}
}

func TestLateArrivalMeasuredFromArrival(t *testing.T) {
	s := baseScenario()
	s.Arrivals = []time.Duration{0, time.Hour}
	r := SimulateClientServer(s)
	// Both downloads are solo (first finishes long before second
	// arrives): each takes 10s of its own clock.
	for i, c := range r.Completions {
		if c.Round(time.Millisecond) != 10*time.Second {
			t.Errorf("completion %d = %v, want 10s", i, c)
		}
	}
}

func TestScenarioValidation(t *testing.T) {
	bad := []func(*Scenario){
		func(s *Scenario) { s.FileBytes = 0 },
		func(s *Scenario) { s.SeedUpload = 0 },
		func(s *Scenario) { s.PeerDownload = 0 },
		func(s *Scenario) { s.PeerUpload = -1 },
		func(s *Scenario) { s.Eta = 1.5 },
		func(s *Scenario) { s.Arrivals = nil },
		func(s *Scenario) { s.Arrivals = []time.Duration{-time.Second} },
	}
	for i, mutate := range bad {
		s := baseScenario()
		mutate(&s)
		if s.Validate() == nil {
			t.Errorf("case %d: bad scenario accepted", i)
		}
	}
}

func TestArrivalsFromIntervals(t *testing.T) {
	ivs := []Interval{
		{First: t0.Add(2 * time.Hour)},
		{First: t0},
		{First: t0.Add(time.Hour)},
	}
	got := ArrivalsFromIntervals(ivs)
	want := []time.Duration{2 * time.Hour, 0, time.Hour}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("arrival %d = %v, want %v", i, got[i], want[i])
		}
	}
	if ArrivalsFromIntervals(nil) != nil {
		t.Error("empty intervals should give nil arrivals")
	}
}
