package trace

import (
	"testing"
	"time"
)

var t0 = time.Date(2003, 1, 15, 12, 0, 0, 0, time.UTC)

// smallTrace builds a 2-site, 3-user, 5-file, 4-job trace used across tests.
func smallTrace(t *testing.T) *Trace {
	t.Helper()
	b := NewBuilder()
	fnal := b.Site("fnal", ".gov", 12)
	kit := b.Site("kit", ".de", 5)
	alice := b.User("alice", fnal)
	bob := b.User("bob", fnal)
	carol := b.User("carol", kit)

	f := make([]FileID, 5)
	for i := range f {
		f[i] = b.File(fileName(i), int64(100*(i+1)), TierThumbnail)
	}

	b.SimpleJob(alice, fnal, t0, []FileID{f[0], f[1]})
	b.SimpleJob(bob, fnal, t0.Add(2*time.Hour), []FileID{f[0], f[1], f[2]})
	b.SimpleJob(carol, kit, t0.Add(4*time.Hour), []FileID{f[3]})
	b.SimpleJob(alice, fnal, t0.Add(6*time.Hour), []FileID{f[0], f[1]})

	tr := b.Build()
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return tr
}

func fileName(i int) string {
	return "file-" + string(rune('a'+i))
}

func TestBuilderMemoizes(t *testing.T) {
	b := NewBuilder()
	s1 := b.Site("x", ".gov", 1)
	s2 := b.Site("x", ".gov", 1)
	if s1 != s2 {
		t.Fatalf("Site not memoized: %d vs %d", s1, s2)
	}
	u1 := b.User("u", s1)
	u2 := b.User("u", s1)
	if u1 != u2 {
		t.Fatalf("User not memoized: %d vs %d", u1, u2)
	}
	f1 := b.File("f", 1, TierRaw)
	f2 := b.File("f", 1, TierRaw)
	if f1 != f2 {
		t.Fatalf("File not memoized: %d vs %d", f1, f2)
	}
}

func TestTraceAggregates(t *testing.T) {
	tr := smallTrace(t)
	if got, want := tr.NumRequests(), 8; got != want {
		t.Errorf("NumRequests = %d, want %d", got, want)
	}
	start, end, ok := tr.Span()
	if !ok || !start.Equal(t0) || !end.Equal(t0.Add(7*time.Hour)) {
		t.Errorf("Span = %v..%v ok=%v", start, end, ok)
	}
}

func TestRequestsOrderedAndComplete(t *testing.T) {
	tr := smallTrace(t)
	reqs := tr.Requests()
	if len(reqs) != tr.NumRequests() {
		t.Fatalf("len(Requests) = %d, want %d", len(reqs), tr.NumRequests())
	}
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Time.Before(reqs[i-1].Time) {
			t.Fatalf("requests out of order at %d: %v before %v", i, reqs[i].Time, reqs[i-1].Time)
		}
	}
	// Every request must stay within its job's interval.
	for _, r := range reqs {
		j := &tr.Jobs[r.Job]
		if r.Time.Before(j.Start) || !r.Time.Before(j.End) {
			t.Errorf("request at %v outside job interval [%v,%v)", r.Time, j.Start, j.End)
		}
	}
}

func TestDaily(t *testing.T) {
	b := NewBuilder()
	s := b.Site("s", ".gov", 1)
	u := b.User("u", s)
	f := b.File("f", 1, TierRaw)
	b.SimpleJob(u, s, t0, []FileID{f})
	b.SimpleJob(u, s, t0.Add(48*time.Hour), []FileID{f, f})
	tr := b.Build()

	days := tr.Daily()
	if len(days) != 3 {
		t.Fatalf("Daily returned %d days, want 3 (contiguous)", len(days))
	}
	if days[0].Jobs != 1 || days[0].Requests != 1 {
		t.Errorf("day0 = %+v", days[0])
	}
	if days[1].Jobs != 0 || days[1].Requests != 0 {
		t.Errorf("day1 (gap) = %+v", days[1])
	}
	if days[2].Jobs != 1 || days[2].Requests != 2 {
		t.Errorf("day2 = %+v", days[2])
	}
}

func TestSummarizeTiers(t *testing.T) {
	b := NewBuilder()
	s := b.Site("s", ".gov", 1)
	u1 := b.User("u1", s)
	u2 := b.User("u2", s)
	fThumb := b.File("ft", 10<<20, TierThumbnail)
	fReco := b.File("fr", 30<<20, TierReconstructed)

	exec := &Exec{Node: "n", App: "a", Version: "1"}
	j := Job{User: u1, Site: s, Tier: TierThumbnail, Exec: exec,
		Start: t0, End: t0.Add(2 * time.Hour), Files: []FileID{fThumb}}
	b.Job(j)
	j.User = u2
	j.Start, j.End = t0.Add(time.Hour), t0.Add(5*time.Hour)
	b.Job(j)
	b.Job(Job{User: u1, Site: s, Tier: TierReconstructed, Exec: exec,
		Start: t0, End: t0.Add(6 * time.Hour), Files: []FileID{fReco, fThumb}})
	tr := b.Build()

	per, all := tr.SummarizeTiers()
	if len(per) != 2 {
		t.Fatalf("got %d tier rows, want 2: %+v", len(per), per)
	}
	byTier := map[Tier]TierSummary{}
	for _, s := range per {
		byTier[s.Tier] = s
	}
	th := byTier[TierThumbnail]
	if th.Users != 2 || th.Jobs != 2 || th.Files != 1 {
		t.Errorf("thumbnail summary = %+v", th)
	}
	if th.InputPerJobMB != 10 {
		t.Errorf("thumbnail InputPerJobMB = %v, want 10", th.InputPerJobMB)
	}
	if th.TimePerJob != 3*time.Hour {
		t.Errorf("thumbnail TimePerJob = %v, want 3h", th.TimePerJob)
	}
	re := byTier[TierReconstructed]
	if re.Users != 1 || re.Jobs != 1 || re.Files != 2 || re.InputPerJobMB != 40 {
		t.Errorf("reconstructed summary = %+v", re)
	}
	if all.Jobs != 3 || all.Users != 2 || all.Files != 2 {
		t.Errorf("all summary = %+v", all)
	}
}

func TestSummarizeDomains(t *testing.T) {
	tr := smallTrace(t)
	doms := tr.SummarizeDomains()
	if len(doms) != 2 {
		t.Fatalf("got %d domains, want 2", len(doms))
	}
	if doms[0].Domain != ".gov" || doms[0].Jobs != 3 {
		t.Errorf("first domain = %+v, want .gov with 3 jobs", doms[0])
	}
	if doms[1].Domain != ".de" || doms[1].Jobs != 1 || doms[1].Users != 1 {
		t.Errorf("second domain = %+v", doms[1])
	}
	if doms[0].Files != 3 {
		t.Errorf(".gov distinct files = %d, want 3", doms[0].Files)
	}
}

func TestValidateCatchesBadRefs(t *testing.T) {
	tr := smallTrace(t)
	tr.Jobs[0].Files = append(tr.Jobs[0].Files, FileID(99))
	if err := tr.Validate(); err == nil {
		t.Error("Validate accepted dangling file reference")
	}

	tr = smallTrace(t)
	tr.Jobs[1].End = tr.Jobs[1].Start.Add(-time.Second)
	if err := tr.Validate(); err == nil {
		t.Error("Validate accepted job ending before start")
	}

	tr = smallTrace(t)
	tr.Users[0].Site = 42
	if err := tr.Validate(); err == nil {
		t.Error("Validate accepted dangling user site")
	}
}

func TestJobsByDomainAndSite(t *testing.T) {
	tr := smallTrace(t)
	byDom := tr.JobsByDomain()
	if len(byDom[".gov"]) != 3 || len(byDom[".de"]) != 1 {
		t.Errorf("JobsByDomain = %v", byDom)
	}
}
