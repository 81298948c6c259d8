package trace

import "time"

// TierSummary aggregates the per-tier workload characteristics reported in
// Table 1 of the paper: user and job counts, distinct files, mean input
// volume per job and mean job duration.
type TierSummary struct {
	Tier          Tier
	Users         int
	Jobs          int
	Files         int           // distinct files requested by jobs of this tier
	InputPerJobMB float64       // mean requested bytes per job, in MB
	TimePerJob    time.Duration // mean job duration
}

// SummarizeTiers computes one TierSummary per tier that has at least one
// job, plus an "all" row aggregated over every job, mirroring Table 1. The
// all row is returned separately.
func (t *Trace) SummarizeTiers() (perTier []TierSummary, all TierSummary) {
	type acc struct {
		users map[UserID]struct{}
		files map[FileID]struct{}
		jobs  int
		bytes int64
		dur   time.Duration
	}
	accs := make([]acc, NumTiers)
	for i := range accs {
		accs[i].users = make(map[UserID]struct{})
		accs[i].files = make(map[FileID]struct{})
	}
	allAcc := acc{users: make(map[UserID]struct{}), files: make(map[FileID]struct{})}

	for i := range t.Jobs {
		j := &t.Jobs[i]
		a := &accs[j.Tier]
		a.jobs++
		a.users[j.User] = struct{}{}
		a.dur += j.Duration()
		allAcc.jobs++
		allAcc.users[j.User] = struct{}{}
		allAcc.dur += j.Duration()
		for _, f := range j.Files {
			a.files[f] = struct{}{}
			a.bytes += t.Files[f].Size
			allAcc.files[f] = struct{}{}
			allAcc.bytes += t.Files[f].Size
		}
	}

	mk := func(tier Tier, a *acc) TierSummary {
		s := TierSummary{Tier: tier, Users: len(a.users), Jobs: a.jobs, Files: len(a.files)}
		if a.jobs > 0 {
			s.InputPerJobMB = float64(a.bytes) / float64(a.jobs) / (1 << 20)
			s.TimePerJob = a.dur / time.Duration(a.jobs)
		}
		return s
	}
	for tier := Tier(0); tier < Tier(NumTiers); tier++ {
		if accs[tier].jobs == 0 {
			continue
		}
		perTier = append(perTier, mk(tier, &accs[tier]))
	}
	return perTier, mk(TierOther, &allAcc) // tier label of the all row is unused
}

// DomainSummary aggregates per-domain activity as in Table 2 of the paper.
// Filecule counts are added by the caller (they require identification,
// which lives in internal/core).
type DomainSummary struct {
	Domain      string
	Jobs        int
	Nodes       int // distinct submission nodes
	Sites       int
	Users       int
	Files       int   // distinct files requested from this domain
	TotalDataGB int64 // total bytes requested (with repetition), in GB
}

// SummarizeDomains computes one DomainSummary per domain, ordered by
// descending job count (the order Table 2 uses).
func (t *Trace) SummarizeDomains() []DomainSummary {
	type acc struct {
		jobs  int
		nodes map[string]struct{}
		sites map[SiteID]struct{}
		users map[UserID]struct{}
		files map[FileID]struct{}
		bytes int64
	}
	accs := make(map[string]*acc)
	get := func(d string) *acc {
		a := accs[d]
		if a == nil {
			a = &acc{
				nodes: make(map[string]struct{}),
				sites: make(map[SiteID]struct{}),
				users: make(map[UserID]struct{}),
				files: make(map[FileID]struct{}),
			}
			accs[d] = a
		}
		return a
	}
	for i := range t.Jobs {
		j := &t.Jobs[i]
		a := get(t.Sites[j.Site].Domain)
		a.jobs++
		a.nodes[j.exec().Node] = struct{}{}
		a.sites[j.Site] = struct{}{}
		a.users[j.User] = struct{}{}
		for _, f := range j.Files {
			a.files[f] = struct{}{}
			a.bytes += t.Files[f].Size
		}
	}
	out := make([]DomainSummary, 0, len(accs))
	for d, a := range accs {
		out = append(out, DomainSummary{
			Domain: d, Jobs: a.jobs, Nodes: len(a.nodes), Sites: len(a.sites),
			Users: len(a.users), Files: len(a.files),
			TotalDataGB: a.bytes / (1 << 30),
		})
	}
	sortDomainSummaries(out)
	return out
}

func sortDomainSummaries(s []DomainSummary) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && less(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func less(a, b DomainSummary) bool {
	if a.Jobs != b.Jobs {
		return a.Jobs > b.Jobs
	}
	return a.Domain < b.Domain
}
