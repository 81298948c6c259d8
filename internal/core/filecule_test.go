package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"filecule/internal/trace"
)

var t0 = time.Date(2003, 1, 15, 12, 0, 0, 0, time.UTC)

// buildTrace assembles a trace from explicit job input sets over nFiles
// files spread across nSites sites round-robin by job.
func buildTrace(tb testing.TB, nFiles int, jobFiles [][]trace.FileID) *trace.Trace {
	tb.Helper()
	b := trace.NewBuilder()
	s1 := b.Site("fnal", ".gov", 10)
	s2 := b.Site("kit", ".de", 4)
	sites := []trace.SiteID{s1, s2}
	u1 := b.User("alice", s1)
	u2 := b.User("bob", s2)
	users := []trace.UserID{u1, u2}
	for i := 0; i < nFiles; i++ {
		b.File(fileNameN(i), int64(1+i)*100, trace.TierThumbnail)
	}
	for i, files := range jobFiles {
		b.SimpleJob(users[i%2], sites[i%2], t0.Add(time.Duration(i)*time.Hour), files)
	}
	tr := b.Build()
	if err := tr.Validate(); err != nil {
		tb.Fatalf("Validate: %v", err)
	}
	return tr
}

func fileNameN(i int) string {
	const digits = "0123456789"
	if i == 0 {
		return "f0"
	}
	var b []byte
	for n := i; n > 0; n /= 10 {
		b = append([]byte{digits[n%10]}, b...)
	}
	return "f" + string(b)
}

// randomTrace generates a random workload: jobs draw random subsets of a
// file population, with some jobs re-requesting earlier sets to create
// repeats.
func randomTrace(tb testing.TB, seed int64, nFiles, nJobs int) *trace.Trace {
	r := rand.New(rand.NewSource(seed))
	var jobFiles [][]trace.FileID
	for j := 0; j < nJobs; j++ {
		if len(jobFiles) > 0 && r.Intn(3) == 0 {
			// Repeat an earlier request set exactly.
			jobFiles = append(jobFiles, jobFiles[r.Intn(len(jobFiles))])
			continue
		}
		n := 1 + r.Intn(6)
		set := make([]trace.FileID, 0, n)
		for k := 0; k < n; k++ {
			set = append(set, trace.FileID(r.Intn(nFiles)))
		}
		jobFiles = append(jobFiles, set)
	}
	return buildTrace(tb, nFiles, jobFiles)
}

func TestIdentifyKnownPartition(t *testing.T) {
	// Jobs: {0,1}, {0,1,2}, {3}, {0,1}.
	// Signatures: f0,f1 -> jobs {0,1,3}; f2 -> {1}; f3 -> {2}.
	tr := buildTrace(t, 5, [][]trace.FileID{
		{0, 1}, {0, 1, 2}, {3}, {0, 1},
	})
	p := Identify(tr)
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if p.NumFilecules() != 3 {
		t.Fatalf("got %d filecules, want 3: %+v", p.NumFilecules(), p.Filecules)
	}
	// Canonical order sorts by smallest file ID: {0,1}, {2}, {3}.
	fc := p.Filecules
	if len(fc[0].Files) != 2 || fc[0].Files[0] != 0 || fc[0].Files[1] != 1 || fc[0].Requests != 3 {
		t.Errorf("filecule 0 = %+v", fc[0])
	}
	if len(fc[1].Files) != 1 || fc[1].Files[0] != 2 || fc[1].Requests != 1 {
		t.Errorf("filecule 1 = %+v", fc[1])
	}
	if len(fc[2].Files) != 1 || fc[2].Files[0] != 3 || fc[2].Requests != 1 {
		t.Errorf("filecule 2 = %+v", fc[2])
	}
	// File 4 was never requested.
	if p.Of(4) != -1 {
		t.Errorf("Of(unrequested) = %d, want -1", p.Of(4))
	}
	if p.FileculeOf(0) == nil || p.FileculeOf(4) != nil {
		t.Error("FileculeOf inconsistent with Of")
	}
}

func TestIdentifyHandlesDuplicateEntriesInJob(t *testing.T) {
	tr := buildTrace(t, 3, [][]trace.FileID{
		{0, 0, 1}, // duplicate entry of f0 must count once
		{0, 1},
	})
	p := Identify(tr)
	if p.NumFilecules() != 1 {
		t.Fatalf("got %d filecules, want 1", p.NumFilecules())
	}
	if p.Filecules[0].Requests != 2 {
		t.Errorf("requests = %d, want 2", p.Filecules[0].Requests)
	}
}

func TestPartitionSizeAndTier(t *testing.T) {
	tr := buildTrace(t, 3, [][]trace.FileID{{0, 1}})
	p := Identify(tr)
	if got, want := p.Size(tr, 0), int64(100+200); got != want {
		t.Errorf("Size = %d, want %d", got, want)
	}
	if p.Tier(tr, 0) != trace.TierThumbnail {
		t.Errorf("Tier = %v", p.Tier(tr, 0))
	}
	byTier := p.ByTier(tr)
	if len(byTier[trace.TierThumbnail]) != 1 {
		t.Errorf("ByTier = %v", byTier)
	}
}

func TestDisjointnessAndCoverageProperty(t *testing.T) {
	f := func(seed int64, nf, nj uint8) bool {
		nFiles := int(nf%40) + 1
		nJobs := int(nj%30) + 1
		tr := randomTrace(t, seed, nFiles, nJobs)
		p := Identify(tr)
		if p.Validate() != nil {
			return false
		}
		requested := make(map[trace.FileID]bool)
		for i := range tr.Jobs {
			for _, f := range tr.Jobs[i].Files {
				requested[f] = true
			}
		}
		return p.NumFiles() == len(requested)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestPopularityEqualityProperty(t *testing.T) {
	f := func(seed int64, nf, nj uint8) bool {
		tr := randomTrace(t, seed, int(nf%40)+1, int(nj%30)+1)
		p := Identify(tr)
		return CheckPopularityEquality(tr, p) == -1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestRefinerMatchesBatchProperty(t *testing.T) {
	f := func(seed int64, nf, nj uint8) bool {
		tr := randomTrace(t, seed, int(nf%40)+1, int(nj%40)+1)
		batch := Identify(tr)
		r := NewRefiner()
		r.ObserveTrace(tr)
		online := r.Partition()
		return online.Equal(batch)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestRefinerPrefixMatchesBatchOnPrefix(t *testing.T) {
	tr := randomTrace(t, 99, 25, 30)
	r := NewRefiner()
	for i := range tr.Jobs {
		r.Observe(tr.Jobs[i].Files)
		prefix := make([]trace.JobID, i+1)
		for k := 0; k <= i; k++ {
			prefix[k] = tr.Jobs[k].ID
		}
		want := IdentifyJobs(tr, prefix)
		if got := r.Partition(); !got.Equal(want) {
			t.Fatalf("after %d jobs: refiner and batch disagree", i+1)
		}
	}
}

func TestRefinerEmptyAndNoopObservations(t *testing.T) {
	r := NewRefiner()
	r.Observe(nil)
	if r.NumFilecules() != 0 {
		t.Error("empty observation created a block")
	}
	r.Observe([]trace.FileID{1, 1, 1})
	p := r.Partition()
	if p.NumFilecules() != 1 || p.Filecules[0].Requests != 1 || len(p.Filecules[0].Files) != 1 {
		t.Errorf("partition after dup-only job = %+v", p.Filecules)
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	tr := buildTrace(t, 4, [][]trace.FileID{{0, 1}, {2, 3}})
	p := Identify(tr)
	q := Identify(tr)
	if !p.Equal(q) {
		t.Fatal("identical partitions compare unequal")
	}
	q.Filecules[0].Requests++
	if p.Equal(q) {
		t.Error("request-count difference not detected")
	}

	tr2 := buildTrace(t, 4, [][]trace.FileID{{0, 1, 2}, {3}})
	if p.Equal(Identify(tr2)) {
		t.Error("different groupings compare equal")
	}
}

// TestSizeSkipsFilesOutsideCatalog: a partition holding file IDs the
// catalog does not know (merged federated state from a site with a wider
// file space) must size without faulting, counting only resolvable files.
func TestSizeSkipsFilesOutsideCatalog(t *testing.T) {
	p := NewPartition([]Filecule{{Files: []trace.FileID{0, 999}, Requests: 2}})
	tr := &trace.Trace{Files: []trace.File{{Size: 10}}}
	if got := p.Size(tr, 0); got != 10 {
		t.Fatalf("Size with out-of-catalog member = %d, want 10", got)
	}
}

// TestPartitionSummary: the shape statistics both serving surfaces report,
// with and without a catalog, and across a catalog switch (the per-catalog
// cache must not serve one catalog's bytes under another).
func TestPartitionSummary(t *testing.T) {
	tr := buildTrace(t, 6, [][]trace.FileID{{0, 1, 2}, {0, 1}, {4}})
	p := Identify(tr)
	want := Summary{Filecules: 3, Files: 4, Monatomic: 2, LargestFiles: 2, MeanFilesPerFilecule: 4.0 / 3}
	if got := p.Summary(nil); got != want {
		t.Errorf("Summary(nil) = %+v, want %+v", got, want)
	}
	for _, f := range p.Filecules {
		for _, id := range f.Files {
			want.CoveredBytes += tr.Files[id].Size
		}
	}
	if got := p.Summary(tr); got != want {
		t.Errorf("Summary(catalog) = %+v, want %+v", got, want)
	}
	double := &trace.Trace{Files: slices.Clone(tr.Files)}
	for i := range double.Files {
		double.Files[i].Size *= 2
	}
	if got := p.Summary(double).CoveredBytes; got != 2*want.CoveredBytes {
		t.Errorf("CoveredBytes under a doubled catalog = %d, want %d", got, 2*want.CoveredBytes)
	}
	if got := p.SizeTable(tr)[0]; got != p.Size(tr, 0) {
		t.Errorf("SizeTable after a catalog switch = %d for filecule 0, want %d", got, p.Size(tr, 0))
	}
	if got := NewPartition(nil).Summary(nil); got != (Summary{}) {
		t.Errorf("empty partition summary = %+v", got)
	}
}
