// Package trace defines the workload model used throughout the filecule
// library: files, jobs, users and sites of a SAM-like data-handling system,
// together with the derived stream of individual file requests.
//
// The model mirrors the two trace kinds described in the paper (HPDC'06,
// Section 2.3): "file traces" record which files each job requested, and
// "application traces" record job metadata (user, node, data tier,
// application family and start/stop times). Both are folded into a single
// Trace value here.
//
// All identifiers are dense small integers so that large traces (the paper
// analyzes 13M file accesses over 1.13M files) stay cache-friendly; the
// human-readable names live in side tables on Trace.
package trace

import (
	"fmt"
	"time"
)

// FileID identifies a file within a Trace. IDs are dense: valid IDs are
// 0..len(Trace.Files)-1.
type FileID int32

// JobID identifies a job within a Trace. IDs are dense: valid IDs are
// 0..len(Trace.Jobs)-1.
type JobID int32

// UserID identifies a user within a Trace. IDs are dense.
type UserID int32

// SiteID identifies a site (an institution hosting submission nodes) within
// a Trace. IDs are dense.
type SiteID int32

// Tier is the data tier of a file or of a job's input dataset, following the
// DZero tier taxonomy (Section 2.2 of the paper).
type Tier uint8

// Data tiers observed in the DZero traces.
const (
	TierOther Tier = iota
	TierRaw
	TierReconstructed
	TierRootTuple
	TierThumbnail

	numTiers
)

// NumTiers is the number of distinct Tier values.
const NumTiers = int(numTiers)

// String returns the tier name used in the paper's tables.
func (t Tier) String() string {
	switch t {
	case TierRaw:
		return "raw"
	case TierReconstructed:
		return "reconstructed"
	case TierRootTuple:
		return "root-tuple"
	case TierThumbnail:
		return "thumbnail"
	default:
		return "other"
	}
}

// AppFamily categorizes applications the way SAM does (Section 2.2):
// reconstruction, monte-carlo production, and analysis.
type AppFamily uint8

// Application families.
const (
	FamilyAnalysis AppFamily = iota
	FamilyReconstruction
	FamilyMonteCarlo

	numFamilies
)

// NumFamilies is the number of distinct AppFamily values.
const NumFamilies = int(numFamilies)

// String returns the SAM-style family name.
func (f AppFamily) String() string {
	switch f {
	case FamilyReconstruction:
		return "reconstruction"
	case FamilyMonteCarlo:
		return "montecarlo"
	default:
		return "analysis"
	}
}

// File is one catalogued file. Files in DZero are read-only once stored, so
// Size never changes. Fields are ordered so the four pack into 32 bytes
// (TestRecordSizes): a catalog holds a million of them.
type File struct {
	Name string
	Size int64 // bytes
	ID   FileID
	Tier Tier
}

// User is a member of the virtual organization. Users belong to exactly one
// site in this model (the paper's traces associate users with submission
// domains).
type User struct {
	ID   UserID
	Name string
	Site SiteID
}

// Site is an institution participating in the collaboration. The paper
// aggregates sites per Internet domain (Table 2); Domain holds that label
// (".gov", ".de", ...).
type Site struct {
	ID     SiteID
	Name   string
	Domain string
	// Nodes is the number of submission nodes at this site (Table 2
	// reports submission nodes per domain).
	Nodes int
}

// Exec says what ran a job: where it was submitted and which application
// version it ran. A trace has far fewer distinct triples than jobs, so every
// producer hands out one shared value per triple and jobs point at it; the
// value is never mutated. A nil *Exec is the triple of empty names.
type Exec struct {
	Node    string // submission node name
	App     string // application name
	Version string // application version
}

// noExec is what a job with a nil Exec reads as.
var noExec Exec

// Job is one SAM "project": an application run over a dataset on behalf of a
// user. Files lists the job's input files in request order. The five small
// fields lead and share the first 16 bytes, so a Job is 120 bytes
// (TestRecordSizes).
type Job struct {
	ID     JobID
	User   UserID
	Site   SiteID
	Tier   Tier // tier of the input dataset
	Family AppFamily
	Exec   *Exec // shared with the jobs of the same triple; read-only
	Start  time.Time
	End    time.Time
	Files  []FileID
	// Outputs are the files this job produced (reconstruction and
	// montecarlo jobs create new data; the paper: "the typical jobs
	// analyze and produce new, processed data files"). Often empty in
	// traces, which record only the read side.
	Outputs []FileID
}

// Duration returns the job's wall-clock duration.
func (j *Job) Duration() time.Duration { return j.End.Sub(j.Start) }

// exec returns the job's descriptor, the empty one for a nil Exec.
func (j *Job) exec() *Exec {
	if j.Exec != nil {
		return j.Exec
	}
	return &noExec
}

// Catalog is what byte accounting reads of a file catalog: how many files it
// has and what each weighs. *Trace is one; *Sizes keeps nothing else.
// Implementations are pointer types, so Catalog values compare by identity
// (core.Partition caches its size table per catalog).
type Catalog interface {
	NumFiles() int
	FileSize(f FileID) int64 // f in [0, NumFiles())
}

// Sizes is a file catalog reduced to its sizes: 8 bytes per file, against a
// File record's 32 plus its name.
type Sizes struct{ bytes []int64 }

// NewSizes copies the sizes out of files.
func NewSizes(files []File) *Sizes {
	s := &Sizes{bytes: make([]int64, len(files))}
	for i := range files {
		s.bytes[i] = files[i].Size
	}
	return s
}

// NumFiles implements Catalog.
func (s *Sizes) NumFiles() int { return len(s.bytes) }

// FileSize implements Catalog.
func (s *Sizes) FileSize(f FileID) int64 { return s.bytes[f] }

// Trace is a complete workload: the file catalog, the site and user
// populations, and the job history. The zero value is an empty trace.
type Trace struct {
	Files []File
	Users []User
	Sites []Site
	Jobs  []Job
}

// NumFiles implements Catalog.
func (t *Trace) NumFiles() int { return len(t.Files) }

// FileSize implements Catalog.
func (t *Trace) FileSize(f FileID) int64 { return t.Files[f].Size }

// Validate checks referential integrity: every ID stored on a job, user or
// file must be dense and in range, and job time intervals must be ordered.
// It returns the first problem found.
func (t *Trace) Validate() error {
	for i := range t.Files {
		if t.Files[i].ID != FileID(i) {
			return fmt.Errorf("trace: file at index %d has ID %d (want dense IDs)", i, t.Files[i].ID)
		}
		if t.Files[i].Size < 0 {
			return fmt.Errorf("trace: file %d has negative size %d", i, t.Files[i].Size)
		}
	}
	for i := range t.Sites {
		if t.Sites[i].ID != SiteID(i) {
			return fmt.Errorf("trace: site at index %d has ID %d (want dense IDs)", i, t.Sites[i].ID)
		}
	}
	for i := range t.Users {
		u := &t.Users[i]
		if u.ID != UserID(i) {
			return fmt.Errorf("trace: user at index %d has ID %d (want dense IDs)", i, u.ID)
		}
		if int(u.Site) < 0 || int(u.Site) >= len(t.Sites) {
			return fmt.Errorf("trace: user %d references unknown site %d", i, u.Site)
		}
	}
	for i := range t.Jobs {
		j := &t.Jobs[i]
		if j.ID != JobID(i) {
			return fmt.Errorf("trace: job at index %d has ID %d (want dense IDs)", i, j.ID)
		}
		if int(j.User) < 0 || int(j.User) >= len(t.Users) {
			return fmt.Errorf("trace: job %d references unknown user %d", i, j.User)
		}
		if int(j.Site) < 0 || int(j.Site) >= len(t.Sites) {
			return fmt.Errorf("trace: job %d references unknown site %d", i, j.Site)
		}
		if j.End.Before(j.Start) {
			return fmt.Errorf("trace: job %d ends before it starts", i)
		}
		for _, f := range j.Files {
			if int(f) < 0 || int(f) >= len(t.Files) {
				return fmt.Errorf("trace: job %d references unknown file %d", i, f)
			}
		}
		for _, f := range j.Outputs {
			if int(f) < 0 || int(f) >= len(t.Files) {
				return fmt.Errorf("trace: job %d produces unknown file %d", i, f)
			}
		}
	}
	return nil
}

// NumRequests returns the total number of file requests (the sum of input
// set sizes over all jobs).
func (t *Trace) NumRequests() int {
	n := 0
	for i := range t.Jobs {
		n += len(t.Jobs[i].Files)
	}
	return n
}

// Span returns the interval [first job start, last job end]. ok is false for
// a trace with no jobs.
func (t *Trace) Span() (start, end time.Time, ok bool) {
	if len(t.Jobs) == 0 {
		return time.Time{}, time.Time{}, false
	}
	start, end = t.Jobs[0].Start, t.Jobs[0].End
	for i := range t.Jobs {
		j := &t.Jobs[i]
		if j.Start.Before(start) {
			start = j.Start
		}
		if j.End.After(end) {
			end = j.End
		}
	}
	return start, end, true
}

// JobsByDomain groups job positions in t.Jobs by the domain label of their
// site.
func (t *Trace) JobsByDomain() map[string][]JobID {
	out := make(map[string][]JobID)
	for i := range t.Jobs {
		d := t.Sites[t.Jobs[i].Site].Domain
		out[d] = append(out[d], JobID(i))
	}
	return out
}

// WithJobs returns a new trace sharing this trace's file, user and site
// catalogs but containing only the given jobs, renumbered densely in the
// given order. Job file lists are shared, not copied.
func (t *Trace) WithJobs(ids []JobID) *Trace {
	out := &Trace{Files: t.Files, Users: t.Users, Sites: t.Sites}
	out.Jobs = make([]Job, len(ids))
	for i, id := range ids {
		out.Jobs[i] = t.Jobs[id]
		out.Jobs[i].ID = JobID(i)
	}
	return out
}

// SplitByTime partitions the jobs at the given fraction of the job list
// (ordered by start time): the first part is the history window, the second
// the evaluation window. frac must be in (0,1).
func (t *Trace) SplitByTime(frac float64) (history, future *Trace) {
	if frac <= 0 || frac >= 1 {
		panic(fmt.Sprintf("trace: split fraction %v outside (0,1)", frac))
	}
	ids := make([]JobID, len(t.Jobs))
	order := startOrder(len(t.Jobs), func(i int) time.Time { return t.Jobs[i].Start })
	for i := range ids {
		at := i
		if order != nil {
			at = int(order[i])
		}
		ids[i] = JobID(at)
	}
	cut := int(float64(len(ids)) * frac)
	if cut == 0 {
		cut = 1
	}
	if cut >= len(ids) {
		cut = len(ids) - 1
	}
	return t.WithJobs(ids[:cut]), t.WithJobs(ids[cut:])
}
