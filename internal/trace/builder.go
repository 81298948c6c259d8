package trace

import (
	"fmt"
	"time"
)

// Builder assembles a Trace incrementally, handing out dense IDs and
// memoizing entities by name. It is the assembly path used by the synthetic
// generator and by tests; hand-built traces can also populate Trace fields
// directly.
type Builder struct {
	t         Trace
	siteByKey map[string]SiteID
	userByKey map[string]UserID
	fileByKey map[string]FileID
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		siteByKey: make(map[string]SiteID),
		userByKey: make(map[string]UserID),
		fileByKey: make(map[string]FileID),
	}
}

// Site returns the ID for the named site, creating it on first use.
func (b *Builder) Site(name, domain string, nodes int) SiteID {
	if id, ok := b.siteByKey[name]; ok {
		return id
	}
	id := SiteID(len(b.t.Sites))
	b.t.Sites = append(b.t.Sites, Site{ID: id, Name: name, Domain: domain, Nodes: nodes})
	b.siteByKey[name] = id
	return id
}

// User returns the ID for the named user, creating it on first use.
func (b *Builder) User(name string, site SiteID) UserID {
	if id, ok := b.userByKey[name]; ok {
		return id
	}
	id := UserID(len(b.t.Users))
	b.t.Users = append(b.t.Users, User{ID: id, Name: name, Site: site})
	b.userByKey[name] = id
	return id
}

// File returns the ID for the named file, creating it on first use.
func (b *Builder) File(name string, size int64, tier Tier) FileID {
	if id, ok := b.fileByKey[name]; ok {
		return id
	}
	id := FileID(len(b.t.Files))
	b.t.Files = append(b.t.Files, File{ID: id, Name: name, Size: size, Tier: tier})
	b.fileByKey[name] = id
	return id
}

// Job appends a job and returns its ID. The files slice is retained.
func (b *Builder) Job(j Job) JobID {
	j.ID = JobID(len(b.t.Jobs))
	b.t.Jobs = append(b.t.Jobs, j)
	return j.ID
}

// SimpleJob appends a job with defaulted metadata: analysis family, node
// derived from the site, one-hour duration.
func (b *Builder) SimpleJob(user UserID, site SiteID, start time.Time, files []FileID) JobID {
	return b.Job(Job{
		User: user, Site: site,
		Tier:   TierThumbnail,
		Family: FamilyAnalysis,
		Exec:   &Exec{Node: fmt.Sprintf("node-%d.site%d", 0, site), App: "analyze", Version: "v1"},
		Start:  start, End: start.Add(time.Hour),
		Files: files,
	})
}

// Files returns the file catalog built so far. The slice is shared with the
// builder; callers must not mutate it.
func (b *Builder) Files() []File { return b.t.Files }

// Users returns the user catalog built so far (shared, read-only).
func (b *Builder) Users() []User { return b.t.Users }

// Sites returns the site catalog built so far (shared, read-only).
func (b *Builder) Sites() []Site { return b.t.Sites }

// Build finalizes and returns the trace, sorting jobs by start time. The
// Builder must not be reused afterwards. The result is a detached copy of the
// catalog and job slice headers, not a pointer into the Builder: holding the
// trace must not keep the name→ID maps alive.
func (b *Builder) Build() *Trace {
	b.t.SortJobsByStart()
	t := b.t
	return &t
}
