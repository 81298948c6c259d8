package synth

import (
	"fmt"
	"io"

	"filecule/internal/trace"
)

// NewSource returns a trace.Source that generates the synthetic workload one
// job at a time, so a trace of any configured size streams through bounded
// memory: only the catalogs (files, users, sites) and the generator's
// samplers are ever resident, never the job history.
//
// The stream contains exactly the jobs Generate(cfg) produces — same RNG
// draw sequence, same catalogs, same file IDs — but in generation order
// (per-tier analysis jobs, background jobs, hot case-study jobs) with IDs
// renumbered densely along the stream, whereas Generate sorts jobs by start
// time before numbering. Filecule identification is commutative over job
// order, so partitions agree; consumers that need start-time order should
// Materialize and SortJobsByStart, which reproduces Generate exactly.
func NewSource(cfg Config) (trace.Source, error) {
	g, err := newGenerator(cfg)
	if err != nil {
		return nil, err
	}
	g.joinCatalog() // Files() must be whole
	return &source{g: g, phases: g.jobPhases()}, nil
}

type source struct {
	g      *generator
	phases []jobPhase
	k      int   // jobs emitted from phases[0]
	n      int64 // jobs emitted in total
	job    trace.Job
	closed bool
}

func (s *source) Files() []trace.File { return s.g.catalog.Files }
func (s *source) Users() []trace.User { return s.g.catalog.Users }
func (s *source) Sites() []trace.Site { return s.g.catalog.Sites }

func (s *source) Next() (*trace.Job, error) {
	if s.closed {
		return nil, fmt.Errorf("synth: source is closed")
	}
	for len(s.phases) > 0 && s.k >= s.phases[0].n {
		s.phases = s.phases[1:]
		s.k = 0
	}
	if len(s.phases) == 0 {
		return nil, io.EOF
	}
	s.job = s.phases[0].make()
	s.job.ID = trace.JobID(s.n)
	s.k++
	s.n++
	return &s.job, nil
}

func (s *source) Close() error {
	s.closed = true
	s.phases = nil
	return nil
}
