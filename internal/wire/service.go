package wire

import (
	"fmt"
	"sync/atomic"

	"filecule/internal/cache"
	"filecule/internal/core"
	"filecule/internal/fed"
	"filecule/internal/trace"
)

// Journal is where a Service sends observes that must be durable before they
// are acknowledged: *durable.Engine, which appends to its write-ahead log and
// then folds the job into the engine the Service reads. An error means the
// job was not applied.
type Journal interface {
	Observe(files []trace.FileID) error
	ObserveBatch(jobs [][]trace.FileID) error
}

// Service is the request core under both serving surfaces: the frame server
// in this package and the HTTP handlers of internal/server each decode a
// request, make one call here and encode what comes back, so every decision —
// which IDs are acceptable, journal-or-engine observes, byte sizing, the
// membership-keyed advice granularity, what is a 404 or a 422 — is made once.
// A failure is a *RemoteError whose code is the HTTP status.
//
// Engine must be set; it is the engine inside Journal when there is one. A
// Service is safe for concurrent use and must not be copied after first use.
type Service struct {
	Engine *core.Engine
	// Catalog sizes files for advice and byte accounting and bounds request
	// file IDs — its file count and per-file sizes are all the Service reads
	// of it. nil accepts any non-negative int32 ID and disables advice.
	Catalog trace.Catalog
	// Journal, when non-nil, takes the observes instead of Engine.
	Journal Journal
	// Fed, when non-nil, applies the federation deltas peers send.
	Fed *fed.Node

	// gran is the advice granularity, rebuilt only when the engine's
	// membership has moved past the partition it was built from.
	gran atomic.Pointer[cache.FileculeGranularity]
	// lim, when non-nil, narrows requestLimits: tests reach a bound cheaply
	// through it, on both surfaces at once.
	lim *limits
}

// limits bound what one request may hold. The Service owns them for both
// surfaces: the JSON handlers pass what they decoded to CheckJobs, and the
// frame decoder applies the same numbers while it expands runs, so a
// compact run encoding never materialises more than a JSON body could say.
type limits struct {
	batchJobs  int // jobs per batch request
	jobFiles   int // file IDs of one job or one advice request
	batchFiles int // file IDs across one batch request
}

// requestLimits are the protocol's: a request the Service accepts is one
// the write-ahead log takes and replays (trace owns the per-job and
// per-batch file counts).
var requestLimits = limits{batchJobs: MaxBatchJobs, jobFiles: trace.MaxJobFiles, batchFiles: trace.MaxBatchFiles}

func (s *Service) limits() *limits {
	if s.lim != nil {
		return s.lim
	}
	return &requestLimits
}

// checkBatchJobs refuses a batch of n jobs over the limit. The frame decoder
// asks before it materialises the batch.
func (l *limits) checkBatchJobs(n int) *RemoteError {
	if n > l.batchJobs {
		return failf(CodeBadRequest, "batch of %d jobs exceeds limit %d", n, l.batchJobs)
	}
	return nil
}

func failf(code int, format string, args ...any) *RemoteError {
	return &RemoteError{Code: code, Msg: fmt.Sprintf(format, args...)}
}

// MaxID is the exclusive upper bound on request file IDs.
func (s *Service) MaxID() int64 {
	if s.Catalog != nil {
		return int64(s.Catalog.NumFiles())
	}
	return trace.FileIDCeiling
}

// CheckJobs is the one check of a decoded request's file lists: at most
// MaxBatchJobs lists, each of at most trace.MaxJobFiles IDs and
// trace.MaxBatchFiles in all, every ID in [0, MaxID). An observe or advice
// request is one list; a batch names the job at fault.
func (s *Service) CheckJobs(jobs ...[]trace.FileID) *RemoteError {
	lim := s.limits()
	if rerr := lim.checkBatchJobs(len(jobs)); rerr != nil {
		return rerr
	}
	maxID, total := s.MaxID(), 0
	for i, files := range jobs {
		total += len(files)
		if rerr := lim.checkJob(files, total, maxID); rerr != nil {
			if len(jobs) > 1 {
				rerr.Msg = fmt.Sprintf("job %d: %s", i, rerr.Msg)
			}
			return rerr
		}
	}
	return nil
}

// checkJob refuses one job's files, total being the batch's IDs up to and
// including them.
func (l *limits) checkJob(files []trace.FileID, total int, maxID int64) *RemoteError {
	if len(files) > l.jobFiles {
		return failf(CodeBadRequest, "job of %d files exceeds limit %d", len(files), l.jobFiles)
	}
	if total > l.batchFiles {
		return failf(CodeBadRequest, "batch passes %d files", l.batchFiles)
	}
	for _, f := range files {
		if f < 0 || int64(f) >= maxID {
			return failf(CodeBadRequest, "file ID %d out of range [0, %d)", f, maxID)
		}
	}
	return nil
}

func (s *Service) observed(err error) (ObserveReply, *RemoteError) {
	if err != nil {
		return ObserveReply{}, &RemoteError{Code: CodeInternal, Msg: "wal append: " + err.Error()}
	}
	return ObserveReply{Observed: s.Engine.Observed(), Filecules: s.Engine.NumFilecules()}, nil
}

// Observe folds one job that passed CheckJobs or the frame decoder.
func (s *Service) Observe(files []trace.FileID) (ObserveReply, *RemoteError) {
	if s.Journal != nil {
		return s.observed(s.Journal.Observe(files))
	}
	s.Engine.Observe(files)
	return s.observed(nil)
}

// ObserveBatch folds several jobs, atomically with respect to durability.
func (s *Service) ObserveBatch(jobs [][]trace.FileID) (ObserveReply, *RemoteError) {
	if s.Journal != nil {
		return s.observed(s.Journal.ObserveBatch(jobs))
	}
	s.Engine.ObserveBatch(jobs)
	return s.observed(nil)
}

// Filecule answers a per-file lookup. id is the request's ID before any
// narrowing, so one unsigned comparison rejects everything outside the
// catalog — a frame may carry any 64-bit value.
func (s *Service) Filecule(id uint64) (FileculeLookupReply, *RemoteError) {
	if id >= uint64(s.MaxID()) {
		return FileculeLookupReply{}, failf(CodeBadRequest, "file ID %d out of range [0, %d)", id, s.MaxID())
	}
	p, fc, ok := s.Engine.Lookup(trace.FileID(id))
	if !ok {
		return FileculeLookupReply{}, failf(CodeNotFound, "file %d not observed in any job", id)
	}
	r := FileculeLookupReply{ID: fc.ID, Files: fc.Files, Requests: fc.Requests}
	if s.Catalog != nil {
		r.Bytes = p.SizeTable(s.Catalog)[fc.ID]
	}
	return r, nil
}

// Summary reports the partition's shape. It reads membership only, so it
// assembles no snapshot while no file has changed filecule.
func (s *Service) Summary() SummaryReply {
	sum := s.Engine.Membership().Summary(s.Catalog)
	return SummaryReply{
		Observed:          s.Engine.Observed(),
		Filecules:         sum.Filecules,
		Files:             sum.Files,
		Monatomic:         sum.Monatomic,
		MeanFilesPerGroup: sum.MeanFilesPerFilecule,
		LargestFiles:      sum.LargestFiles,
		CoveredBytes:      sum.CoveredBytes,
	}
}

// Partition returns the full canonical partition with exact request counts.
func (s *Service) Partition() *PartitionReply {
	return NewPartitionReply(s.Engine.Snapshot(), s.Engine.Observed(), s.Catalog)
}

// NewPartitionReply renders any partition as the reply both surfaces encode:
// filecules in canonical order, sized by catalog when there is one. Equal
// partitions give equal replies, which the byte-identity checks rely on.
func NewPartitionReply(p *core.Partition, observed int64, catalog trace.Catalog) *PartitionReply {
	r := &PartitionReply{Observed: observed, Filecules: make([]FileculeLookupReply, len(p.Filecules))}
	var sizes []int64
	if catalog != nil {
		sizes = p.SizeTable(catalog)
	}
	for i := range p.Filecules {
		fc := &p.Filecules[i]
		r.Filecules[i] = FileculeLookupReply{ID: fc.ID, Files: fc.Files, Requests: fc.Requests}
		if sizes != nil {
			r.Filecules[i].Bytes = sizes[i]
		}
	}
	return r
}

// Granularity returns the advice granularity for the engine's current
// membership, or a 422 without a catalog. Advice reads only membership —
// which files share a filecule and what the filecules weigh — so the
// granularity is keyed on the membership version (the filecule count, see
// core.Engine.NumFilecules): an observe that split nothing and saw no new
// file invalidates nothing here, and consecutive calls return the identical
// value until some file changes filecule.
func (s *Service) Granularity() (*cache.FileculeGranularity, *RemoteError) {
	if s.Catalog == nil {
		return nil, failf(CodeUnavailable, "cache advice requires a file catalog; start the server with one")
	}
	p := s.Engine.Membership()
	g := s.gran.Load()
	if g == nil || g.Partition().NumFilecules() != p.NumFilecules() {
		// Racing rebuilds are harmless: the size table behind each is built
		// once per membership (core.Partition.SizeTable), and any of them
		// answers for p.
		g = cache.NewFileculeGranularity(s.Catalog, p)
		s.gran.Store(g)
	}
	return g, nil
}

// Advise plans req against the current membership with the caller's planner
// (a zero Planner works; a connection keeps one so steady-state advice
// allocates nothing). The plan is valid until pl is used again. req.Files
// must already have passed CheckJobs or the frame decoder.
func (s *Service) Advise(pl *cache.Planner, req cache.AdviceRequest) (*cache.Advice, *RemoteError) {
	g, rerr := s.Granularity()
	if rerr != nil {
		return nil, rerr
	}
	if pl.Granularity() != g {
		pl.Reset(g)
	}
	adv, err := pl.Advise(req)
	if err != nil {
		return nil, &RemoteError{Code: CodeBadRequest, Msg: err.Error()}
	}
	return adv, nil
}
