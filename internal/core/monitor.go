package core

import (
	"filecule/internal/trace"
)

// Monitor is the goroutine-safe identification service Section 6 sketches,
// deployed at a "concentration point" (a scheduler or meta-scheduler) where
// job submissions stream past. Many submitter goroutines call Observe
// concurrently; readers take consistent Partition snapshots at any time.
//
// It is a thin wrapper around Engine, the allocation-flat partition
// -refinement engine: repeated input sets proceed in parallel rather than
// serializing on one mutex, snapshots share everything membership did not
// change, and the filecule count is maintained incrementally so progress
// reporting costs O(1).
type Monitor struct {
	engine *Engine
}

// NewMonitor returns an empty identification service.
func NewMonitor() *Monitor { return &Monitor{engine: NewEngine(0)} }

// NewMonitorEngine wraps an existing engine — typically one rebuilt from a
// durable checkpoint — as an identification service.
func NewMonitorEngine(e *Engine) *Monitor { return &Monitor{engine: e} }

// Engine exposes the underlying identification engine.
func (m *Monitor) Engine() *Engine { return m.engine }

// Observe folds one job's input set into the partition. Safe for concurrent
// use.
func (m *Monitor) Observe(files []trace.FileID) {
	m.engine.Observe(files)
}

// ObserveBatch folds several jobs' input sets — the batched ingestion path
// for serving layers, where per-request overhead dominates at high request
// rates.
func (m *Monitor) ObserveBatch(jobs [][]trace.FileID) {
	m.engine.ObserveBatch(jobs)
}

// ObserveJob folds a trace job.
func (m *Monitor) ObserveJob(j *trace.Job) { m.Observe(j.Files) }

// ObserveSource drains a job stream into the monitor, returning the number
// of jobs folded in. Streaming ingestion for serving layers: memory stays
// bounded by the source's chunk size regardless of trace length.
func (m *Monitor) ObserveSource(src trace.Source) (int64, error) {
	return m.engine.ObserveSource(src)
}

// Observed returns the number of jobs folded in so far.
func (m *Monitor) Observed() int64 { return m.engine.Observed() }

// NumFilecules returns the current exact filecule count in O(1); see
// Engine.NumFilecules for its use as a membership version.
func (m *Monitor) NumFilecules() int { return m.engine.NumFilecules() }

// JobCacheStats reports the engine's repeat-job cache size, sweeps and
// fast-path hits.
func (m *Monitor) JobCacheStats() JobCacheStats { return m.engine.JobCacheStats() }

// SnapshotStats reports how many snapshots shared the previous one's shape
// and how many were assembled from scratch.
func (m *Monitor) SnapshotStats() SnapshotStats { return m.engine.SnapshotStats() }

// Membership returns a partition with the current membership whose request
// counts may be stale; see Engine.Membership.
func (m *Monitor) Membership() *Partition { return m.engine.Membership() }

// Lookup returns the filecule containing f with its exact request count and a
// partition of the same membership; see Engine.Lookup.
func (m *Monitor) Lookup(f trace.FileID) (*Partition, Filecule, bool) { return m.engine.Lookup(f) }

// Snapshot returns a consistent canonical Partition of everything observed
// so far. Safe for concurrent use; the returned partition is immutable and
// cached until the next Observe, so callers may compare successive results
// by pointer to detect change.
func (m *Monitor) Snapshot() *Partition { return m.engine.Snapshot() }
