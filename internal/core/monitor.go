package core

import (
	"filecule/internal/trace"
)

// Monitor is the goroutine-safe identification service Section 6 sketches,
// deployed at a "concentration point" (a scheduler or meta-scheduler) where
// job submissions stream past. Many submitter goroutines call Observe
// concurrently; readers take consistent Partition snapshots at any time.
//
// It is a thin wrapper around Engine, the sharded allocation-flat
// partition-refinement engine: observes touching disjoint shards proceed in
// parallel rather than serializing on one mutex, snapshots reuse unchanged
// filecule groups copy-on-write, and the filecule count is maintained
// incrementally so progress reporting costs O(1).
type Monitor struct {
	engine *Engine
}

// NewMonitor returns an empty identification service with the default
// shard layout.
func NewMonitor() *Monitor { return NewMonitorShards(0) }

// NewMonitorShards returns an empty identification service with the given
// engine shard count (<= 0 selects DefaultEngineShards).
func NewMonitorShards(shards int) *Monitor {
	return &Monitor{engine: NewEngine(shards)}
}

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

// NumFilecules returns the current exact filecule count in O(1).
func (m *Monitor) NumFilecules() int { return m.engine.NumFilecules() }

// Shards returns the engine's shard count (a capacity diagnostic exposed by
// serving layers).
func (m *Monitor) Shards() int { return m.engine.Shards() }

// Blocks returns the engine's raw per-shard block count (>= NumFilecules;
// the gap measures cross-shard filecule spread).
func (m *Monitor) Blocks() int64 { return m.engine.Blocks() }

// JobCacheStats reports the engine's repeat-job cache size, sweeps and
// fast-path hits.
func (m *Monitor) JobCacheStats() JobCacheStats { return m.engine.JobCacheStats() }

// Snapshot returns a consistent canonical Partition of everything observed
// so far. Safe for concurrent use; the returned partition is immutable and
// cached until the next Observe, so callers may compare successive results
// by pointer to detect change.
func (m *Monitor) Snapshot() *Partition { return m.engine.Snapshot() }
