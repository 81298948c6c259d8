package sim

import (
	"io"
	"slices"

	"filecule/internal/core"
	"filecule/internal/trace"
)

// SweepSource replays the full grid from a job stream instead of a
// materialized trace: one pass drains src, folding each job into an online
// identification engine and keeping what its request expansion reads (ID,
// interval, a copy of the file list), then merges the runs straight into the
// 4-byte file-ID stream and drops the runs before any axis or cell is built.
// Peak memory is the larger of that merge (the runs and the stream at once)
// and the sweep itself: the stream, one 4-byte next-use chain per axis OPT
// runs on, and the state of at most Workers cells, sized by the requested
// files and the filecules. Job records proper are never retained, so traces
// read from a chunked Source (text Scanner or binary BinSource) stream
// through without ever existing in full.
//
// For any trace t, SweepSource(trace.NewTraceSource(t), cfg) is cell-for-cell
// identical to Sweep(t, core.Identify(t), t.Requests(), cfg): identification
// is commutative over job order, and trace.MergeFiles over the jobs in
// stream order is exactly the Requests ordering.
func SweepSource(src trace.Source, cfg SweepConfig) (*SweepResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e := core.NewEngine(0)
	var runs []trace.Job
	jobs, requests := 0, 0
	for {
		j, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		e.Observe(j.Files)
		if len(j.Files) > 0 {
			runs = append(runs, trace.Job{ID: j.ID, Start: j.Start, End: j.End, Files: slices.Clone(j.Files)})
			requests += len(j.Files)
		}
		jobs++
	}
	if err := checkStreamLen(requests); err != nil {
		return nil, err
	}
	// runs is not named past this line, so it is garbage before the grid
	// allocates.
	files := trace.MergeFiles(runs)
	p := e.Snapshot()

	// The grid only needs the file catalog (sizes for capacity accounting)
	// and the partition; a catalog-only shell stands in for the trace.
	shell := &trace.Trace{Files: src.Files()}
	res := sweepFiles(shell, p, files, cfg)
	res.Jobs = jobs
	return res, nil
}
