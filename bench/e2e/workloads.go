package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"filecule/internal/server"
	"filecule/internal/sim"
	"filecule/internal/trace"
	"filecule/internal/workload"
)

// passFunc runs one pass and returns what its timed phases did: work units,
// operations attempted and failed, and the timed wall. Everything else the
// pass spends (boot, prefill, recovery, verification, teardown) is set-up.
// An error means an output disagreed with its oracle.
type passFunc func(pass int, sc scope) (tally, error)

// workloadDef is one benchmark workload. setup derives the workload's own
// inputs from the run input once and returns the pass.
type workloadDef struct {
	name  string
	why   string // one sentence; BENCHMARK.json and bench/README.md repeat it
	scale float64
	unit  string // the work unit throughput_per_s counts
	setup func(in *input, o *options) (passFunc, error)
}

var workloads = []workloadDef{
	{"sweep-paper", "the paper's Figure 10 at grid scale: filecule-cachesim -sweep on a trace file; sim/core/trace do all the work and wire/server/durable none, so serving changes must leave it flat",
		0.025, "cell-req", setupSweep},
	{"ingest-durable", "operator ingest with crash-safety on: decode, wire batches, engine, WAL, checkpoints, a restart from the state directory, partition; first-touch observes with per-request overhead amortised",
		0.5, "jobs", setupIngestDurable},
	{"serve-mixed", "the section-6 advice service with writes beside reads: every observe invalidates the snapshot, so the next advise pays Engine.Snapshot plus a granularity rebuild",
		0.2, "ops", func(in *input, o *options) (passFunc, error) { return setupServe(in, o, false) }},
	{"serve-read", "the same service and request stream with the observes turned into advises: the settled-snapshot path, which a gain for the mixed workload must not slow",
		0.2, "ops", func(in *input, o *options) (passFunc, error) { return setupServe(in, o, true) }},
	{"ingest-http", "the JSON surface one job per request: the same server/core layers as ingest-durable in the per-request-overhead regime, so a change that helps wire at JSON's cost shows",
		0.2, "jobs", setupIngestHTTP},
}

func lookupWorkload(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// spotCells is the slice of the grid the reference simulator replays as the
// sweep's oracle: LRU at file and filecule granularity, 5 and 50 TB.
func spotCells(scale float64) sim.SweepConfig {
	return sim.SweepConfig{Scale: scale, Policies: []string{"lru"},
		Granularities: []string{"file", "filecule"}, CapacitiesTB: []float64{5, 50}}
}

func findCell(cells []sim.CellResult, policy, gran string, tb float64) *sim.CellResult {
	for i := range cells {
		if c := &cells[i]; c.Policy == policy && c.Granularity == gran && c.CacheTB == tb {
			return c
		}
	}
	return nil
}

// setupSweep: exactly `filecule-cachesim -sweep -workload file,path=...`.
// Work is requests x cells.
func setupSweep(in *input, _ *options) (passFunc, error) {
	want, err := sim.SweepSequential(in.t, in.oracle, in.t.Requests(), spotCells(in.scale))
	if err != nil {
		return nil, fmt.Errorf("reference sweep: %w", err)
	}
	var first []sim.CellResult
	return func(pass int, sc scope) (tally, error) {
		var res *sim.SweepResult
		var err error
		ta := sc.timed(func() tally {
			t0 := time.Now()
			id := sc.open("workload.OpenOrdered")
			src, oerr := workload.OpenOrdered(in.spec)
			sc.close(id)
			if err = oerr; err != nil {
				return tally{}
			}
			id = sc.open("sim.SweepSource")
			res, err = sim.SweepSource(src, sim.SweepConfig{Scale: in.scale})
			sc.close(id)
			src.Close()
			if err == nil {
				err = res.WriteJSON(io.Discard)
			}
			if err != nil {
				return tally{}
			}
			return tally{work: int64(res.Requests) * int64(len(res.Cells)), attempted: 1, wall: time.Since(t0)}
		})
		if err != nil {
			return ta, err
		}

		if res.Jobs != len(in.jobs) || res.Filecules != in.oracle.NumFilecules() {
			return ta, fmt.Errorf("sweep saw %d jobs and %d filecules, oracle has %d and %d",
				res.Jobs, res.Filecules, len(in.jobs), in.oracle.NumFilecules())
		}
		for _, w := range want.Cells {
			g := findCell(res.Cells, w.Policy, w.Granularity, w.CacheTB)
			if g == nil || g.Metrics != w.Metrics {
				return ta, fmt.Errorf("cell %s/%s/%gTB differs from the reference simulator", w.Policy, w.Granularity, w.CacheTB)
			}
		}
		if first == nil {
			first = res.Cells
		}
		if !slices.Equal(res.Cells, first) {
			return ta, fmt.Errorf("pass %d: the grid differs from pass 0", pass)
		}
		return ta, nil
	}, nil
}

// setupIngestDurable: boot on a fresh state directory, ingest the trace in
// 64-job wire batches with a checkpoint at 1/4, a graceful stop and restart
// at 1/2 (checkpoint + a quarter of the trace replayed from the WAL) and a
// checkpoint at 3/4, then hold the served partition to the oracle. Timed:
// the four ingest segments and the two checkpoints. Work is jobs.
func setupIngestDurable(in *input, _ *options) (passFunc, error) {
	const batch = 64
	batches := in.batches(batch)
	nb := len(batches)
	cut := [5]int{0, nb / 4, nb / 2, 3 * nb / 4, nb}
	jobsBefore := func(b int) int64 { return int64(min(b*batch, len(in.jobs))) }

	// half 0 ingests quarters 1 and 2 on a fresh directory, half 1 recovers
	// and ingests quarters 3 and 4.
	ingestHalf := func(x *instance, half int, ta *tally, sc scope) error {
		var wantObserved, wantReplayed int64
		if half == 1 {
			wantObserved = jobsBefore(cut[2])
			wantReplayed = wantObserved - jobsBefore(cut[1])
		}
		if rec := x.d.Recovery(); rec.Fresh != (half == 0) || rec.Observed != wantObserved || rec.ReplayedJobs != wantReplayed {
			return fmt.Errorf("half %d: recovered %d jobs (%d replayed from the WAL, fresh=%v), want %d (%d)",
				half, rec.Observed, rec.ReplayedJobs, rec.Fresh, wantObserved, wantReplayed)
		}
		cs, err := x.dial()
		if err != nil {
			return err
		}
		defer closeAll(cs)
		q := 2 * half
		ta.add(sc.timed(func() tally { return ingestWire(cs, batches, cut[q], cut[q+1], sc) }))
		ta.add(sc.timed(func() tally { return x.checkpoint(sc) }))
		ta.add(sc.timed(func() tally { return ingestWire(cs, batches, cut[q+1], cut[q+2], sc) }))
		if half == 1 {
			return x.checkPartition(in, sc)
		}
		return nil
	}

	return func(pass int, sc scope) (tally, error) {
		dir := filepath.Join(in.dir, "state")
		defer os.RemoveAll(dir) // segments preallocate 64 MiB each
		var ta tally
		for half := 0; half < 2; half++ {
			x, err := boot(in, dir, sc)
			if err != nil {
				return ta, err
			}
			err = ingestHalf(x, half, &ta, sc)
			id := sc.open("stop+durable.Close")
			serr := x.stop()
			sc.close(id)
			if err == nil {
				err = serr
			}
			if err != nil {
				return ta, err
			}
		}
		return ta, nil
	}, nil
}

// setupServe: boot, prefill the whole trace over wire in 256-job batches,
// then drive the advice service's request mix for a fixed time. Work is
// operations answered.
func setupServe(in *input, o *options, readOnly bool) (passFunc, error) {
	sv := newServeInput(in)
	if len(sv.nonEmpty) == 0 {
		return nil, fmt.Errorf("trace has no job with input files")
	}
	return func(pass int, sc scope) (tally, error) {
		x, err := boot(in, "", sc)
		if err != nil {
			return tally{}, err
		}
		ta, err := servePass(x, sv, o.phase(), readOnly, sc)
		if serr := x.stop(); err == nil {
			err = serr
		}
		return ta, err
	}, nil
}

func servePass(x *instance, sv *serveInput, dur time.Duration, readOnly bool, sc scope) (tally, error) {
	cs, err := x.dial()
	if err != nil {
		return tally{}, err
	}
	id := sc.open("prefill")
	pre := ingestWire(cs, sv.prefill, 0, len(sv.prefill), scope{}) // its round trips are not spans of interest
	sc.close(id)
	closeAll(cs)
	if pre.failed > 0 {
		return tally{}, fmt.Errorf("prefill: %d of %d batches failed", pre.failed, pre.attempted)
	}
	return servePhase(x, sv, dur, readOnly, sc)
}

// setupIngestHTTP: boot without durability, POST the whole trace to
// /v1/jobs one job per request, then hold the served partition to the
// oracle. Work is jobs.
func setupIngestHTTP(in *input, _ *options) (passFunc, error) {
	bodies, err := jobBodies(in.jobs)
	if err != nil {
		return nil, err
	}
	return func(pass int, sc scope) (tally, error) {
		x, err := boot(in, "", sc)
		if err != nil {
			return tally{}, err
		}
		ta := sc.timed(func() tally { return ingestHTTP(x, bodies, sc) })
		err = x.checkPartition(in, sc)
		if serr := x.stop(); err == nil {
			err = serr
		}
		return ta, err
	}, nil
}

// jobBodies marshals every job's /v1/jobs body once, so the timed loop
// measures the server's JSON path and not the client's.
func jobBodies(jobs [][]trace.FileID) ([][]byte, error) {
	bodies := make([][]byte, len(jobs))
	for i, files := range jobs {
		b, err := json.Marshal(server.JobBody{Files: files})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}
