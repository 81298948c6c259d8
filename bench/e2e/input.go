package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"filecule/internal/core"
	"filecule/internal/server"
	"filecule/internal/synth"
	"filecule/internal/trace"
)

// input is everything one run derives from -seed before any pass: the
// generated trace (kept by the harness as the oracle's view), the
// filecule-bin/v1 file that product code reads, and the batch-identified
// partition every served answer is held to. Product code only ever receives
// path/spec and job file lists.
type input struct {
	seed  int64
	scale float64
	dir   string // scratch directory of this run
	path  string // the trace file
	spec  string // its -workload spec

	t          *trace.Trace
	jobs       [][]trace.FileID // every job's input set, in file order
	catalog    *trace.Trace     // Files only, for byte sizing
	oracle     *core.Partition
	oracleJSON []byte // server.PartitionJSON of the oracle over the whole trace

	genS, encodeS, identifyS float64
	fileBytes                int64
}

func prepare(seed int64, scale float64, dir string) (*input, error) {
	in := &input{seed: seed, scale: scale, dir: dir}
	t0 := time.Now()
	t, err := synth.Generate(synth.DZero(seed, scale))
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	in.genS = time.Since(t0).Seconds()
	// The trace formats keep whole seconds. Round the generated times down
	// first, so the harness's view and the file's content expand into the
	// same request stream and the sweep's oracle is exact.
	for i := range t.Jobs {
		j := &t.Jobs[i]
		j.Start, j.End = j.Start.Truncate(time.Second), j.End.Truncate(time.Second)
	}
	t.SortJobsByStart()
	trimToBudget(t, int(requestsPerScale*scale))
	in.t = t
	in.catalog = &trace.Trace{Files: t.Files}
	in.jobs = make([][]trace.FileID, len(t.Jobs))
	for i := range t.Jobs {
		in.jobs[i] = t.Jobs[i].Files
	}

	in.path = filepath.Join(dir, "trace.bin")
	in.spec = "file,path=" + in.path
	t0 = time.Now()
	if in.fileBytes, err = writeBin(in.path, t); err != nil {
		return nil, err
	}
	in.encodeS = time.Since(t0).Seconds()

	t0 = time.Now()
	in.oracle = core.Identify(t)
	in.identifyS = time.Since(t0).Seconds()
	if in.oracleJSON, err = server.PartitionJSON(in.oracle, int64(len(t.Jobs)), in.catalog); err != nil {
		return nil, fmt.Errorf("oracle partition: %w", err)
	}
	return in, nil
}

// requestsPerScale sizes every run's trace: 7.5 M file requests per unit of
// scale, just under what the leanest of 64 surveyed seeds generates.
const requestsPerScale = 7.5e6

// trimToBudget keeps, in start order, the jobs that fit a budget of file
// requests, drops the rest and renumbers. DZero's job sizes are heavy-tailed, so the request
// total of a trace swings with the seed (by 2x at scale 0.025) and peak RSS
// and pass length with it; with the budget every seed gives a trace of the
// same size.
func trimToBudget(t *trace.Trace, budget int) {
	kept := t.Jobs[:0]
	for _, j := range t.Jobs {
		if len(j.Files) <= budget {
			budget -= len(j.Files)
			j.ID = trace.JobID(len(kept))
			kept = append(kept, j)
		}
	}
	t.Jobs = kept
}

func writeBin(path string, t *trace.Trace) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := trace.WriteBin(bw, t); err != nil {
		f.Close()
		return 0, fmt.Errorf("encode %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return 0, err
	}
	return st.Size(), f.Close()
}

// batches cuts the job list into consecutive slices of n jobs.
func (in *input) batches(n int) [][][]trace.FileID {
	var out [][][]trace.FileID
	for lo := 0; lo < len(in.jobs); lo += n {
		out = append(out, in.jobs[lo:min(lo+n, len(in.jobs))])
	}
	return out
}

// damageOracle makes the oracle wrong in ways every workload's verification
// must notice: one filecule missing, one byte of the partition JSON flipped.
// Only the smoke test calls it.
func (in *input) damageOracle() {
	in.oracle = core.NewPartition(slices.Clone(in.oracle.Filecules[:in.oracle.NumFilecules()-1]))
	in.oracleJSON = slices.Clone(in.oracleJSON)
	in.oracleJSON[len(in.oracleJSON)/2] ^= 1
}
