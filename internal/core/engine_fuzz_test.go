package core

import (
	"slices"
	"testing"

	"filecule/internal/trace"
)

// What the fuzz stream asks for after a job, chosen by the byte that
// terminates it. Any other terminator snapshots, as every terminator did
// before reads were interleaved.
const (
	fuzzOpNone   = 0xFE // no read: the next snapshot covers several observes
	fuzzOpExport = 0xFD // ExportState, imported into a fresh engine
	fuzzOpLookup = 0xFC // point reads of the job's files, no snapshot
)

// decodeFuzzJobs turns fuzzer bytes into a job stream over a small file
// population: bytes 0xF8..0xFF terminate the current job (empty jobs are
// legal and must be no-ops) and select the read that follows it, any other
// byte contributes file ID b&0x3F (duplicates within a job are legal and must
// be deduplicated). The last job is followed by a snapshot.
func decodeFuzzJobs(data []byte) (jobs [][]trace.FileID, ops []byte) {
	if len(data) > 256 {
		data = data[:256]
	}
	var cur []trace.FileID
	for _, b := range data {
		if b >= 0xF8 {
			jobs, ops = append(jobs, cur), append(ops, b)
			cur = nil
			continue
		}
		cur = append(cur, trace.FileID(b&0x3F))
	}
	return append(jobs, cur), append(ops, 0xFF)
}

// clonePartition deep-copies what a reader of p can see.
func clonePartition(p *Partition) *Partition {
	fcs := slices.Clone(p.Filecules)
	for i := range fcs {
		fcs[i].Files = slices.Clone(fcs[i].Files)
	}
	return NewPartition(fcs)
}

// FuzzEnginePrefix is the prefix-equivalence property as a fuzz target:
// whatever reads are interleaved with the observes of a fuzz-generated
// stream — snapshots after one job or after several (so both the shared-shape
// and the rebuilt path run), state exports, point lookups — each must equal
// batch identification over the jobs observed so far, the same bar the
// Refiner is held to, across an arbitrary interleaving of splits, duplicates,
// empty jobs and re-requests; and a snapshot handed out earlier must not
// change under later ones.
func FuzzEnginePrefix(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0xFF, 1, 2, 0xFF, 2})
	f.Add([]byte{0xFF, 0xFF, 5, 5, 5, 0xFF, 5})
	f.Add([]byte{10, 11, 12, 13, 0xFF, 10, 11, 0xFF, 12, 0xFF, 10, 13})
	f.Add([]byte{1, 2, 3, 0xFF, 1, 2, 3, 0xFE, 1, 2, 3, 0xFF, 4, 0xFE, 1, 0xFC, 1, 2, 3, 4})
	f.Add([]byte{1, 2, 0xFD, 1, 2, 0xFD, 1, 0xFD, 7, 8, 0xFE, 0xFD, 2, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		jobs, ops := decodeFuzzJobs(data)
		tr := &trace.Trace{}
		for i, files := range jobs {
			tr.Jobs = append(tr.Jobs, trace.Job{ID: trace.JobID(i), Files: files})
		}
		e := NewEngine(0)
		r := NewRefiner()
		ids := make([]trace.JobID, 0, len(jobs))
		var held, heldCopy *Partition
		for k, files := range jobs {
			e.Observe(files)
			r.Observe(files)
			ids = append(ids, trace.JobID(k))
			if ops[k] == fuzzOpNone {
				continue
			}
			want := IdentifyJobs(tr, ids)
			if e.NumFilecules() != want.NumFilecules() {
				t.Fatalf("job %d: NumFilecules = %d, want %d", k, e.NumFilecules(), want.NumFilecules())
			}
			if !want.Equal(r.Partition()) {
				t.Fatalf("job %d: refiner differs from IdentifyJobs over the prefix", k)
			}
			var got *Partition
			switch ops[k] {
			case fuzzOpLookup:
			case fuzzOpExport:
				st := e.ExportState()
				if st.Observed != int64(k+1) {
					t.Fatalf("job %d: export observed %d", k, st.Observed)
				}
				e2 := NewEngine(0)
				if err := e2.ImportState(st); err != nil {
					t.Fatalf("job %d: import of the export: %v", k, err)
				}
				got = e2.Snapshot()
			default:
				got = e.Snapshot()
				if held != nil && !held.Equal(heldCopy) {
					t.Fatalf("job %d: an earlier snapshot changed after it was handed out", k)
				}
				held, heldCopy = got, clonePartition(got)
			}
			if got != nil {
				if !want.Equal(got) {
					t.Fatalf("job %d: engine snapshot differs from IdentifyJobs over the prefix", k)
				}
				if err := got.Validate(); err != nil {
					t.Fatalf("job %d: %v", k, err)
				}
			}
			for _, f := range files {
				_, fc, ok := e.Lookup(f)
				if w := want.FileculeOf(f); !ok || fc.ID != w.ID || fc.Requests != w.Requests || !slices.Equal(fc.Files, w.Files) {
					t.Fatalf("job %d: Lookup(%d) = %+v, %v; IdentifyJobs over the prefix has %+v", k, f, fc, ok, *w)
				}
			}
			if m := e.Membership(); m.NumFilecules() != want.NumFilecules() || m.NumFiles() != want.NumFiles() {
				t.Fatalf("job %d: Membership has %d filecules over %d files, want %d over %d",
					k, m.NumFilecules(), m.NumFiles(), want.NumFilecules(), want.NumFiles())
			}
		}
	})
}
