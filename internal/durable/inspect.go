package durable

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"filecule/internal/trace"
)

// Inspect is the read-only view of a state directory: what `filecule-state
// dump` prints. It is Open's walk — scanStateDir, loadCheckpoint, chainGap,
// replayChain — with nothing applied and nothing repaired: leftover .tmp
// files stay, torn tails stay, and what Open would do about each is printed.

// GroupInfo is one filecule group's counts in a checkpoint.
type GroupInfo struct {
	SigLo, SigHi uint64
	Files        int
	Requests     int
}

// CheckpointInfo summarizes one decoded checkpoint file.
type CheckpointInfo struct {
	Epoch    uint64
	Path     string
	Bytes    int64
	Observed int64
	NextGen  uint64
	Files    int
	Requests int64
	Groups   []GroupInfo
}

// SegmentInfo summarizes one epoch's WAL file.
type SegmentInfo struct {
	Epoch uint64
	Path  string
	Bytes int64
	Base  int64  // observed-count the file starts at
	Jobs  int64  // replayable jobs in the file
	Note  string // non-fatal condition recovery will repair (torn tail)

	validTo  int64 // offset the file is well-formed up to; recovery truncates the rest
	noHeader bool  // magic or header chunk unreadable; recovery recreates the file
}

// Report is everything Inspect learned about a state directory.
type Report struct {
	Dir         string
	Checkpoints []CheckpointInfo
	Segments    []SegmentInfo
	TempFiles   []string // leftover .tmp files (the next Open removes them)
	// Problems lists real corruption: conditions recovery cannot repair
	// without falling back or failing. Empty means the directory is clean
	// (a torn newest tail is a crash artifact, not a problem — it appears
	// as a Note on its WAL instead).
	Problems []string
}

// Inspect reads dir without modifying it and reports its checkpoints, WAL
// chain, and any corruption. The returned error covers only an
// unreadable directory; corruption findings land in Report.Problems so the
// caller can render the full picture before failing.
func Inspect(dir string) (*Report, error) {
	ckpts, wals, tmps, refused, err := scanStateDir(dir)
	if err != nil {
		return nil, err
	}
	r := &Report{Dir: dir, TempFiles: tmps}
	problem := func(err error) { r.Problems = append(r.Problems, err.Error()) }
	for _, err := range refused {
		problem(err)
	}
	if len(ckpts) == 0 && len(wals) > 0 {
		problem(errors.New("WAL files but no checkpoint"))
	}

	observed := make(map[uint64]int64, len(ckpts)) // by epoch, of the checkpoints Open would accept
	for _, e := range ckpts {
		info := CheckpointInfo{Epoch: e, Path: ckptPath(dir, e)}
		if fi, err := os.Stat(info.Path); err == nil {
			info.Bytes = fi.Size()
		}
		if _, st, err := loadCheckpoint(dir, e); err != nil {
			problem(err)
		} else {
			observed[e] = st.Observed
			info.Observed = st.Observed
			info.NextGen = st.NextGen
			for i := range st.Groups {
				g := &st.Groups[i]
				info.Files += len(g.Files)
				info.Requests += int64(g.Requests)
				info.Groups = append(info.Groups, GroupInfo{
					SigLo: g.SigLo, SigHi: g.SigHi,
					Files: len(g.Files), Requests: g.Requests,
				})
			}
		}
		r.Checkpoints = append(r.Checkpoints, info)
	}
	if len(ckpts) > 0 {
		if err := chainGap(wals, ckpts[len(ckpts)-1]); err != nil {
			problem(err)
		}
	}

	// Walk every WAL epoch on disk, the fallback one included. Open starts
	// from a checkpoint, not from the WAL before, so an epoch's WAL must also
	// start where its checkpoint stands.
	segs, problems := replayChain(dir, wals, 0, anyBase, func([]trace.FileID) {})
	r.Segments = segs
	for _, err := range problems {
		problem(err)
	}
	for i := range segs {
		s := &segs[i]
		if o, ok := observed[s.Epoch]; ok && s.validTo > 0 && s.Base != o {
			problem(fmt.Errorf("durable: %s: base %d does not chain from checkpoint-%d at %d", s.Path, s.Base, s.Epoch, o))
		}
	}
	return r, nil
}

// WriteTo renders the report in the dump format: one line per file in
// recovery order, then problems. withGroups adds one line per filecule
// group under each checkpoint.
func (r *Report) WriteTo(w io.Writer, withGroups bool) {
	fmt.Fprintf(w, "state dir %s: %d checkpoint(s), %d WAL file(s)\n",
		r.Dir, len(r.Checkpoints), len(r.Segments))
	for i := range r.Checkpoints {
		c := &r.Checkpoints[i]
		fmt.Fprintf(w, "  %-16s %9d bytes  observed %-8d next-gen %-8d groups %-6d files %-6d requests %d\n",
			filepath.Base(c.Path), c.Bytes, c.Observed, c.NextGen, len(c.Groups), c.Files, c.Requests)
		if withGroups {
			for _, g := range c.Groups {
				fmt.Fprintf(w, "    group %016x%016x  files %-6d requests %d\n",
					g.SigHi, g.SigLo, g.Files, g.Requests)
			}
		}
	}
	for i := range r.Segments {
		s := &r.Segments[i]
		fmt.Fprintf(w, "  %-16s %9d bytes  base %-8d jobs %d\n",
			filepath.Base(s.Path), s.Bytes, s.Base, s.Jobs)
		if s.Note != "" {
			fmt.Fprintf(w, "    note: %s\n", s.Note)
		}
	}
	for _, tmp := range r.TempFiles {
		fmt.Fprintf(w, "  %-16s (leftover temp file; removed by the next open)\n", tmp)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  CORRUPT: %s\n", p)
	}
}
