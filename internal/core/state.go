package core

import (
	"encoding/binary"
	"fmt"

	"filecule/internal/trace"
)

// Engine state export/import: the hooks the durable checkpoint layer is
// built on. An engine's future refinement behavior is fully determined by
// the groups (member files, request count, signature), the observed-job
// count, and the generation counter — so that is exactly what EngineState
// carries. The generation counter matters: signatures are sums over job
// generation numbers, so a recovered engine that reused old generations could
// name a new group with a signature a historical one still carries, and
// checkpoints and federation peers key groups by signature. Persisting
// NextGen keeps every post-recovery generation fresh.

// StateGroup is one filecule in exportable form.
type StateGroup struct {
	SigLo, SigHi uint64
	Requests     int
	Files        []trace.FileID // sorted ascending; aliases engine-owned immutable memory
	Stamp        uint64         // engine version the group was materialized at; (sig, stamp) identifies the bytes
}

// AppendStateGroup encodes one group as the record the checkpoint's and the
// federation delta's 'G' chunks carry: 16-byte little-endian signature,
// uvarint request count, run-encoded member list. Stamp is not carried.
func AppendStateGroup(dst []byte, g *StateGroup) []byte {
	dst = trace.AppendUint64(dst, g.SigLo)
	dst = trace.AppendUint64(dst, g.SigHi)
	dst = binary.AppendUvarint(dst, uint64(g.Requests))
	return trace.AppendFileRuns(dst, g.Files)
}

// ReadStateGroups decodes one 'G' chunk payload — a record count, then that
// many AppendStateGroup records and nothing after them — appending to dst.
// File IDs must lie in [0, maxID); *filesLeft is the number of member files
// the stream may still declare and is decremented by what was read. A
// malformed payload sets p's error; ordering, disjointness and distinct
// signatures are ImportState's (or the federation receiver's) to check.
func ReadStateGroups(p *trace.Payload, dst []StateGroup, maxID int64, filesLeft *int) []StateGroup {
	n := p.Count("group")
	for i := 0; i < n && p.Err() == nil; i++ {
		g := StateGroup{SigLo: p.Uint64(), SigHi: p.Uint64(), Requests: int(p.Uvarint())}
		g.Files = p.FileRuns(nil, maxID, *filesLeft)
		if p.Err() != nil {
			return dst
		}
		if g.Requests < 1 {
			p.Fail("group %d request count %d < 1", i, g.Requests)
			return dst
		}
		*filesLeft -= len(g.Files)
		dst = append(dst, g)
	}
	if p.Err() == nil && p.Remaining() != 0 {
		p.Fail("%d bytes after last group record", p.Remaining())
	}
	return dst
}

// EngineState is a consistent copy-on-write export of an Engine: no observe
// is half-reflected, and Observed/NextGen correspond exactly to the groups.
type EngineState struct {
	Observed int64
	NextGen  uint64
	Version  uint64       // engine version the export corresponds to; every Stamp <= Version
	Groups   []StateGroup // canonical order: by smallest member file
}

// ChangedSince returns the groups whose Stamp is newer than version — the
// groups whose bytes a holder of the state at that version does not have.
// Together with the full live-signature list this is a complete delta: a
// signature never resurrects (a dead signature would need the exact multiset
// of job generations to reappear, and generations are never reused), so a
// live group with Stamp <= version was live, unchanged, at version.
func (st *EngineState) ChangedSince(version uint64) []StateGroup {
	out := make([]StateGroup, 0, 16)
	for i := range st.Groups {
		if st.Groups[i].Stamp > version {
			out = append(out, st.Groups[i])
		}
	}
	return out
}

// ExportState captures the engine's durable state. Like Snapshot it reuses
// per-group materializations across calls, so a steady-state export costs
// O(groups) bookkeeping plus work only for groups that changed; the Files
// slices are immutable and safe to retain after the engine resumes
// observing. Groups whose Stamp is unchanged since a previous export are
// byte-for-byte identical.
func (e *Engine) ExportState() *EngineState {
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	version, observed, nextGen := e.refresh()
	order := e.canonical()
	st := &EngineState{
		Observed: observed,
		NextGen:  nextGen,
		Version:  version,
		Groups:   make([]StateGroup, len(order)),
	}
	for i, bi := range order {
		g := &e.groups[bi]
		st.Groups[i] = StateGroup{
			SigLo:    g.sig.lo,
			SigHi:    g.sig.hi,
			Requests: g.requests,
			Files:    g.files,
			Stamp:    g.stamp,
		}
	}
	return st
}

// ImportState rebuilds engine state from an export. The engine must be
// fresh (nothing observed); the state is validated structurally — sorted
// strictly-ascending member lists, no file in two groups, no duplicate
// signatures, positive request counts — and a violation leaves the engine
// unusable and returns an error naming the offending group.
//
// The rebuilt engine is observationally equivalent to the exporter: every
// group becomes one block holding its files, carrying the original signature
// and request count. The signatures need only be distinct, whatever engine
// minted them: state written while a signature summed a group's whole job set
// imports like any other.
func (e *Engine) ImportState(st *EngineState) error {
	if e.observed.Load() != 0 || e.nblocks.Load() != 0 {
		return fmt.Errorf("core: ImportState on a non-empty engine (%d jobs observed)", e.observed.Load())
	}
	if st.Observed < 0 {
		return fmt.Errorf("core: state declares negative observed count %d", st.Observed)
	}
	seenSigs := make(map[sig128]struct{}, len(st.Groups))
	for gi := range st.Groups {
		g := &st.Groups[gi]
		sig := sig128{lo: g.SigLo, hi: g.SigHi}
		if _, dup := seenSigs[sig]; dup {
			return fmt.Errorf("core: state group %d: duplicate signature %016x%016x", gi, g.SigHi, g.SigLo)
		}
		seenSigs[sig] = struct{}{}
		if len(g.Files) == 0 {
			return fmt.Errorf("core: state group %d: empty file list", gi)
		}
		if g.Requests < 1 {
			return fmt.Errorf("core: state group %d: request count %d < 1", gi, g.Requests)
		}
		lo := int32(len(e.perm))
		for i, f := range g.Files {
			if f < 0 {
				return fmt.Errorf("core: state group %d: negative file ID %d", gi, f)
			}
			if i > 0 && g.Files[i-1] >= f {
				return fmt.Errorf("core: state group %d: file list not strictly ascending at index %d", gi, i)
			}
			// Slot interning doubles as the cross-group duplicate check: a
			// file that already has a slot is in two groups.
			c := e.slots.cell(f)
			if *c != 0 {
				return fmt.Errorf("core: state group %d: file %d appears in more than one group", gi, f)
			}
			slot := int32(len(e.file))
			*c = slot + 1
			e.file = append(e.file, f)
			e.pos = append(e.pos, slot)
			e.perm = append(e.perm, slot)
			e.blockOf = append(e.blockOf, -1)
		}
		e.addBlock(eblock{lo: lo, hi: int32(len(e.perm)), requests: g.Requests, sig: sig})
	}
	e.nblocks.Store(int64(len(e.blocks)))
	e.observed.Store(st.Observed)
	e.slowJobs.Store(st.Observed) // fast-path hits count from this process's start
	e.nextGen = st.NextGen
	e.version.Store(uint64(st.Observed))
	return nil
}
