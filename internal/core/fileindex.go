package core

import "filecule/internal/trace"

// fileIndex is the package's one FileID → int32 table: in effect a flat
// array, stored as a three-level radix over the ID's 32 bits (10 + 9 + 13) so
// that memory follows the pages holding an entry, not the largest ID. A dense
// catalog of n files costs n/8192 pages of 32 KiB plus a 4 KiB directory per
// 4 Mi IDs; a lone file at ID 2^31-1 costs one of each. Negative IDs address
// the upper half of the space like any other int32. The zero value is empty,
// and an absent entry reads 0: users store 1 + the value they mean.
//
// Not safe for concurrent mutation. The Engine writes it under the gate's
// write side; a Partition publishes a finished one through an atomic pointer.
type fileIndex struct {
	top [1 << (32 - idxDirBits - idxPageBits)]*idxDir
}

const (
	idxPageBits = 13 // 8 Ki entries, 32 KiB per page
	idxDirBits  = 9
)

type (
	idxPage [1 << idxPageBits]int32
	idxDir  [1 << idxDirBits]*idxPage
)

// idxSplit cuts f into its top-level, directory and page offsets.
func idxSplit(f trace.FileID) (t, d, o uint32) {
	u := uint32(f)
	return u >> (idxDirBits + idxPageBits), u >> idxPageBits & (1<<idxDirBits - 1), u & (1<<idxPageBits - 1)
}

// get returns f's entry, 0 if none was ever stored.
func (x *fileIndex) get(f trace.FileID) int32 {
	t, d, o := idxSplit(f)
	if dir := x.top[t]; dir != nil {
		if pg := dir[d]; pg != nil {
			return pg[o]
		}
	}
	return 0
}

// cell returns the address of f's entry, installing its page on first touch.
// Pages never move, so the address stays valid for the life of the index.
func (x *fileIndex) cell(f trace.FileID) *int32 {
	t, d, o := idxSplit(f)
	if x.top[t] == nil {
		x.top[t] = new(idxDir)
	}
	dir := x.top[t]
	if dir[d] == nil {
		dir[d] = new(idxPage)
	}
	return &dir[d][o]
}

// zeroPage stands in for every page not installed, on read-only walks.
var zeroPage idxPage

// pageAt returns the page at top-level slot t and directory slot d, or
// &zeroPage when there is none.
func (x *fileIndex) pageAt(t, d int) *idxPage {
	if dir := x.top[t]; dir != nil && dir[d] != nil {
		return dir[d]
	}
	return &zeroPage
}

// fileStates is IdentifyJobs' per-file working state, addressed by the FileID
// itself like fileIndex, but with 16-byte entries. fileIndex's 8 Ki-entry
// pages would make that 128 KiB for a lone ID, so its pages hold 1 Ki entries
// (16 KiB) under 512-pointer directories (4 KiB) and a top level of 8 Ki
// pointers: a lone ID costs one page and one directory, a dense catalog of n
// files n/1024 pages.
type fileStates struct {
	top [1 << (32 - stDirBits - stPageBits)]*stDir
}

const (
	stPageBits = 10
	stDirBits  = 9
)

// fileState is one file's row of IdentifyJobs' passes.
type fileState struct {
	hash uint64 // running hash of the file's job list
	end  int32  // list length, then fill cursor, finally the list's end
	mark int32  // last job counted (+k) or filled (-k), then 1 + the group
}

type (
	statePage [1 << stPageBits]fileState
	stDir     [1 << stDirBits]*statePage
)

// page returns page p (the IDs p<<stPageBits onwards, as uint32), installing
// it on first touch.
func (x *fileStates) page(p uint32) *statePage {
	t, d := p>>stDirBits, p&(1<<stDirBits-1)
	if x.top[t] == nil {
		x.top[t] = new(stDir)
	}
	dir := x.top[t]
	if dir[d] == nil {
		dir[d] = new(statePage)
	}
	return dir[d]
}

// statePageAt is an installed page and the first FileID it holds.
type statePageAt struct {
	base trace.FileID
	pg   *statePage
}

// pages lists the installed pages in int32 order of the IDs they hold:
// negative IDs, in the upper half of the uint32 space, first.
func (x *fileStates) pages() []statePageAt {
	var out []statePageAt
	n := len(x.top)
	for i := range n {
		t := (i + n/2) & (n - 1)
		dir := x.top[t]
		if dir == nil {
			continue
		}
		for d, pg := range dir {
			if pg != nil {
				p := uint32(t)<<stDirBits | uint32(d)
				out = append(out, statePageAt{base: trace.FileID(p << stPageBits), pg: pg})
			}
		}
	}
	return out
}
