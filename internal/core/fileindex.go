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
