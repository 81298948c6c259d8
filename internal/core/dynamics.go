package core

import (
	"fmt"

	"filecule/internal/trace"
)

// This file answers the paper's Section 8 future-work questions about
// filecule dynamics: "How dynamic are they? Do files stay in the same
// filecules or do they change over time? ... are two filecules that contain
// the same file identical?" — by identifying filecules in successive time
// windows and comparing the resulting partitions.

// Similarity quantifies how alike two partitions are, over the files both
// cover.
type Similarity struct {
	// CommonFiles is the number of files covered by both partitions.
	CommonFiles int
	// PairJaccard is |pairs co-grouped in both| / |pairs co-grouped in
	// either|, over common files. 1 means identical grouping; 0 means no
	// co-grouped pair survives. Undefined (0) when neither side
	// co-groups any common pair.
	PairJaccard float64
	// SameFileculeFrac is the fraction of common files whose filecule is
	// byte-for-byte identical in both partitions (restricted to common
	// files) — the paper's "are two filecules that contain the same file
	// identical?".
	SameFileculeFrac float64
}

// ComparePartitions computes the Similarity of two partitions. It runs in
// time linear in the number of common files using block-intersection
// counting (no quadratic pair enumeration).
func ComparePartitions(a, b *Partition) Similarity {
	// Collect common files and the (blockA, blockB) contingency counts.
	type cell struct{ ia, ib int }
	common := 0
	cells := make(map[cell]int)
	sizeA := make(map[int]int) // block -> #common files in it
	sizeB := make(map[int]int)
	for ia := range a.Filecules {
		for _, f := range a.Filecules[ia].Files {
			ib := b.Of(f)
			if ib < 0 {
				continue
			}
			common++
			cells[cell{ia, ib}]++
			sizeA[ia]++
			sizeB[ib]++
		}
	}
	s := Similarity{CommonFiles: common}
	if common == 0 {
		return s
	}
	choose2 := func(n int) int64 { return int64(n) * int64(n-1) / 2 }
	var both, inA, inB int64
	for _, n := range cells {
		both += choose2(n)
	}
	for _, n := range sizeA {
		inA += choose2(n)
	}
	for _, n := range sizeB {
		inB += choose2(n)
	}
	union := inA + inB - both
	if union > 0 {
		s.PairJaccard = float64(both) / float64(union)
	} else {
		// Neither partition co-groups any common pair: trivially
		// identical grouping.
		s.PairJaccard = 1
	}

	// A common file's filecule is "identical" when its block in a and
	// its block in b contain exactly the same common files: the block
	// pair is a bijection, i.e. |A_i ∩ B_j| == |A_i ∩ common| == |B_j ∩
	// common|.
	same := 0
	for c, n := range cells {
		if n == sizeA[c.ia] && n == sizeB[c.ib] {
			same += n
		}
	}
	s.SameFileculeFrac = float64(same) / float64(common)
	return s
}

// DynamicsReport summarizes filecule stability across consecutive windows.
type DynamicsReport struct {
	Windows []WindowStats
	// Consecutive holds the similarity between window i and i+1.
	Consecutive []Similarity
	// FirstLast compares the first and last windows directly.
	FirstLast Similarity
}

// WindowStats describes one window's partition.
type WindowStats struct {
	Jobs      int
	Files     int
	Filecules int
	MeanFiles float64
}

// AnalyzeDynamics runs the full windowed-dynamics study. n must be >= 2.
func AnalyzeDynamics(t *trace.Trace, n int) DynamicsReport {
	if n < 2 {
		panic(fmt.Sprintf("core: dynamics needs >= 2 windows, got %d", n))
	}
	windows := t.Windows(n)
	parts := make([]*Partition, n)
	rep := DynamicsReport{}
	for i, jobs := range windows {
		parts[i] = IdentifyJobs(t, jobs)
		ws := WindowStats{
			Jobs:      len(jobs),
			Files:     parts[i].NumFiles(),
			Filecules: parts[i].NumFilecules(),
		}
		if ws.Filecules > 0 {
			ws.MeanFiles = float64(ws.Files) / float64(ws.Filecules)
		}
		rep.Windows = append(rep.Windows, ws)
	}
	for i := 0; i+1 < n; i++ {
		rep.Consecutive = append(rep.Consecutive, ComparePartitions(parts[i], parts[i+1]))
	}
	rep.FirstLast = ComparePartitions(parts[0], parts[n-1])
	return rep
}
