package stats

import (
	"fmt"
	"math"
)

// Bin is one histogram bucket: the half-open interval [Lo, Hi) and the
// number of samples that fell in it. The final bin is closed at Hi.
type Bin struct {
	Lo, Hi float64
	Count  int
}

// Histogram buckets a sample into bins. Bins are contiguous and ordered.
type Histogram struct {
	Bins []Bin
	// Underflow and Overflow count samples outside the configured range
	// (only possible with explicit edges).
	Underflow, Overflow int
}

// NewLogHistogram buckets positive values of xs into n logarithmically
// spaced bins spanning the positive sample range. Non-positive samples count
// as underflow. It panics if no sample is positive or n < 1.
func NewLogHistogram(xs []float64, n int) *Histogram {
	if n < 1 {
		panic("stats: histogram needs n >= 1 bins")
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if math.IsInf(lo, 1) {
		panic("stats: log histogram needs at least one positive sample")
	}
	if lo == hi {
		hi = lo * 2
	}
	edges := make([]float64, n+1)
	llo, lhi := math.Log(lo), math.Log(hi)
	step := (lhi - llo) / float64(n)
	for i := 0; i <= n; i++ {
		edges[i] = math.Exp(llo + float64(i)*step)
	}
	edges[0], edges[n] = lo, hi
	return NewHistogram(xs, edges)
}

// NewHistogram buckets xs using the given strictly increasing bin edges
// (len >= 2). Samples below edges[0] count as underflow, above the last edge
// as overflow; the final bin is closed on the right.
func NewHistogram(xs []float64, edges []float64) *Histogram {
	if len(edges) < 2 {
		panic("stats: histogram needs >= 2 edges")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			panic(fmt.Sprintf("stats: histogram edges not increasing at %d: %v <= %v", i, edges[i], edges[i-1]))
		}
	}
	h := &Histogram{Bins: make([]Bin, len(edges)-1)}
	for i := range h.Bins {
		h.Bins[i] = Bin{Lo: edges[i], Hi: edges[i+1]}
	}
	last := len(h.Bins) - 1
	for _, x := range xs {
		switch {
		case x < edges[0]:
			h.Underflow++
		case x > edges[len(edges)-1]:
			h.Overflow++
		case x == edges[len(edges)-1]:
			h.Bins[last].Count++
		default:
			h.Bins[locateBin(edges, x)].Count++
		}
	}
	return h
}

// locateBin finds i such that edges[i] <= x < edges[i+1] by binary search.
func locateBin(edges []float64, x float64) int {
	lo, hi := 0, len(edges)-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if x < edges[mid] {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo
}

// Total returns the in-range sample count.
func (h *Histogram) Total() int {
	n := 0
	for _, b := range h.Bins {
		n += b.Count
	}
	return n
}

// CountHistogram tallies integer-valued samples exactly (one bucket per
// distinct value), used for small-support discrete figures such as
// "number of users sharing a filecule".
type CountHistogram struct {
	// Counts maps value -> occurrences.
	Counts map[int]int
	Min    int
	Max    int
	N      int
}

// NewCountHistogram tallies xs. It panics on empty input.
func NewCountHistogram(xs []int) *CountHistogram {
	if len(xs) == 0 {
		panic("stats: count histogram of empty sample")
	}
	h := &CountHistogram{Counts: make(map[int]int), Min: xs[0], Max: xs[0], N: len(xs)}
	for _, x := range xs {
		h.Counts[x]++
		if x < h.Min {
			h.Min = x
		}
		if x > h.Max {
			h.Max = x
		}
	}
	return h
}

// FractionAt returns the fraction of samples equal to v.
func (h *CountHistogram) FractionAt(v int) float64 {
	return float64(h.Counts[v]) / float64(h.N)
}
