// Package stats provides the descriptive statistics used to characterize
// workloads and to regenerate the paper's figures: summary statistics,
// quantiles, empirical CDFs, linear and logarithmic histograms, rank-order
// (Zipf) fits via log-log least squares, and correlation.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the usual moments and extrema of a sample.
type Summary struct {
	N              int
	Min, Max       float64
	Mean, Stddev   float64
	Median         float64
	P90, P99       float64
	Sum            float64
	CoefficientVar float64 // stddev / mean; 0 if mean is 0
}

// Summarize computes a Summary of xs. It returns the zero Summary for an
// empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	for _, x := range xs {
		s.Sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = s.Sum / float64(s.N)
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	if s.N > 1 {
		s.Stddev = math.Sqrt(ss / float64(s.N-1))
	}
	if s.Mean != 0 {
		s.CoefficientVar = s.Stddev / s.Mean
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = quantileSorted(sorted, 0.5)
	s.P90 = quantileSorted(sorted, 0.9)
	s.P99 = quantileSorted(sorted, 0.99)
	return s
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It panics on an empty sample or a
// q outside [0,1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: quantile of empty sample")
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		panic(fmt.Sprintf("stats: quantile q=%v outside [0,1]", q))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// LinearFit is a least-squares line y = Intercept + Slope*x with its
// coefficient of determination.
type LinearFit struct {
	Slope, Intercept, R2 float64
}

// FitLine fits a least-squares line through the paired samples. It panics if
// fewer than two points are given.
func FitLine(xs, ys []float64) LinearFit {
	if len(xs) != len(ys) || len(xs) < 2 {
		panic("stats: FitLine needs >= 2 paired points")
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{Slope: 0, Intercept: my, R2: 0}
	}
	slope := sxy / sxx
	fit := LinearFit{Slope: slope, Intercept: my - slope*mx}
	if syy > 0 {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	}
	return fit
}

// ZipfFit is the result of fitting request counts to a Zipf law
// count(rank) ~ C * rank^-Alpha by least squares in log-log space, the
// standard methodology of the web-caching literature the paper contrasts
// against (Breslau et al.).
type ZipfFit struct {
	Alpha float64 // fitted exponent (positive for decreasing popularity)
	R2    float64 // goodness of fit in log-log space
	// HeadR2 is the fit quality restricted to the most popular 10% of
	// ranks. A Zipf workload has HeadR2 close to R2; the paper's traces
	// show a flattened head (non-Zipf), i.e. a poor head fit or a much
	// shallower head slope.
	HeadR2    float64
	HeadAlpha float64
}

// FitZipf sorts counts in decreasing order and fits log(count) against
// log(rank). Zero counts are dropped. It panics if fewer than two positive
// counts remain.
func FitZipf(counts []int) ZipfFit {
	pos := make([]float64, 0, len(counts))
	for _, c := range counts {
		if c > 0 {
			pos = append(pos, float64(c))
		}
	}
	if len(pos) < 2 {
		panic("stats: FitZipf needs >= 2 positive counts")
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(pos)))
	xs := make([]float64, len(pos))
	ys := make([]float64, len(pos))
	for i, c := range pos {
		xs[i] = math.Log(float64(i + 1))
		ys[i] = math.Log(c)
	}
	full := FitLine(xs, ys)
	fit := ZipfFit{Alpha: -full.Slope, R2: full.R2}
	head := len(pos) / 10
	if head >= 2 {
		hf := FitLine(xs[:head], ys[:head])
		fit.HeadAlpha = -hf.Slope
		fit.HeadR2 = hf.R2
	}
	return fit
}
