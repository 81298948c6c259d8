package stats

import (
	"math"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.Median != 3 || s.Sum != 15 {
		t.Errorf("Summarize = %+v", s)
	}
	if !almostEq(s.Stddev, math.Sqrt(2.5), 1e-12) {
		t.Errorf("Stddev = %v, want sqrt(2.5)", s.Stddev)
	}
	if !almostEq(s.CoefficientVar, s.Stddev/3, 1e-12) {
		t.Errorf("CV = %v", s.CoefficientVar)
	}
	if got := Summarize(nil); got.N != 0 {
		t.Errorf("empty Summarize = %+v", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	if q := Quantile(xs, 0); q != 10 {
		t.Errorf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 40 {
		t.Errorf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.5); q != 25 {
		t.Errorf("median = %v, want 25", q)
	}
	if q := Quantile([]float64{7}, 0.3); q != 7 {
		t.Errorf("single-element quantile = %v", q)
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, -0.1) },
		func() { Quantile([]float64{1}, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Quantile did not panic on bad input")
				}
			}()
			f()
		}()
	}
}

func TestFitLine(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 1 + 2x
	f := FitLine(xs, ys)
	if !almostEq(f.Slope, 2, 1e-12) || !almostEq(f.Intercept, 1, 1e-12) || !almostEq(f.R2, 1, 1e-12) {
		t.Errorf("FitLine = %+v", f)
	}
}

func TestFitZipfRecoversExponent(t *testing.T) {
	// Synthesize exact Zipf counts with alpha = 1.2.
	counts := make([]int, 2000)
	for i := range counts {
		counts[i] = int(1e6 * math.Pow(float64(i+1), -1.2))
	}
	f := FitZipf(counts)
	if !almostEq(f.Alpha, 1.2, 0.05) {
		t.Errorf("fitted alpha = %v, want ~1.2", f.Alpha)
	}
	if f.R2 < 0.99 {
		t.Errorf("R2 = %v, want ~1 for exact Zipf", f.R2)
	}
	if !almostEq(f.HeadAlpha, 1.2, 0.05) {
		t.Errorf("head alpha = %v, want ~1.2", f.HeadAlpha)
	}
}

func TestFitZipfFlattenedHead(t *testing.T) {
	// A flattened-head (non-Zipf) popularity: the top ranks all have the
	// same count, then a Zipf tail. The head slope should be much
	// shallower than the overall slope.
	counts := make([]int, 2000)
	for i := range counts {
		if i < 200 {
			counts[i] = 1000
		} else {
			counts[i] = int(1000 * math.Pow(float64(i+1)/200, -1.5))
		}
	}
	f := FitZipf(counts)
	if f.HeadAlpha > 0.2 {
		t.Errorf("flattened head fitted alpha = %v, want ~0", f.HeadAlpha)
	}
	if f.Alpha < 0.5 {
		t.Errorf("overall alpha = %v, want clearly positive", f.Alpha)
	}
}
