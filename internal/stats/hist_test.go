package stats

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLogHistogram(t *testing.T) {
	xs := []float64{1, 10, 100, 1000, 0, -5}
	h := NewLogHistogram(xs, 3)
	if h.Underflow != 2 {
		t.Errorf("underflow = %d, want 2 (non-positive samples)", h.Underflow)
	}
	if h.Total() != 4 {
		t.Errorf("total = %d, want 4", h.Total())
	}
	// Log-spaced edges should give one sample per bin except the last
	// closed bin: [1,10) [10,100) [100,1000].
	want := []int{1, 1, 2}
	for i, w := range want {
		if h.Bins[i].Count != w {
			t.Errorf("bin %d = %+v, want count %d", i, h.Bins[i], w)
		}
	}
}

func TestHistogramMassConservationProperty(t *testing.T) {
	f := func(seed int64, n uint8, bins uint8) bool {
		if n == 0 || bins == 0 {
			return true
		}
		r := rand.New(rand.NewSource(seed))
		xs := make([]float64, int(n))
		for i := range xs {
			xs[i] = r.NormFloat64() * 50
		}
		edges := make([]float64, int(bins)+1) // [-100, 100]: the tails fall outside
		for i := range edges {
			edges[i] = -100 + 200*float64(i)/float64(bins)
		}
		h := NewHistogram(xs, edges)
		return h.Total()+h.Underflow+h.Overflow == len(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHistogramExplicitEdges(t *testing.T) {
	h := NewHistogram([]float64{-1, 0, 5, 10, 11}, []float64{0, 5, 10})
	if h.Underflow != 1 || h.Overflow != 1 {
		t.Errorf("under=%d over=%d", h.Underflow, h.Overflow)
	}
	if h.Bins[0].Count != 1 || h.Bins[1].Count != 2 {
		t.Errorf("bins = %+v", h.Bins)
	}
}

func TestHistogramPanics(t *testing.T) {
	for i, f := range []func(){
		func() { NewLogHistogram([]float64{-1, 0}, 3) },
		func() { NewHistogram([]float64{1}, []float64{0}) },
		func() { NewHistogram([]float64{1}, []float64{0, 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}

func TestCountHistogram(t *testing.T) {
	h := NewCountHistogram([]int{1, 1, 2, 3, 3, 3})
	if h.Min != 1 || h.Max != 3 || h.N != 6 {
		t.Errorf("h = %+v", h)
	}
	if h.FractionAt(3) != 0.5 {
		t.Errorf("FractionAt(3) = %v", h.FractionAt(3))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewCountHistogram(nil) did not panic")
			}
		}()
		NewCountHistogram(nil)
	}()
}
