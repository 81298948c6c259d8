package dist

import (
	"math"
	"math/rand"
	"testing"
)

func rng() *rand.Rand { return rand.New(rand.NewSource(42)) }

func sampleMean(s Lognormal, n int, r *rand.Rand) float64 {
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Sample(r)
	}
	return sum / float64(n)
}

func TestLognormalMeanMatchesAnalytic(t *testing.T) {
	r := rng()
	l := LognormalFromMean(100, 0.8)
	if math.Abs(l.Mean()-100) > 1e-9 {
		t.Fatalf("analytic mean = %v, want 100", l.Mean())
	}
	m := sampleMean(l, 400000, r)
	if math.Abs(m-100)/100 > 0.05 {
		t.Errorf("lognormal sample mean = %v, want ~100", m)
	}
}

func TestZipfRanksInRange(t *testing.T) {
	r := rng()
	for _, s := range []float64{0, 0.5, 0.9, 1.0, 1.5, 2.5} {
		z := NewZipf(s, 1000)
		for i := 0; i < 5000; i++ {
			k := z.Rank(r)
			if k >= 1000 {
				t.Fatalf("s=%v: rank %d out of range", s, k)
			}
		}
	}
}

// referenceZipfRank is Zipf.Rank as it stood before NewZipf cached the
// normalizer: everything recomputed from (s, n) on every draw.
func referenceZipfRank(r *rand.Rand, s float64, n uint64) uint64 {
	if s > 1.001 {
		return rand.NewZipf(r, s, 1, n-1).Uint64()
	}
	u := r.Float64()
	if s == 0 {
		return uint64(u * float64(n))
	}
	fn := float64(n)
	var x float64
	if math.Abs(s-1) < 1e-9 {
		x = math.Exp(u * math.Log(fn+1))
	} else {
		total := (math.Pow(fn+1, 1-s) - 1) / (1 - s)
		x = math.Pow(u*total*(1-s)+1, 1/(1-s))
	}
	k := uint64(x) - 1
	if k >= n {
		k = n - 1
	}
	return k
}

// TestZipfRankSequencesUnchanged: the cached constant must not move a single
// rank — generated traces are pinned to the draw sequence.
func TestZipfRankSequencesUnchanged(t *testing.T) {
	for _, s := range []float64{0, 0.8, 1, 1.001, 1.5} {
		for _, n := range []uint64{1, 2, 37, 1000, 1 << 20} {
			got, want := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
			z := NewZipf(s, n)
			for i := 0; i < 2000; i++ {
				if g, w := z.Rank(got), referenceZipfRank(want, s, n); g != w {
					t.Fatalf("s=%v n=%d draw %d: rank %d, reference %d", s, n, i, g, w)
				}
			}
		}
	}
}

// TestZeroZipfPanics: a Zipf that skipped NewZipf has no cached constant to
// draw with, and says so.
func TestZeroZipfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Rank on the zero Zipf did not panic")
		}
	}()
	Zipf{}.Rank(rng())
}

func TestZipfSkewIncreasesWithS(t *testing.T) {
	r := rng()
	top := func(s float64) float64 {
		z := NewZipf(s, 100)
		hits := 0
		const n = 30000
		for i := 0; i < n; i++ {
			if z.Rank(r) == 0 {
				hits++
			}
		}
		return float64(hits) / n
	}
	flat, mid, steep := top(0.0), top(1.0), top(2.0)
	if !(flat < mid && mid < steep) {
		t.Errorf("top-rank mass not increasing with s: %v, %v, %v", flat, mid, steep)
	}
	if flat > 0.05 {
		t.Errorf("s=0 should be near uniform; top-rank mass = %v", flat)
	}
}

func TestWeightedChoiceDistribution(t *testing.T) {
	w := NewWeightedChoice([]float64{1, 0, 3})
	r := rng()
	counts := [3]int{}
	const n = 60000
	for i := 0; i < n; i++ {
		counts[w.Choose(r)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.2 {
		t.Errorf("weight ratio = %v, want ~3", ratio)
	}
}

func TestClamp(t *testing.T) {
	if ClampInt(3.6, 0, 10) != 4 {
		t.Error("ClampInt rounds incorrectly")
	}
	if ClampInt(-5, 0, 10) != 0 || ClampInt(50, 0, 10) != 10 {
		t.Error("ClampInt bounds incorrectly")
	}
	if ClampInt64(1e18, 0, 100) != 100 || ClampInt64(-1, 5, 100) != 5 {
		t.Error("ClampInt64 bounds incorrectly")
	}
}

func TestConstructorsPanicOnBadParams(t *testing.T) {
	cases := []func(){
		func() { NewLognormal(0, 0) },
		func() { NewZipf(-0.1, 10) },
		func() { NewZipf(1, 0) },
		func() { NewWeightedChoice(nil) },
		func() { NewWeightedChoice([]float64{0, 0}) },
		func() { NewWeightedChoice([]float64{-1, 2}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: constructor did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() []float64 {
		r := rand.New(rand.NewSource(7))
		z := NewZipf(1.2, 500)
		l := LognormalFromMean(10, 1)
		out := make([]float64, 0, 200)
		for i := 0; i < 100; i++ {
			out = append(out, float64(z.Rank(r)), l.Sample(r))
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs between identically seeded runs", i)
		}
	}
}
