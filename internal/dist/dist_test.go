package dist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func rng() *rand.Rand { return rand.New(rand.NewSource(42)) }

func sampleMean(s Sampler, n int, r *rand.Rand) float64 {
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Sample(r)
	}
	return sum / float64(n)
}

func TestExponentialMean(t *testing.T) {
	r := rng()
	e := NewExponential(0.5) // mean 2
	m := sampleMean(e, 200000, r)
	if math.Abs(m-2) > 0.05 {
		t.Errorf("exponential mean = %v, want ~2", m)
	}
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

func TestBoundedParetoStaysInBounds(t *testing.T) {
	p := NewBoundedPareto(1.2, 10, 1000)
	r := rng()
	for i := 0; i < 10000; i++ {
		x := p.Sample(r)
		if x < 10 || x > 1000 {
			t.Fatalf("bounded pareto sample %v escaped [10,1000]", x)
		}
	}
}

func TestBoundedParetoSkew(t *testing.T) {
	// A heavy-tailed sampler should put most mass near the lower bound.
	p := NewBoundedPareto(1.5, 1, 1e6)
	r := rng()
	below := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if p.Sample(r) < 10 {
			below++
		}
	}
	if frac := float64(below) / n; frac < 0.9 {
		t.Errorf("only %v of mass below 10x lower bound; want heavy head", frac)
	}
}

func TestWeibullMean(t *testing.T) {
	// Weibull(1, scale) is exponential with mean=scale.
	w := NewWeibull(1, 3)
	m := sampleMean(w, 200000, rng())
	if math.Abs(m-3) > 0.1 {
		t.Errorf("weibull(1,3) mean = %v, want ~3", m)
	}
}

func TestUniformBoundsProperty(t *testing.T) {
	r := rng()
	f := func(lo float64, span uint16) bool {
		if math.IsNaN(lo) || math.IsInf(lo, 0) || math.Abs(lo) > 1e12 {
			return true // skip degenerate inputs
		}
		hi := lo + float64(span)
		u := NewUniform(lo, hi)
		x := u.Sample(r)
		return x >= lo && (x <= hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
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

func TestEmpiricalStaysWithinSupport(t *testing.T) {
	e := NewEmpirical([]float64{5, 1, 9, 3})
	r := rng()
	for i := 0; i < 10000; i++ {
		x := e.Sample(r)
		if x < 1 || x > 9 {
			t.Fatalf("empirical sample %v outside [1,9]", x)
		}
	}
}

func TestConstant(t *testing.T) {
	c := Constant{V: 7}
	if c.Sample(rng()) != 7 {
		t.Error("constant sampler not constant")
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
		func() { NewExponential(0) },
		func() { NewLognormal(0, 0) },
		func() { NewBoundedPareto(0, 1, 2) },
		func() { NewBoundedPareto(1, 2, 2) },
		func() { NewWeibull(-1, 1) },
		func() { NewUniform(2, 1) },
		func() { NewZipf(-0.1, 10) },
		func() { NewZipf(1, 0) },
		func() { NewWeightedChoice(nil) },
		func() { NewWeightedChoice([]float64{0, 0}) },
		func() { NewWeightedChoice([]float64{-1, 2}) },
		func() { NewEmpirical(nil) },
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
