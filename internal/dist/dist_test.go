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
	if mean := math.Exp(l.Mu + l.Sigma*l.Sigma/2); math.Abs(mean-100) > 1e-9 {
		t.Fatalf("analytic mean exp(mu + sigma^2/2) = %v, want 100", mean)
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

// TestClampOutOfRange: infinities, NaN and values past the integer range are
// clamped by comparison in float64, not by an implementation-defined
// conversion.
func TestClampOutOfRange(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		x       float64
		lo, hi  int64
		want    int64
		wantInt int
		skipInt bool // x fits int64 but not a 32-bit int
	}{
		{x: 1e20, lo: 1, hi: 10, want: 10, wantInt: 10},
		{x: -1e20, lo: 1, hi: 10, want: 1, wantInt: 1},
		{x: inf, lo: 1, hi: 5000, want: 5000, wantInt: 5000},
		{x: -inf, lo: 1, hi: 5000, want: 1, wantInt: 1},
		{x: nan, lo: 1, hi: 5000, want: 1, wantInt: 1},
		{x: 0x1p63, lo: 1, hi: 10, want: 10, wantInt: 10},
		{x: -0x1p63, lo: 1, hi: 10, want: 1, wantInt: 1},
		{x: 0x1p62, lo: 1, hi: math.MaxInt64, want: 1 << 62, skipInt: true},
		{x: 4.5, lo: 1, hi: 10, want: 5, wantInt: 5},
		{x: -4.5, lo: -10, hi: 10, want: -5, wantInt: -5},
	} {
		if got := ClampInt64(c.x, c.lo, c.hi); got != c.want {
			t.Errorf("ClampInt64(%v, %d, %d) = %d, want %d", c.x, c.lo, c.hi, got, c.want)
		}
		if c.skipInt || c.hi > math.MaxInt32 {
			continue
		}
		if got := ClampInt(c.x, int(c.lo), int(c.hi)); got != c.wantInt {
			t.Errorf("ClampInt(%v, %d, %d) = %d, want %d", c.x, c.lo, c.hi, got, c.wantInt)
		}
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

// zipfTableCheck fails t unless rank, the table's answer where there is one,
// equals inverse, the formula, at u.
func zipfTableCheck(t *testing.T, z Zipf, u float64) {
	t.Helper()
	if u < 0 || u >= 1 {
		return
	}
	if got, want := z.rank(u), z.inverse(u); got != want {
		t.Fatalf("s=%v n=%d u=%v: table rank %d, formula %d", z.s, z.n, u, got, want)
	}
}

// FuzzZipfRank holds the boundary table to the formula it replaces: at the
// fuzzed (s, n, u), and for small n at every boundary, its float neighbours
// and the edges of its guard band.
func FuzzZipfRank(f *testing.F) {
	f.Add(0.9, uint16(40), 0.5)
	f.Add(0.7, uint16(3), 0.25)
	f.Add(1.0, uint16(1), 0.999)
	f.Add(0.0, uint16(7), 0.1)
	f.Add(1.001, uint16(65535), 0.75)
	f.Add(0.999, uint16(1000), 1e-12)
	f.Fuzz(func(t *testing.T, s float64, n16 uint16, u float64) {
		if !(s >= 0 && s <= 1.001) {
			s = math.Abs(math.Mod(s, 1.001))
			if math.IsNaN(s) {
				s = 1
			}
		}
		n := uint64(n16) + 1 // 1 .. 2^16
		z := NewZipf(s, n)
		zipfTableCheck(t, z, math.Abs(math.Mod(u, 1)))
		if z.bounds == nil || n > 64 {
			return
		}
		for _, b := range *z.bounds {
			for _, v := range []float64{b, b - zipfTableGuard, b + zipfTableGuard} {
				zipfTableCheck(t, z, v)
				zipfTableCheck(t, z, math.Nextafter(v, 0))
				zipfTableCheck(t, z, math.Nextafter(v, 1))
			}
		}
	})
}

// TestZipfTableCoversGeneratorExponents: the exponents the generator draws
// with get a table that agrees with the formula; the exponents and sizes the
// error bound does not cover get none.
func TestZipfTableCoversGeneratorExponents(t *testing.T) {
	r := rng()
	for _, s := range []float64{0.7, 0.9, 1} {
		z := NewZipf(s, 500)
		if z.bounds == nil {
			t.Fatalf("s=%v: no boundary table", s)
		}
		for i := 0; i < 20000; i++ {
			zipfTableCheck(t, z, r.Float64())
		}
	}
	for _, c := range []struct {
		s float64
		n uint64
	}{{0, 10}, {1.0005, 10}, {1.5, 10}, {0.9, maxZipfTable + 1}} {
		if NewZipf(c.s, c.n).bounds != nil {
			t.Errorf("s=%v n=%d: a table where the formula's error bound does not hold", c.s, c.n)
		}
	}
}
