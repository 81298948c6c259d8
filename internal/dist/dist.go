// Package dist provides the random distributions the synthetic workload
// generator draws from: Zipf-like ranks, lognormal variates and weighted
// choice.
//
// Every sampler takes an explicit *rand.Rand so experiments are reproducible
// from a single seed. Samplers validate their parameters at construction and
// panic on programmer error (invalid parameters are bugs, not runtime
// conditions).
package dist

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Lognormal samples exp(N(Mu, Sigma^2)).
type Lognormal struct{ Mu, Sigma float64 }

// NewLognormal returns a lognormal sampler; sigma must be > 0.
func NewLognormal(mu, sigma float64) Lognormal {
	if sigma <= 0 || math.IsNaN(mu) || math.IsNaN(sigma) {
		panic(fmt.Sprintf("dist: lognormal sigma %v must be > 0", sigma))
	}
	return Lognormal{Mu: mu, Sigma: sigma}
}

// Sample draws one variate.
func (l Lognormal) Sample(r *rand.Rand) float64 {
	return l.FromNormal(r.NormFloat64())
}

// FromNormal returns the variate Sample yields when its standard normal draw
// is z, so a caller can draw now and exponentiate later, elsewhere.
func (l Lognormal) FromNormal(z float64) float64 {
	return math.Exp(l.Mu + l.Sigma*z)
}

// LognormalFromMean builds a lognormal with the given arithmetic mean and
// shape sigma, solving for mu.
func LognormalFromMean(mean, sigma float64) Lognormal {
	if mean <= 0 {
		panic(fmt.Sprintf("dist: lognormal mean %v must be > 0", mean))
	}
	return NewLognormal(math.Log(mean)-sigma*sigma/2, sigma)
}

// Zipf draws ranks in [0, n) with P(k) proportional to 1/(k+1)^s. s may be
// any non-negative value: above 1.001 it wraps math/rand's rejection-inversion
// sampler (which requires s > 1); at or below, it inverts the continuous
// approximation of the generalized harmonic CDF, integral_1^x t^-s dt scaled
// to [1, n+1], in O(1) per draw. The fields are unexported so that NewZipf,
// which computes the per-(s, n) constants of that inversion once, is the only
// way to a usable value; the zero Zipf panics on Rank. Zipf is comparable:
// its boundary table sits behind a pointer.
type Zipf struct {
	n uint64
	s float64
	// norm is the CDF's normalizer: log(n+1) for s = 1, else
	// ((n+1)^(1-s) - 1) / (1-s). Unused for s = 0 and s > 1.001.
	norm float64
	// bounds, when set, holds the n-1 values of u at which the inversion
	// reaches x = 2, 3, ..., n: rank k is the u in [bounds[k-1], bounds[k]).
	bounds *[]float64
}

// Past maxZipfTable ranks NewZipf builds no boundary table; within
// zipfTableGuard of a boundary Rank leaves the table to the formula.
const (
	maxZipfTable   = 1 << 16
	zipfTableGuard = 1e-9
)

// NewZipf validates and returns a Zipf rank sampler over [0, n).
//
// For 0 < s ≤ 1.001 and n ≤ 2^16 it also tabulates where the inversion
// crosses each integer, so Rank can binary-search for u instead of taking a
// math.Pow (or math.Exp) per draw. The table decides only when u lies more
// than 1e-9 from every boundary, and that makes it exact: it returns the rank
// the formula would. The formula computes the continuous inverse x(u) with a
// relative error of a few ulps times max(1, 1/|1-s|): below 1e-12 for the
// exponents tabulated, s = 1 or |1-s| ≥ 1e-3. Each boundary is off by a few
// ulps of u, far inside the guard. x(u) is increasing and convex with slope
// norm·x^s ≥ norm, and norm > 0.69 for every n ≥ 1, so moving u 1e-9 off the
// boundary at integer m moves x at least norm·1e-9 from m: relative to x, at
// least norm·1e-9 / (2·x^(1-s)) ≥ 1e-9·norm / (2·(1+(1-s)·norm)) > 2e-10,
// because x ≤ n+1 and (n+1)^(1-s) = 1+(1-s)·norm. That is over a hundred
// times the formula's error, so the computed x truncates to the same integer
// as the exact one.
func NewZipf(s float64, n uint64) Zipf {
	if n == 0 || s < 0 {
		panic(fmt.Sprintf("dist: zipf needs n>0, s>=0; got s=%v n=%d", s, n))
	}
	z := Zipf{n: n, s: s}
	exp := math.Abs(s-1) < 1e-9
	if exp {
		z.norm = math.Log(float64(n) + 1)
	} else {
		z.norm = (math.Pow(float64(n)+1, 1-s) - 1) / (1 - s)
	}
	if s > 0 && n <= maxZipfTable && (exp || math.Abs(1-s) >= 1e-3 && s <= 1.001) {
		b := make([]float64, n-1)
		for i := range b {
			m := float64(i) + 2
			if exp {
				b[i] = math.Log(m) / z.norm
			} else {
				b[i] = (math.Pow(m, 1-s) - 1) / ((1 - s) * z.norm)
			}
		}
		z.bounds = &b
	}
	return z
}

// Rank samples a rank in [0, n).
func (z Zipf) Rank(r *rand.Rand) uint64 {
	if z.n == 0 {
		panic("dist: Zipf not made by NewZipf")
	}
	if z.s > 1.001 {
		return rand.NewZipf(r, z.s, 1, z.n-1).Uint64()
	}
	return z.rank(r.Float64())
}

// rank is the rank a uniform draw u maps to: from the boundary table when u
// is clear of every boundary, else from inverse.
func (z Zipf) rank(u float64) uint64 {
	if z.bounds == nil {
		return z.inverse(u)
	}
	b := *z.bounds
	lo, hi := 0, len(b) // the first boundary above u is in b[lo:hi+1]
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if b[m] <= u {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if (lo == 0 || u-b[lo-1] > zipfTableGuard) && (lo == len(b) || b[lo]-u > zipfTableGuard) {
		return uint64(lo)
	}
	return z.inverse(u)
}

// inverse maps u through the continuous inverse CDF and truncates: the
// formula every rank for s ≤ 1.001 is defined by.
func (z Zipf) inverse(u float64) uint64 {
	if z.s == 0 {
		return uint64(u * float64(z.n))
	}
	var x float64
	if math.Abs(z.s-1) < 1e-9 {
		x = math.Exp(u * z.norm)
	} else {
		x = math.Pow(u*z.norm*(1-z.s)+1, 1/(1-z.s))
	}
	k := uint64(x) - 1
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// WeightedChoice selects indices with probability proportional to their
// weight, in O(log n) per draw via the cumulative-sum table built at
// construction.
type WeightedChoice struct {
	cum []float64
}

// NewWeightedChoice builds a chooser over the given non-negative weights; at
// least one weight must be positive.
func NewWeightedChoice(weights []float64) *WeightedChoice {
	if len(weights) == 0 {
		panic("dist: weighted choice needs at least one weight")
	}
	cum := make([]float64, len(weights))
	sum := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic(fmt.Sprintf("dist: weight %d is %v; must be >= 0", i, w))
		}
		sum += w
		cum[i] = sum
	}
	if sum <= 0 {
		panic("dist: all weights are zero")
	}
	return &WeightedChoice{cum: cum}
}

// Choose returns an index with probability weight[i]/sum(weights).
func (w *WeightedChoice) Choose(r *rand.Rand) int {
	x := r.Float64() * w.cum[len(w.cum)-1]
	return sort.SearchFloat64s(w.cum, x)
}

// ClampInt rounds a float sample to the nearest int and clamps it to
// [lo, hi]. The range test is made in float64, before any conversion (Go
// leaves an out-of-range float-to-int conversion implementation-defined):
// +Inf and values past the int range give hi, -Inf and NaN give lo.
func ClampInt(x float64, lo, hi int) int {
	r := math.Round(x)
	if !(r >= math.MinInt) {
		return lo
	}
	if r >= -math.MinInt {
		return hi
	}
	n := int(r)
	if n < lo {
		return lo
	}
	if n > hi {
		return hi
	}
	return n
}

// ClampInt64 is ClampInt for int64: +Inf and values past the int64 range give
// hi, -Inf and NaN give lo.
func ClampInt64(x float64, lo, hi int64) int64 {
	r := math.Round(x)
	if !(r >= math.MinInt64) {
		return lo
	}
	if r >= -math.MinInt64 {
		return hi
	}
	n := int64(r)
	if n < lo {
		return lo
	}
	if n > hi {
		return hi
	}
	return n
}
