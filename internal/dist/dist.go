// Package dist provides the random distributions the synthetic workload
// generator draws from: Zipf-like ranks, bounded Pareto, lognormal, Weibull
// and exponential variates, plus empirical-CDF sampling and weighted choice.
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

// Sampler produces float64 variates.
type Sampler interface {
	Sample(r *rand.Rand) float64
}

// Exponential samples Exp(rate): mean 1/rate.
type Exponential struct{ Rate float64 }

// NewExponential returns an exponential sampler with the given rate (>0).
func NewExponential(rate float64) Exponential {
	if rate <= 0 || math.IsNaN(rate) {
		panic(fmt.Sprintf("dist: exponential rate %v must be > 0", rate))
	}
	return Exponential{Rate: rate}
}

// Sample implements Sampler.
func (e Exponential) Sample(r *rand.Rand) float64 { return r.ExpFloat64() / e.Rate }

// Lognormal samples exp(N(Mu, Sigma^2)).
type Lognormal struct{ Mu, Sigma float64 }

// NewLognormal returns a lognormal sampler; sigma must be > 0.
func NewLognormal(mu, sigma float64) Lognormal {
	if sigma <= 0 || math.IsNaN(mu) || math.IsNaN(sigma) {
		panic(fmt.Sprintf("dist: lognormal sigma %v must be > 0", sigma))
	}
	return Lognormal{Mu: mu, Sigma: sigma}
}

// Sample implements Sampler.
func (l Lognormal) Sample(r *rand.Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*r.NormFloat64())
}

// Mean returns the analytic mean exp(mu + sigma^2/2).
func (l Lognormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// LognormalFromMean builds a lognormal with the given arithmetic mean and
// shape sigma, solving for mu.
func LognormalFromMean(mean, sigma float64) Lognormal {
	if mean <= 0 {
		panic(fmt.Sprintf("dist: lognormal mean %v must be > 0", mean))
	}
	return NewLognormal(math.Log(mean)-sigma*sigma/2, sigma)
}

// BoundedPareto samples a Pareto(alpha) truncated to [Lo, Hi]. It is the
// standard model for heavy-tailed sizes with a physical cap (e.g. DZero caps
// raw files at 1 GB).
type BoundedPareto struct {
	Alpha, Lo, Hi float64
}

// NewBoundedPareto validates and returns a bounded Pareto sampler.
func NewBoundedPareto(alpha, lo, hi float64) BoundedPareto {
	if alpha <= 0 || lo <= 0 || hi <= lo {
		panic(fmt.Sprintf("dist: bounded pareto needs alpha>0, 0<lo<hi; got alpha=%v lo=%v hi=%v", alpha, lo, hi))
	}
	return BoundedPareto{Alpha: alpha, Lo: lo, Hi: hi}
}

// Sample implements Sampler via inverse-CDF.
func (p BoundedPareto) Sample(r *rand.Rand) float64 {
	u := r.Float64()
	la := math.Pow(p.Lo, p.Alpha)
	ha := math.Pow(p.Hi, p.Alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/p.Alpha)
}

// Weibull samples Weibull(Shape, Scale).
type Weibull struct{ Shape, Scale float64 }

// NewWeibull validates and returns a Weibull sampler.
func NewWeibull(shape, scale float64) Weibull {
	if shape <= 0 || scale <= 0 {
		panic(fmt.Sprintf("dist: weibull needs shape>0, scale>0; got %v, %v", shape, scale))
	}
	return Weibull{Shape: shape, Scale: scale}
}

// Sample implements Sampler via inverse-CDF.
func (w Weibull) Sample(r *rand.Rand) float64 {
	u := r.Float64()
	return w.Scale * math.Pow(-math.Log(1-u), 1/w.Shape)
}

// Uniform samples uniformly from [Lo, Hi).
type Uniform struct{ Lo, Hi float64 }

// NewUniform validates and returns a uniform sampler.
func NewUniform(lo, hi float64) Uniform {
	if hi < lo {
		panic(fmt.Sprintf("dist: uniform needs lo<=hi; got %v, %v", lo, hi))
	}
	return Uniform{Lo: lo, Hi: hi}
}

// Sample implements Sampler.
func (u Uniform) Sample(r *rand.Rand) float64 { return u.Lo + r.Float64()*(u.Hi-u.Lo) }

// Constant always returns V. Useful to pin a parameter in sweeps.
type Constant struct{ V float64 }

// Sample implements Sampler.
func (c Constant) Sample(*rand.Rand) float64 { return c.V }

// Zipf draws ranks in [0, n) with P(k) proportional to 1/(k+1)^s. s may be
// any non-negative value: above 1.001 it wraps math/rand's rejection-inversion
// sampler (which requires s > 1); at or below, it inverts the continuous
// approximation of the generalized harmonic CDF, integral_1^x t^-s dt scaled
// to [1, n+1], in O(1) per draw. The fields are unexported so that NewZipf,
// which computes the per-(s, n) constant of that inversion once, is the only
// way to a usable value; the zero Zipf panics on Rank.
type Zipf struct {
	n uint64
	s float64
	// norm is the CDF's normalizer: log(n+1) for s = 1, else
	// ((n+1)^(1-s) - 1) / (1-s). Unused for s = 0 and s > 1.001.
	norm float64
}

// NewZipf validates and returns a Zipf rank sampler over [0, n).
func NewZipf(s float64, n uint64) Zipf {
	if n == 0 || s < 0 {
		panic(fmt.Sprintf("dist: zipf needs n>0, s>=0; got s=%v n=%d", s, n))
	}
	z := Zipf{n: n, s: s}
	if math.Abs(s-1) < 1e-9 {
		z.norm = math.Log(float64(n) + 1)
	} else {
		z.norm = (math.Pow(float64(n)+1, 1-s) - 1) / (1 - s)
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
	u := r.Float64()
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

// Len returns the number of choices.
func (w *WeightedChoice) Len() int { return len(w.cum) }

// Empirical samples from a staircase empirical CDF defined by sorted support
// points: each point is equally likely, with uniform jitter between adjacent
// points to avoid atom artifacts when modelling continuous quantities.
type Empirical struct {
	points []float64
}

// NewEmpirical builds an empirical sampler from observed values (copied and
// sorted). It panics on an empty sample.
func NewEmpirical(values []float64) *Empirical {
	if len(values) == 0 {
		panic("dist: empirical sampler needs at least one value")
	}
	pts := append([]float64(nil), values...)
	sort.Float64s(pts)
	return &Empirical{points: pts}
}

// Sample implements Sampler: pick a random point, jitter toward its
// successor.
func (e *Empirical) Sample(r *rand.Rand) float64 {
	i := r.Intn(len(e.points))
	v := e.points[i]
	if i+1 < len(e.points) {
		v += r.Float64() * (e.points[i+1] - e.points[i])
	}
	return v
}

// ClampInt converts a float sample to an int in [lo, hi].
func ClampInt(x float64, lo, hi int) int {
	n := int(math.Round(x))
	if n < lo {
		return lo
	}
	if n > hi {
		return hi
	}
	return n
}

// ClampInt64 converts a float sample to an int64 in [lo, hi].
func ClampInt64(x float64, lo, hi int64) int64 {
	n := int64(math.Round(x))
	if n < lo {
		return lo
	}
	if n > hi {
		return hi
	}
	return n
}
