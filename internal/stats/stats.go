// Package stats provides the summary statistics and deterministic random
// number generation used throughout VelociTI.
//
// The paper reports every experiment as the mean over 35 simulation runs
// with error bars spanning the minimum and maximum observed execution time
// (§V-B, §VI). Summary captures exactly that shape. All randomness in the
// framework flows through *rand.Rand instances created by NewRand so that
// experiments are reproducible from a single seed.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// Summary holds the aggregate statistics of a sample of observations.
// Times in VelociTI are expressed in microseconds, but Summary itself is
// unit-agnostic.
type Summary struct {
	N      int     // number of observations
	Mean   float64 // arithmetic mean
	Std    float64 // sample standard deviation (n-1 denominator)
	Min    float64 // smallest observation
	Max    float64 // largest observation
	Median float64 // 50th percentile
	Sum    float64 // total
	// CI95 is the half-width of the 95% confidence interval of the mean
	// (Student-t for small samples); Mean ± CI95 brackets the true mean.
	CI95 float64
}

// Summarize computes a Summary over xs. It returns a zero Summary when xs is
// empty.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
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
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(s.N-1))
	}
	s.Median = Percentile(xs, 50)
	s.CI95 = s.halfWidth95()
	return s
}

// halfWidth95 returns the half-width of the 95% confidence interval of the
// mean: t(n−1)·s/√n, using a small critical-value table for tiny samples
// and the normal approximation beyond it. Zero for n < 2.
func (s Summary) halfWidth95() float64 {
	if s.N < 2 || s.Std == 0 {
		return 0
	}
	// Two-sided 95% Student-t critical values for df = 1..30.
	tTable := [...]float64{
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	df := s.N - 1
	t := 1.960
	if df <= len(tTable) {
		t = tTable[df-1]
	}
	return t * s.Std / math.Sqrt(float64(s.N))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty sample.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Speedup returns base/improved, the conventional speedup factor. It returns
// +Inf when improved is zero and base is positive, and NaN when both are
// zero, mirroring IEEE-754 division.
func Speedup(base, improved float64) float64 {
	return base / improved
}

// GeoMean returns the geometric mean of xs. All observations must be
// positive; a non-positive observation yields NaN. The geometric mean is the
// standard way to average speedup factors across benchmarks.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// RelativeSpread returns (Max-Mean)/Mean, the paper's measure of run-to-run
// variance ("the maximum difference between average execution time and
// maximum execution time ... surpassing 50%", §VI-B). Zero mean yields 0.
func (s Summary) RelativeSpread() float64 {
	if s.Mean == 0 {
		return 0
	}
	return (s.Max - s.Mean) / s.Mean
}

// String renders the summary as "mean ± std [min, max] (n=N)".
func (s Summary) String() string {
	return fmt.Sprintf("%.4g ± %.3g [%.4g, %.4g] (n=%d)", s.Mean, s.Std, s.Min, s.Max, s.N)
}

// NewRand returns a deterministic PRNG for the given seed. Every stochastic
// component of VelociTI (qubit placement, gate placement, random workloads)
// accepts one of these so that whole experiments replay bit-for-bit.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// randPool holds retired generators for hot trial loops; only generators
// handed back through RecycleRand ever land here.
var randPool sync.Pool

// PooledRand returns a PRNG seeded like NewRand(seed), reusing a recycled
// generator's state storage when one is available. Seeding goes through the
// snapshot cache in rngstate.go when the seed was used recently; either way
// the stream is bit-identical to NewRand's, so the two are interchangeable.
func PooledRand(seed int64) *rand.Rand {
	if r, _ := randPool.Get().(*rand.Rand); r != nil {
		if !seedFromMemo(r, seed) {
			r.Seed(seed)
		}
		return r
	}
	r := NewRand(seed)
	memoizeSeed(r, seed) // the fresh state is exactly the snapshot to cache
	return r
}

// RecycleRand retires r for reuse by PooledRand. The caller must not use r
// afterwards.
func RecycleRand(r *rand.Rand) {
	if r != nil {
		randPool.Put(r)
	}
}

// SplitSeed derives the seed for the i-th independent run of an experiment
// from a master seed. The multiplier is an arbitrary large odd constant; the
// only requirement is that distinct runs get distinct, well-mixed seeds.
func SplitSeed(master int64, i int) int64 {
	x := uint64(master) + uint64(i+1)*0x9E3779B97F4A7C15
	// SplitMix64 finalizer.
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

// Shuffle permutes xs in place using r.
func Shuffle[T any](r *rand.Rand, xs []T) {
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}
