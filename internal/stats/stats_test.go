package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.Sum != 0 {
		t.Fatalf("empty summary should be zero, got %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{42})
	if s.N != 1 || s.Mean != 42 || s.Min != 42 || s.Max != 42 || s.Median != 42 || s.Std != 0 {
		t.Fatalf("unexpected single-element summary %+v", s)
	}
}

func TestSummarizeKnownSample(t *testing.T) {
	// Sample with easily hand-checked moments.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	s := Summarize(xs)
	if s.N != 8 {
		t.Errorf("N = %d, want 8", s.N)
	}
	if !almostEqual(s.Mean, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", s.Mean)
	}
	// Sample std with n-1: variance = 32/7.
	want := math.Sqrt(32.0 / 7.0)
	if !almostEqual(s.Std, want, 1e-12) {
		t.Errorf("Std = %v, want %v", s.Std, want)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", s.Min, s.Max)
	}
	if !almostEqual(s.Median, 4.5, 1e-12) {
		t.Errorf("Median = %v, want 4.5", s.Median)
	}
}

func TestSummarizeUnorderedInputUnchanged(t *testing.T) {
	xs := []float64{9, 1, 5}
	_ = Summarize(xs)
	if xs[0] != 9 || xs[1] != 1 || xs[2] != 5 {
		t.Fatalf("Summarize must not mutate its input, got %v", xs)
	}
}

func TestPercentileEdges(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {100, 40}, {-5, 10}, {150, 40},
		{50, 25}, {25, 17.5}, {75, 32.5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Errorf("Percentile of empty sample should be 0")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Percentile must not sort its input, got %v", xs)
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(100, 50); got != 2 {
		t.Errorf("Speedup(100,50) = %v, want 2", got)
	}
	if got := Speedup(10, 0); !math.IsInf(got, 1) {
		t.Errorf("Speedup(10,0) = %v, want +Inf", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 100}); !almostEqual(got, 10, 1e-9) {
		t.Errorf("GeoMean = %v, want 10", got)
	}
	if got := GeoMean([]float64{2, 2, 2}); !almostEqual(got, 2, 1e-12) {
		t.Errorf("GeoMean = %v, want 2", got)
	}
	if !math.IsNaN(GeoMean(nil)) {
		t.Errorf("GeoMean(nil) should be NaN")
	}
	if !math.IsNaN(GeoMean([]float64{1, -1})) {
		t.Errorf("GeoMean with negative input should be NaN")
	}
}

func TestRelativeSpread(t *testing.T) {
	s := Summarize([]float64{100, 100, 160})
	if !almostEqual(s.RelativeSpread(), (160.0-120.0)/120.0, 1e-12) {
		t.Errorf("RelativeSpread = %v", s.RelativeSpread())
	}
	var zero Summary
	if zero.RelativeSpread() != 0 {
		t.Errorf("zero-mean spread should be 0")
	}
}

func TestNewRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatalf("same seed must yield identical streams (diverged at %d)", i)
		}
	}
	c := NewRand(8)
	same := true
	a = NewRand(7)
	for i := 0; i < 10; i++ {
		if a.Int63() != c.Int63() {
			same = false
		}
	}
	if same {
		t.Fatalf("different seeds should yield different streams")
	}
}

func TestSplitSeedDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := SplitSeed(42, i)
		if seen[s] {
			t.Fatalf("SplitSeed collision at run %d", i)
		}
		seen[s] = true
	}
	if SplitSeed(1, 0) == SplitSeed(2, 0) {
		t.Fatalf("different masters should give different run seeds")
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := NewRand(3)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	orig := append([]int(nil), xs...)
	Shuffle(r, xs)
	counts := map[int]int{}
	for _, v := range xs {
		counts[v]++
	}
	for _, v := range orig {
		if counts[v] != 1 {
			t.Fatalf("shuffle lost or duplicated element %d: %v", v, xs)
		}
	}
}

// Property: mean always lies within [min, max] and min ≤ median ≤ max.
func TestSummaryOrderingProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				// Keep magnitudes sane to avoid float overflow in sums.
				xs = append(xs, math.Mod(v, 1e9))
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.Mean+1e-6 && s.Mean <= s.Max+1e-6 &&
			s.Min <= s.Median && s.Median <= s.Max && s.Std >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: percentile is monotone in p.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, p1, p2 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Mod(v, 1e9))
			}
		}
		if len(xs) == 0 {
			return true
		}
		p1 = math.Mod(math.Abs(p1), 100)
		p2 = math.Mod(math.Abs(p2), 100)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return Percentile(xs, p1) <= Percentile(xs, p2)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCI95KnownValues(t *testing.T) {
	// n=5, std=2: t(4)=2.776 → CI = 2.776·2/√5.
	xs := []float64{8, 9, 10, 11, 12} // mean 10, sample std sqrt(2.5)
	s := Summarize(xs)
	want := 2.776 * s.Std / math.Sqrt(5)
	if !almostEqual(s.CI95, want, 1e-9) {
		t.Fatalf("CI95 = %v, want %v", s.CI95, want)
	}
	// Large n falls back to 1.96.
	big := make([]float64, 100)
	for i := range big {
		big[i] = float64(i % 10)
	}
	sb := Summarize(big)
	wantBig := 1.960 * sb.Std / 10
	if !almostEqual(sb.CI95, wantBig, 1e-9) {
		t.Fatalf("large-n CI95 = %v, want %v", sb.CI95, wantBig)
	}
	// Degenerate cases.
	if Summarize([]float64{5}).CI95 != 0 {
		t.Fatalf("single sample CI must be 0")
	}
	if Summarize([]float64{3, 3, 3}).CI95 != 0 {
		t.Fatalf("zero-variance CI must be 0")
	}
}
