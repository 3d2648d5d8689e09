package schedule

import (
	"testing"

	"velociti/internal/circuit"
	"velociti/internal/perf"
	"velociti/internal/placement"
	"velociti/internal/stats"
	"velociti/internal/ti"
)

func layout16x4(t *testing.T) *ti.Layout {
	t.Helper()
	d, err := ti.DeviceFor(64, 16, ti.Ring)
	if err != nil {
		t.Fatal(err)
	}
	l, err := placement.Sequential{}.Place(d, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func spec(n, q, p int) circuit.Spec {
	return circuit.Spec{Name: "test", Qubits: n, OneQubitGates: q, TwoQubitGates: p}
}

// checkShape verifies counts and operand ranges common to all placers.
func checkShape(t *testing.T, name string, c *circuit.Circuit, s circuit.Spec) {
	t.Helper()
	if got := c.NumOneQubitGates(); got != s.OneQubitGates {
		t.Fatalf("%s: 1q gates = %d, want %d", name, got, s.OneQubitGates)
	}
	if got := c.NumTwoQubitGates(); got != s.TwoQubitGates {
		t.Fatalf("%s: 2q gates = %d, want %d", name, got, s.TwoQubitGates)
	}
	for _, g := range c.Gates() {
		for _, q := range g.Qubits {
			if q >= s.Qubits {
				t.Fatalf("%s: gate %v uses qubit beyond spec width %d", name, g, s.Qubits)
			}
		}
		if g.IsTwoQubit() && g.Qubits[0] == g.Qubits[1] {
			t.Fatalf("%s: degenerate 2q gate %v", name, g)
		}
	}
}

func TestAllPlacersProduceWellFormedCircuits(t *testing.T) {
	l := layout16x4(t)
	lat := perf.DefaultLatencies()
	s := spec(64, 20, 200)
	for _, p := range All(lat) {
		c, err := p.Place(s, l, stats.NewRand(42))
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		checkShape(t, p.Name(), c, s)
		if c.Name != "test" {
			t.Errorf("%s: circuit name = %q", p.Name(), c.Name)
		}
	}
}

func TestRandomPlacerDeterministicPerSeed(t *testing.T) {
	l := layout16x4(t)
	s := spec(64, 10, 50)
	c1, _ := Random{}.Place(s, l, stats.NewRand(9))
	c2, _ := Random{}.Place(s, l, stats.NewRand(9))
	if c1.String() != c2.String() {
		t.Fatalf("same seed must reproduce the same circuit")
	}
	c3, _ := Random{}.Place(s, l, stats.NewRand(10))
	if c1.String() == c3.String() {
		t.Fatalf("different seeds should differ")
	}
}

// The cross-chain probability of a uniform pair over 64 qubits in 16-ion
// chains is 1 − 15/63 ≈ 0.76; random placement must produce weak gates at
// roughly that rate — the mechanism behind the paper's chain-length effect.
func TestRandomPlacerCrossChainRate(t *testing.T) {
	l := layout16x4(t)
	s := spec(64, 0, 2000)
	c, err := Random{}.Place(s, l, stats.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	w := perf.WeakGates(c, l)
	frac := float64(w) / 2000
	if frac < 0.70 || frac > 0.83 {
		t.Fatalf("cross-chain fraction = %v, want ≈ 0.76", frac)
	}
}

func TestWeakAvoidingNeverUsesWeakLinks(t *testing.T) {
	l := layout16x4(t)
	s := spec(64, 10, 300)
	c, err := WeakAvoiding{}.Place(s, l, stats.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, "weak-avoiding", c, s)
	if w := perf.WeakGates(c, l); w != 0 {
		t.Fatalf("weak-avoiding placer used %d weak gates", w)
	}
}

func TestWeakAvoidingFailsWithoutLocalPairs(t *testing.T) {
	// Chains of length 1: every 2q pair crosses a weak link.
	d, err := ti.NewDevice(1, 4, ti.Ring)
	if err != nil {
		t.Fatal(err)
	}
	l, err := placement.Sequential{}.Place(d, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (WeakAvoiding{}).Place(spec(4, 0, 5), l, stats.NewRand(1)); err == nil {
		t.Fatalf("expected failure when no intra-chain pairs exist")
	}
}

func TestEdgeConstrainedRespectsLegality(t *testing.T) {
	l := layout16x4(t)
	s := spec(64, 5, 500)
	c, err := EdgeConstrained{}.Place(s, l, stats.NewRand(4))
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, "edge-constrained", c, s)
	for _, g := range c.Gates() {
		if g.IsTwoQubit() && !l.Legal2Q(g.Qubits[0], g.Qubits[1]) {
			t.Fatalf("edge-constrained emitted illegal gate %v", g)
		}
	}
	// Weak usage is far rarer than Random's ≈76% — edge pairs are 4 of
	// 484 legal pairs (< 1%).
	if w := perf.WeakGates(c, l); float64(w)/500 > 0.10 {
		t.Fatalf("edge-constrained weak fraction = %v, should be rare", float64(w)/500)
	}
}

func TestLoadBalancedBeatsRandomOnAverage(t *testing.T) {
	l := layout16x4(t)
	lat := perf.DefaultLatencies()
	s := spec(64, 0, 400)
	var randTotal, lbTotal float64
	const runs = 10
	for i := 0; i < runs; i++ {
		cr, err := Random{}.Place(s, l, stats.NewRand(stats.SplitSeed(1, i)))
		if err != nil {
			t.Fatal(err)
		}
		cl, err := LoadBalanced{Latencies: lat}.Place(s, l, stats.NewRand(stats.SplitSeed(2, i)))
		if err != nil {
			t.Fatal(err)
		}
		randTotal += perf.ParallelTime(cr, l, lat)
		lbTotal += perf.ParallelTime(cl, l, lat)
	}
	if lbTotal >= randTotal {
		t.Fatalf("load-balanced mean %v should beat random mean %v", lbTotal/runs, randTotal/runs)
	}
}

func TestLoadBalancedDefaultsCandidates(t *testing.T) {
	l := layout16x4(t)
	lat := perf.DefaultLatencies()
	c, err := LoadBalanced{Latencies: lat}.Place(spec(64, 5, 20), l, stats.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, "load-balanced", c, spec(64, 5, 20))
}

func TestLoadBalancedValidatesLatencies(t *testing.T) {
	l := layout16x4(t)
	_, err := LoadBalanced{Latencies: perf.Latencies{WeakPenalty: 0.1, TwoQubit: 1}}.Place(spec(64, 0, 5), l, stats.NewRand(1))
	if err == nil {
		t.Fatalf("invalid latencies should fail")
	}
}

func TestPlacerValidation(t *testing.T) {
	l := layout16x4(t)
	cases := []circuit.Spec{
		{Name: "zero-qubits", Qubits: 0},
		{Name: "too-wide", Qubits: 200, TwoQubitGates: 1},
		{Name: "negative", Qubits: 4, OneQubitGates: -1},
	}
	for _, s := range cases {
		for _, p := range All(perf.DefaultLatencies()) {
			if _, err := p.Place(s, l, stats.NewRand(1)); err == nil {
				t.Errorf("%s: spec %q should fail", p.Name(), s.Name)
			}
		}
	}
}

func TestPlacerRespectsSpecSubsetOfLayout(t *testing.T) {
	// Layout places 64 qubits, spec only uses 10: gates must stay within
	// the first 10 qubits.
	l := layout16x4(t)
	s := spec(10, 5, 20)
	for _, p := range All(perf.DefaultLatencies()) {
		c, err := p.Place(s, l, stats.NewRand(2))
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		checkShape(t, p.Name(), c, s)
	}
}

func TestPlacerSingleQubitSpec(t *testing.T) {
	l := layout16x4(t)
	s := spec(1, 7, 0)
	c, err := Random{}.Place(s, l, stats.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != 7 || c.NumTwoQubitGates() != 0 {
		t.Fatalf("single-qubit spec circuit: %v", c.Spec())
	}
}

func TestUniformPairDistribution(t *testing.T) {
	r := stats.NewRand(6)
	counts := map[[2]int]int{}
	const trials = 30000
	for i := 0; i < trials; i++ {
		a, b := uniformPair(r, 5)
		if a == b || a < 0 || b < 0 || a >= 5 || b >= 5 {
			t.Fatalf("bad pair (%d,%d)", a, b)
		}
		if a > b {
			a, b = b, a
		}
		counts[[2]int{a, b}]++
	}
	if len(counts) != 10 {
		t.Fatalf("pairs hit = %d, want all 10", len(counts))
	}
	for p, n := range counts {
		frac := float64(n) / trials
		if frac < 0.07 || frac > 0.13 {
			t.Fatalf("pair %v frequency %v, want ≈ 0.10", p, frac)
		}
	}
}

func TestOpOrderCountsAndShuffle(t *testing.T) {
	r := stats.NewRand(5)
	ops := newOpBits(nil, spec(4, 30, 70), r)
	if ops.n != 100 {
		t.Fatalf("ops length = %d", ops.n)
	}
	ones, twos := 0, 0
	for i := 0; i < ops.n; i++ {
		switch ops.arity(i) {
		case 1:
			ones++
		case 2:
			twos++
		}
	}
	if ones != 30 || twos != 70 {
		t.Fatalf("counts = %d/%d", ones, twos)
	}
	all1 := true
	for i := 0; i < 30; i++ {
		if ops.arity(i) != 1 {
			all1 = false
			break
		}
	}
	if all1 {
		t.Fatalf("op order does not appear shuffled")
	}
	// Reused storage must not leak the previous order: the same seed over
	// a dirty buffer yields the same arities.
	dirty := make([]uint64, 2)
	for i := range dirty {
		dirty[i] = ^uint64(0)
	}
	again := newOpBits(dirty, spec(4, 30, 70), stats.NewRand(5))
	for i := 0; i < ops.n; i++ {
		if again.arity(i) != ops.arity(i) {
			t.Fatalf("reused storage: arity[%d] = %d, want %d", i, again.arity(i), ops.arity(i))
		}
	}
}

func TestByName(t *testing.T) {
	lat := perf.DefaultLatencies()
	for _, name := range []string{"random", "weak-avoiding", "load-balanced", "edge-constrained"} {
		p, err := ByName(name, lat)
		if err != nil || p.Name() != name {
			t.Errorf("ByName(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := ByName("optimal", lat); err == nil {
		t.Errorf("unknown placer should error")
	}
}
