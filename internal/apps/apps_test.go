package apps

import (
	"fmt"
	"math"
	"testing"

	"velociti/internal/circuit"
	"velociti/internal/verr"
)

// must returns an unwrapper for a generator result, failing the test on
// error: must[*circuit.Circuit](t)(QFT(8)). Go only allows a multi-value
// call as the sole argument, hence the curried shape.
func must[T any](t testing.TB) func(T, error) T {
	return func(v T, err error) T {
		t.Helper()
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		return v
	}
}

// mc unwraps circuit-generator results, the common case.
func mc(t testing.TB) func(*circuit.Circuit, error) *circuit.Circuit {
	return must[*circuit.Circuit](t)
}

// mustReject asserts that a generator rejects its arguments with an
// input-kind error (not a panic — the errors-not-panics contract).
func mustReject(t *testing.T, name string, f func() error) {
	t.Helper()
	err := f()
	if err == nil {
		t.Errorf("%s: expected an error", name)
		return
	}
	if !verr.IsInput(err) {
		t.Errorf("%s: error should be input-kind, got %v", name, err)
	}
}

// Table II pins (qubits, 2-qubit gates) for every workload.
func TestPaperSpecsMatchTableII(t *testing.T) {
	want := []struct {
		name      string
		qubits, p int
	}{
		{"Supremacy", 64, 560},
		{"QAOA", 64, 1260},
		{"SquareRoot", 78, 1028},
		{"QFT", 64, 4032},
		{"Adder", 64, 545},
		{"BV", 64, 64},
	}
	specs := PaperSpecs()
	if len(specs) != len(want) {
		t.Fatalf("spec count = %d", len(specs))
	}
	for i, w := range want {
		s := specs[i]
		if s.Name != w.name || s.Qubits != w.qubits || s.TwoQubitGates != w.p {
			t.Errorf("spec %d = %+v, want %s/%d qubits/%d 2q gates", i, s, w.name, w.qubits, w.p)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("spec %s invalid: %v", s.Name, err)
		}
		if s.OneQubitGates != 0 {
			t.Errorf("spec %s: q = %d; the paper's serial anchors pin q = 0", s.Name, s.OneQubitGates)
		}
	}
}

func TestCatalogBuildersAgreeWithSpecWidth(t *testing.T) {
	for _, a := range Catalog() {
		c := mc(t)(a.Build())
		if c.NumQubits() != a.Spec.Qubits {
			t.Errorf("%s: generator width %d != spec %d", a.Name(), c.NumQubits(), a.Spec.Qubits)
		}
	}
}

func TestByName(t *testing.T) {
	a, err := ByName("QFT")
	if err != nil || a.Spec.TwoQubitGates != 4032 {
		t.Fatalf("ByName(QFT) = %+v, %v", a.Spec, err)
	}
	if _, err := ByName("Shor"); err == nil {
		t.Fatalf("unknown app should error")
	}
}

// QFT(n) must produce exactly n(n−1) CX gates and n + 3n(n−1)/2 1q gates.
func TestQFTGateCounts(t *testing.T) {
	for _, n := range []int{2, 4, 8, 64} {
		c := mc(t)(QFT(n))
		wantP := n * (n - 1)
		if got := c.NumTwoQubitGates(); got != wantP {
			t.Errorf("QFT(%d): 2q gates = %d, want %d", n, got, wantP)
		}
		wantQ := n + 3*n*(n-1)/2
		if got := c.NumOneQubitGates(); got != wantQ {
			t.Errorf("QFT(%d): 1q gates = %d, want %d", n, got, wantQ)
		}
	}
	// Table II: the 64-qubit QFT has 4032 2-qubit gates.
	if got := mc(t)(QFT(64)).NumTwoQubitGates(); got != 4032 {
		t.Fatalf("QFT(64) 2q gates = %d, want 4032", got)
	}
}

// TestQFTAnglesMatchPerGateExpression: QFTProgram's angle table must give
// every rotation the bits of the per-gate expression π/2^(j−i), including
// distances j−i ≥ 1024, where the power overflows to +Inf and the angle is
// 0 (math.Ldexp would give a subnormal there). QFT-1030 is streamed, not
// materialized, and checked gate by gate against the emission order H(i),
// then for each j > i: RZ(θ/2, j), CX(j, i), RZ(−θ/2, i), CX(j, i),
// RZ(θ/2, i).
func TestQFTAnglesMatchPerGateExpression(t *testing.T) {
	const n = 1030
	p := must[circuit.Program](t)(QFTProgram(n))
	i, j, k := 0, 0, 0 // j == i: H(i) is next; else gate k of CP(j, i)
	overflowed := 0
	err := p.Source().Emit(func(g *circuit.Gate) error {
		if i >= n {
			return fmt.Errorf("gate %d past the end of QFT-%d", g.ID, n)
		}
		if j == i {
			if g.Kind != circuit.H || g.Qubits[0] != i {
				return fmt.Errorf("gate %d = %s%v, want h q%d", g.ID, g.Kind.Name(), g.Qubits, i)
			}
			j, k = i+1, 0
		} else {
			theta := math.Pi / math.Pow(2, float64(j-i))
			kind, qubits, param := circuit.RZ, [2]int{j, -1}, theta/2
			switch k {
			case 1, 3:
				kind, qubits = circuit.CX, [2]int{j, i}
			case 2:
				qubits, param = [2]int{i, -1}, -theta/2
			case 4:
				qubits = [2]int{i, -1}
			}
			got := [2]int{g.Qubits[0], -1}
			if len(g.Qubits) == 2 {
				got[1] = g.Qubits[1]
			}
			if g.Kind != kind || got != qubits {
				return fmt.Errorf("gate %d = %s%v, want %s%v", g.ID, g.Kind.Name(), g.Qubits, kind.Name(), qubits)
			}
			if kind == circuit.RZ {
				if got, want := math.Float64bits(g.Params[0]), math.Float64bits(param); got != want {
					return fmt.Errorf("gate %d (j−i = %d): angle bits %#x, want %#x", g.ID, j-i, got, want)
				}
				if j-i >= 1024 {
					overflowed++
				}
			}
			if k++; k == 5 {
				k, j = 0, j+1
			}
		}
		if j == n {
			i++
			j = i
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != n {
		t.Fatalf("stream ended at qubit %d of %d", i, n)
	}
	// Distances 1024..1029 occur 6+5+4+3+2+1 = 21 times, three rotations
	// each, and their angle is exactly 0.
	if overflowed != 63 {
		t.Fatalf("%d rotations at j−i ≥ 1024, want 63", overflowed)
	}
	if theta := math.Pi / math.Pow(2, 1024); theta != 0 {
		t.Fatalf("π/2^1024 = %g, want 0", theta)
	}
}

func TestSupremacyMatchesTableII(t *testing.T) {
	c := mc(t)(Supremacy(8, 8, 20, 1))
	if c.NumQubits() != 64 {
		t.Fatalf("width = %d", c.NumQubits())
	}
	if got := c.NumTwoQubitGates(); got != 560 {
		t.Fatalf("Supremacy 2q gates = %d, want 560", got)
	}
	if got := c.NumOneQubitGates(); got != 1344 {
		t.Fatalf("Supremacy 1q gates = %d, want 1344 (64 H + 20 cycles × 64)", got)
	}
}

func TestSupremacyEdgePatternsStayOnGrid(t *testing.T) {
	rows, cols := 3, 5
	c := mc(t)(Supremacy(rows, cols, 8, 2))
	for _, g := range c.Gates() {
		if !g.IsTwoQubit() {
			continue
		}
		a, b := g.Qubits[0], g.Qubits[1]
		ra, ca := a/cols, a%cols
		rb, cb := b/cols, b%cols
		manhattan := abs(ra-rb) + abs(ca-cb)
		if manhattan != 1 {
			t.Fatalf("CZ %v not between grid neighbours", g)
		}
	}
}

func TestSupremacyDeterministicPerSeed(t *testing.T) {
	a := mc(t)(Supremacy(4, 4, 6, 7))
	b := mc(t)(Supremacy(4, 4, 6, 7))
	if a.String() != b.String() {
		t.Fatalf("same seed should reproduce the circuit")
	}
	c := mc(t)(Supremacy(4, 4, 6, 8))
	if a.String() == c.String() {
		t.Fatalf("different seed should change 1q gate choices")
	}
}

func TestQAOAMatchesTableII(t *testing.T) {
	edges := must[[][2]int](t)(RandomGraph(64, 315, 1))
	c := mc(t)(QAOA(64, edges, 2, 1))
	if got := c.NumTwoQubitGates(); got != 1260 {
		t.Fatalf("QAOA 2q gates = %d, want 1260 (2 rounds × 315 edges × 2 CX)", got)
	}
	if got := c.NumOneQubitGates(); got != 822 {
		t.Fatalf("QAOA 1q gates = %d, want 822", got)
	}
}

func TestRandomGraphProperties(t *testing.T) {
	edges := must[[][2]int](t)(RandomGraph(10, 20, 3))
	if len(edges) != 20 {
		t.Fatalf("edge count = %d", len(edges))
	}
	seen := map[[2]int]bool{}
	for _, e := range edges {
		if e[0] >= e[1] {
			t.Fatalf("edge %v not canonical", e)
		}
		if e[0] < 0 || e[1] > 9 {
			t.Fatalf("edge %v out of range", e)
		}
		if seen[e] {
			t.Fatalf("duplicate edge %v", e)
		}
		seen[e] = true
	}
	// Complete graph boundary.
	full := must[[][2]int](t)(RandomGraph(5, 10, 1))
	if len(full) != 10 {
		t.Fatalf("complete graph edges = %d", len(full))
	}
	mustReject(t, "too many edges", func() error { _, err := RandomGraph(4, 7, 1); return err })
}

func TestBernsteinVaziraniCounts(t *testing.T) {
	c := mc(t)(BernsteinVazirani(64, nil))
	if c.NumQubits() != 64 {
		t.Fatalf("width = %d", c.NumQubits())
	}
	// All-ones secret over 63 data bits → 63 CX (Table II rounds to 64).
	if got := c.NumTwoQubitGates(); got != 63 {
		t.Fatalf("BV 2q gates = %d, want 63", got)
	}
	if got := c.NumOneQubitGates(); got != 128 {
		t.Fatalf("BV 1q gates = %d, want 128", got)
	}
}

func TestBernsteinVaziraniCustomSecret(t *testing.T) {
	secret := []bool{true, false, true, false}
	c := mc(t)(BernsteinVazirani(5, secret))
	if got := c.NumTwoQubitGates(); got != 2 {
		t.Fatalf("2q gates = %d, want one per set bit", got)
	}
	for _, g := range c.Gates() {
		if g.IsTwoQubit() && g.Qubits[1] != 4 {
			t.Fatalf("oracle CX must target the ancilla: %v", g)
		}
	}
}

func TestBernsteinVaziraniValidation(t *testing.T) {
	mustReject(t, "too small", func() error { _, err := BernsteinVazirani(1, nil); return err })
	mustReject(t, "secret length", func() error { _, err := BernsteinVazirani(4, []bool{true}); return err })
}

func TestCuccaroAdderCounts(t *testing.T) {
	c := mc(t)(CuccaroAdder(31))
	if c.NumQubits() != 64 {
		t.Fatalf("width = %d, want 64 (2·31+2)", c.NumQubits())
	}
	// 16·bits + 1 CX with the 6-CX Toffoli decomposition.
	if got := c.NumTwoQubitGates(); got != 16*31+1 {
		t.Fatalf("Adder 2q gates = %d, want %d", got, 16*31+1)
	}
	if got := c.NumOneQubitGates(); got != 62*9 {
		t.Fatalf("Adder 1q gates = %d, want %d (62 Toffolis × 9)", got, 62*9)
	}
}

func TestCuccaroAdderValidation(t *testing.T) {
	mustReject(t, "zero bits", func() error { _, err := CuccaroAdder(0); return err })
}

func TestGroverCounts(t *testing.T) {
	c := mc(t)(Grover(40, 1))
	if c.NumQubits() != 78 {
		t.Fatalf("width = %d, want 78 (2·40−2)", c.NumQubits())
	}
	// Per multi-controlled Z: 76 Toffolis (6 CX each) + 1 CZ = 457; two
	// MCZs per iteration → 914.
	if got := c.NumTwoQubitGates(); got != 914 {
		t.Fatalf("Grover 2q gates = %d, want 914", got)
	}
}

func TestGroverValidation(t *testing.T) {
	mustReject(t, "small", func() error { _, err := Grover(2, 1); return err })
	mustReject(t, "no iterations", func() error { _, err := Grover(5, 0); return err })
}

func TestGHZ(t *testing.T) {
	c := mc(t)(GHZ(8))
	if c.NumTwoQubitGates() != 7 || c.NumOneQubitGates() != 1 {
		t.Fatalf("GHZ counts = %d/%d", c.NumOneQubitGates(), c.NumTwoQubitGates())
	}
	if c.Depth() != 8 {
		t.Fatalf("GHZ depth = %d, want 8 (fully serial ladder)", c.Depth())
	}
	mustReject(t, "zero", func() error { _, err := GHZ(0); return err })
}

func TestAllGeneratorsProduceValidCircuits(t *testing.T) {
	gens := map[string]*circuit.Circuit{
		"qft":       mc(t)(QFT(8)),
		"supremacy": mc(t)(Supremacy(3, 3, 4, 1)),
		"qaoa":      mc(t)(QAOA(6, must[[][2]int](t)(RandomGraph(6, 5, 1)), 1, 1)),
		"bv":        mc(t)(BernsteinVazirani(6, nil)),
		"adder":     mc(t)(CuccaroAdder(3)),
		"grover":    mc(t)(Grover(4, 2)),
		"ghz":       mc(t)(GHZ(5)),
	}
	for name, c := range gens {
		if c.NumGates() == 0 {
			t.Errorf("%s: empty circuit", name)
		}
		if c.Depth() <= 0 {
			t.Errorf("%s: nonpositive depth", name)
		}
		// Every gate already validated by the builder; smoke the
		// dependency extraction too.
		edges := c.DependencyEdges()
		for _, e := range edges {
			if e[0] >= e[1] {
				t.Errorf("%s: dependency edge %v not forward", name, e)
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
