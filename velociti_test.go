package velociti

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestFacadeQuickStart(t *testing.T) {
	cfg := Config{
		Spec:        Spec{Name: "demo", Qubits: 64, TwoQubitGates: 560},
		ChainLength: 16,
		Runs:        5,
		Seed:        1,
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeanSpeedup() <= 1 {
		t.Fatalf("speedup = %v", rep.MeanSpeedup())
	}
	if rep.Device.NumChains != 4 {
		t.Fatalf("device = %+v", rep.Device)
	}
}

func TestFacadeRunOnce(t *testing.T) {
	cfg := Config{
		Spec:        Spec{Name: "once", Qubits: 32, TwoQubitGates: 100},
		ChainLength: 8,
	}
	c, l, res, err := RunOnce(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumTwoQubitGates() != 100 || l.NumQubits() != 32 || res.ParallelMicros <= 0 {
		t.Fatalf("RunOnce pieces: %v %v %v", c.Spec(), l.NumQubits(), res)
	}
}

func TestFacadeExplicitCircuit(t *testing.T) {
	c, err := QFT(16)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{Circuit: c, ChainLength: 8, Runs: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spec.TwoQubitGates != 240 {
		t.Fatalf("spec = %+v", rep.Spec)
	}
}

func TestFacadeAppsCatalog(t *testing.T) {
	specs := Apps()
	if len(specs) != 6 {
		t.Fatalf("apps = %d", len(specs))
	}
	spec, build, err := AppByName("BV")
	if err != nil {
		t.Fatal(err)
	}
	if spec.TwoQubitGates != 64 {
		t.Fatalf("BV spec = %+v", spec)
	}
	c, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits() != 64 {
		t.Fatalf("BV generator width = %d", c.NumQubits())
	}
}

func TestFacadeDeviceAndEvaluate(t *testing.T) {
	d, err := DeviceFor(16, 8, Ring)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := SequentialPlacement.Place(d, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(fc(t)(GHZ(16)), layout, DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	if res.WeakGates == 0 {
		t.Fatalf("GHZ ladder across 2 chains should cross the boundary: %+v", res)
	}
}

func TestFacadeQASMRoundTrip(t *testing.T) {
	text := SerializeQASM(fc(t)(GHZ(4)))
	c, err := ParseQASM("ghz", text)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != 4 {
		t.Fatalf("gates = %d", c.NumGates())
	}
	if !strings.Contains(text, "OPENQASM 2.0") {
		t.Fatalf("serialization malformed:\n%s", text)
	}
}

// TestFacadeQASMInputError: a parameter expression nested far past the
// parser's bound is rejected as invalid input, not a stack overflow.
func TestFacadeQASMInputError(t *testing.T) {
	depth := 100000
	src := "OPENQASM 2.0;\nqreg q[1];\nrx(" + strings.Repeat("(", depth) + "1" + strings.Repeat(")", depth) + ") q[0];\n"
	if _, err := ParseQASM("deep", src); !IsInputError(err) {
		t.Fatalf("ParseQASM err = %v, want an input error", err)
	}
	if IsInputError(errors.New("internal")) {
		t.Fatal("an unmarked error counts as an input error")
	}
}

func TestFacadeCircuitJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCircuitJSON(&buf, fc(t)(CuccaroAdder(2))); err != nil {
		t.Fatal(err)
	}
	c, err := ReadCircuitJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits() != 6 {
		t.Fatalf("adder width = %d", c.NumQubits())
	}
}

func TestFacadePlacers(t *testing.T) {
	for _, name := range []string{"random", "weak-avoiding", "load-balanced", "edge-constrained"} {
		p, err := PlacerByName(name, DefaultLatencies())
		if err != nil || p.Name() != name {
			t.Errorf("PlacerByName(%q): %v %v", name, p, err)
		}
	}
	if RandomPlacer().Name() != "random" || WeakAvoidingPlacer().Name() != "weak-avoiding" ||
		EdgeConstrainedPlacer().Name() != "edge-constrained" ||
		LoadBalancedPlacer(DefaultLatencies()).Name() != "load-balanced" {
		t.Fatalf("placer constructors drifted")
	}
}

func TestFacadeParams(t *testing.T) {
	p := DefaultParams()
	p.Workload = Spec{Name: "w", Qubits: 8, TwoQubitGates: 4}
	p.Runs = 2
	cfg, err := p.ToCoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeGenerators(t *testing.T) {
	if fc(t)(Supremacy(8, 8, 20, 1)).NumTwoQubitGates() != 560 {
		t.Fatalf("Supremacy count drifted")
	}
	if fc(t)(QAOA(6, [][2]int{{0, 1}, {2, 3}}, 2, 1)).NumTwoQubitGates() != 8 {
		t.Fatalf("QAOA count drifted")
	}
	if fc(t)(BernsteinVazirani(8, nil)).NumQubits() != 8 {
		t.Fatalf("BV width drifted")
	}
	if fc(t)(Grover(4, 1)).NumQubits() != 6 {
		t.Fatalf("Grover width drifted")
	}
	if NewRand(3).Int63() != NewRand(3).Int63() {
		t.Fatalf("NewRand not deterministic")
	}
	c := NewCircuit("x", 2)
	c.CX(0, 1)
	if c.NumGates() != 1 {
		t.Fatalf("NewCircuit broken")
	}
}

func TestFacadeFidelity(t *testing.T) {
	d, _ := DeviceFor(8, 4, Ring)
	l, _ := SequentialPlacement.Place(d, 8, nil)
	est, err := EstimateFidelity(fc(t)(GHZ(8)), l, DefaultLatencies(), DefaultFidelityModel())
	if err != nil {
		t.Fatal(err)
	}
	if est.Total <= 0 || est.Total >= 1 {
		t.Fatalf("fidelity = %v", est.Total)
	}
	if est.WeakGateErrorShare <= 0 {
		t.Fatalf("GHZ across chains should have weak-link error share: %+v", est)
	}
}

func TestFacadeShuttle(t *testing.T) {
	d, _ := DeviceFor(8, 4, Ring)
	l, _ := SequentialPlacement.Place(d, 8, nil)
	res, err := CompareShuttle(fc(t)(GHZ(8)), l, DefaultLatencies(), DefaultShuttleParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.CrossGates == 0 || res.ShuttleMicros <= res.WeakLinkMicros {
		t.Fatalf("expected shuttling slower at α=2: %+v", res)
	}
	if !res.WeakLinkWins() {
		t.Fatalf("weak link should win at default costs")
	}
}

func TestFacadeTimeline(t *testing.T) {
	d, _ := DeviceFor(8, 4, Ring)
	l, _ := SequentialPlacement.Place(d, 8, nil)
	tl, err := BuildTimeline(fc(t)(GHZ(8)), l, DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	if tl.Makespan <= 0 || tl.Concurrency() != 1 {
		t.Fatalf("GHZ timeline = %+v", tl)
	}
	if !strings.Contains(tl.Gantt(40), "chain") {
		t.Fatalf("gantt malformed")
	}
}

func TestFacadeExtraApps(t *testing.T) {
	if fc(t)(QPE(4, 0.25)).NumQubits() != 5 {
		t.Fatalf("QPE width")
	}
	if fc(t)(VQEAnsatz(6, 2, 1)).NumTwoQubitGates() != 10 {
		t.Fatalf("VQE counts")
	}
	if fc(t)(WState(5)).NumQubits() != 5 {
		t.Fatalf("W width")
	}
	opt, stats := fc(t)(GHZ(4)).Optimize()
	if opt.NumGates() != 4 || stats.Total() != 0 {
		t.Fatalf("GHZ should be irreducible")
	}
}

func TestFacadeRouter(t *testing.T) {
	d, _ := DeviceFor(8, 4, Ring)
	l, _ := SequentialPlacement.Place(d, 8, nil)
	c := NewCircuit("hot", 8)
	for i := 0; i < 10; i++ {
		c.CX(0, 4)
	}
	res, err := LocalizeCircuit(c, l, DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations != 1 {
		t.Fatalf("migrations = %d", res.Migrations)
	}
}

// fc unwraps a facade circuit-generator result, failing the test on error.
func fc(t testing.TB) func(*Circuit, error) *Circuit {
	return func(c *Circuit, err error) *Circuit {
		t.Helper()
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		return c
	}
}

func TestFacadeRefine(t *testing.T) {
	// GHZ's CX ladder is a path graph: a random layout cuts it often, and
	// local search walks the cut down towards one edge per chain boundary.
	ig := fc(t)(GHZ(16)).InteractionGraph()
	crossChain := func(l *Layout) int {
		w := 0
		for pair, n := range ig {
			if !l.SameChain(pair[0], pair[1]) {
				w += n
			}
		}
		return w
	}
	d, err := DeviceFor(16, 4, Ring)
	if err != nil {
		t.Fatal(err)
	}
	base, err := RandomPlacement.Place(d, 16, NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	baseCost := crossChain(base)
	refined, cost, converged, err := RefineLayout(base, ig, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !converged {
		t.Fatalf("default pass budget did not converge on 16 qubits (cost %d)", cost)
	}
	if cost != crossChain(refined) || cost > baseCost || crossChain(base) != baseCost {
		t.Fatalf("refined cross-chain weight %d (reported %d), base %d", crossChain(refined), cost, baseCost)
	}
	if cost == baseCost {
		t.Fatalf("refinement left the random layout's cut of %d unimproved", baseCost)
	}

	// The policy is a base placement followed by the same refinement.
	pol := RefinedPlacement(RandomPlacement, ig, 0)
	l, err := pol.Place(d, 16, NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if pol.Name() != "refined" || crossChain(l) != cost {
		t.Fatalf("RefinedPlacement %q cut %d, want refined cut %d", pol.Name(), crossChain(l), cost)
	}
}
