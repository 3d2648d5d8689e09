package expt

import (
	"strings"
	"testing"

	"velociti/internal/apps"
	"velociti/internal/circuit"
	"velociti/internal/perf"
	"velociti/internal/shuttle"
)

// testOpts keeps experiment tests fast while preserving the qualitative
// shapes (the full 35-run versions run in the benches and cmd tools).
func testOpts() Options {
	return Options{Runs: 8, Seed: 42}
}

func TestTableIIRendering(t *testing.T) {
	out := TableII()
	for _, want := range []string{"Supremacy", "QAOA", "SquareRoot", "QFT", "Adder", "BV", "4032", "78"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II missing %q:\n%s", want, out)
		}
	}
}

func TestTableIIIRendering(t *testing.T) {
	out := TableIII(perf.DefaultLatencies())
	for _, want := range []string{"1-qubit", "2-qubit", "100", "weak link"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table III missing %q:\n%s", want, out)
		}
	}
}

func TestFig5ShapesAndRendering(t *testing.T) {
	res, err := Fig5(Options{Runs: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 grid points", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.MeanSeconds < 0 {
			t.Errorf("%s: negative sim time", row.Spec.Name)
		}
	}
	// Bigger circuits must not simulate faster by an order of magnitude;
	// the paper's trend is monotonically increasing.
	if res.ScalingFactor <= 0 {
		t.Errorf("scaling factor = %v", res.ScalingFactor)
	}
	out := res.Table()
	if !strings.Contains(out, "Figure 5") || !strings.Contains(out, "scaling factor") {
		t.Errorf("table malformed:\n%s", out)
	}
	csv := res.CSV()
	if len(strings.Split(strings.TrimSpace(csv), "\n")) != 5 {
		t.Errorf("csv should have header + 4 rows:\n%s", csv)
	}
}

func TestFig6PaperShapes(t *testing.T) {
	res, err := Fig6(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byApp := map[string]Fig6Row{}
	for _, row := range res.Rows {
		byApp[row.App] = row
		// Parallel beats serial for every app.
		if row.Speedup <= 1 {
			t.Errorf("%s: speedup %v, want > 1", row.App, row.Speedup)
		}
		if row.Serial.Min > row.Serial.Max || row.Parallel.Min > row.Parallel.Max {
			t.Errorf("%s: summary ordering broken", row.App)
		}
	}
	// QFT (most 2q gates) is the slowest application in both models, and
	// BV (fewest) the fastest — the paper's ordering.
	for _, row := range res.Rows {
		if row.App != "QFT" && row.Serial.Mean >= byApp["QFT"].Serial.Mean {
			t.Errorf("%s serial %v should be below QFT %v", row.App, row.Serial.Mean, byApp["QFT"].Serial.Mean)
		}
		if row.App != "BV" && row.Parallel.Mean <= byApp["BV"].Parallel.Mean {
			t.Errorf("%s parallel %v should exceed BV %v", row.App, row.Parallel.Mean, byApp["BV"].Parallel.Mean)
		}
	}
	// The aggregate speedup is several-fold (paper: 6.2x; see
	// EXPERIMENTS.md for the BV deviation that pulls ours slightly low).
	if res.GeoMeanSpeedup < 4 || res.GeoMeanSpeedup > 8 {
		t.Errorf("geomean speedup = %v, outside plausible band around 6.2x", res.GeoMeanSpeedup)
	}
	// QFT serial is 403.6 ms exactly when all 4 weak links are used
	// (Eq. 1–2 with w = 4): 4·200 + 4028·100 = 403,600 µs.
	if q := byApp["QFT"]; q.Serial.Mean < 403_000 || q.Serial.Mean > 403_600 {
		t.Errorf("QFT serial = %v µs, expected ≈ 403,600 µs (paper: 403.6 ms)", q.Serial.Mean)
	}
	// QFT parallel ≈ 74.5 ms in the paper; the model lands within a few
	// percent of it.
	if q := byApp["QFT"]; q.Parallel.Mean < 65_000 || q.Parallel.Mean > 85_000 {
		t.Errorf("QFT parallel = %v µs, expected ≈ 74,500 µs (paper: 74.5 ms)", q.Parallel.Mean)
	}
	// Geometric-mean serial time lands on the paper's 69.3 ms.
	if res.GeoMeanSerialMs < 67 || res.GeoMeanSerialMs > 72 {
		t.Errorf("geomean serial = %v ms, expected ≈ 69.3 ms", res.GeoMeanSerialMs)
	}
	// Geometric-mean parallel time lands near the paper's 11.2 ms.
	if res.GeoMeanParallelMs < 9 || res.GeoMeanParallelMs > 15 {
		t.Errorf("geomean parallel = %v ms, expected ≈ 11.2 ms", res.GeoMeanParallelMs)
	}
	out := res.Table()
	if !strings.Contains(out, "geomean") || !strings.Contains(out, "Speedup") {
		t.Errorf("table malformed:\n%s", out)
	}
	if lines := strings.Split(strings.TrimSpace(res.CSV()), "\n"); len(lines) != 7 {
		t.Errorf("csv lines = %d, want 7", len(lines))
	}
}

func TestFig7PaperShapes(t *testing.T) {
	res, err := Fig7(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 || len(res.ChainLengths) != 4 {
		t.Fatalf("shape = %dx%d", len(res.Rows), len(res.ChainLengths))
	}
	for _, row := range res.Rows {
		if len(row.Parallel) != 4 {
			t.Fatalf("%s: %d cells", row.App, len(row.Parallel))
		}
		// Longer chains help: L=32 is faster than L=8 for every app.
		if row.Parallel[3].Mean >= row.Parallel[0].Mean {
			t.Errorf("%s: L=32 (%v) not faster than L=8 (%v)", row.App, row.Parallel[3].Mean, row.Parallel[0].Mean)
		}
	}
	// Paper: 20% average speedup from chain length 8 to 32.
	if res.AvgSpeedup8to32 < 0.10 || res.AvgSpeedup8to32 > 0.35 {
		t.Errorf("average speedup = %v, expected ≈ 20%%", res.AvgSpeedup8to32)
	}
	out := res.Table()
	if !strings.Contains(out, "L=8") || !strings.Contains(out, "average speedup") {
		t.Errorf("table malformed:\n%s", out)
	}
}

func TestFig8PaperShapes(t *testing.T) {
	res, err := Fig8(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Qubits) != 7 {
		t.Fatalf("qubit sweep = %v", res.Qubits)
	}
	// Reducing α always helps: α=1 column is never slower than α=2.
	for i, n := range res.Qubits {
		row := res.ByAlpha[i]
		if row[len(row)-1].Mean > row[0].Mean {
			t.Errorf("N=%d: α=1 (%v) slower than α=2 (%v)", n, row[len(row)-1].Mean, row[0].Mean)
		}
	}
	// α scaling helps more than chain-length scaling for quantum volume
	// (paper: 24% vs trivial).
	if res.AvgAlphaSpeedup <= res.AvgChainSpeedup {
		t.Errorf("α speedup %v should exceed chain speedup %v for QV", res.AvgAlphaSpeedup, res.AvgChainSpeedup)
	}
	if res.AvgAlphaSpeedup < 0.05 {
		t.Errorf("α speedup %v implausibly small (paper: 24%%)", res.AvgAlphaSpeedup)
	}
	// Chain-length scaling is trivial for QV (paper's observation); allow
	// a loose bound.
	if res.AvgChainSpeedup > 0.20 {
		t.Errorf("chain speedup %v should be small for QV", res.AvgChainSpeedup)
	}
	// Run-to-run variance is large under random scheduling (paper: >50%
	// at 35 runs; with 8 runs demand a weaker bound).
	if res.MaxRelSpread < 0.15 {
		t.Errorf("max relative spread %v implausibly small", res.MaxRelSpread)
	}
	out := res.Table()
	for _, want := range []string{"(a)", "(b)", "α=2.0", "L=64"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(res.CSV(), "alpha,8") {
		t.Errorf("csv malformed:\n%s", res.CSV())
	}
}

func TestFig9PaperShapes(t *testing.T) {
	qv, err := Fig8(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fig9(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Denser circuits benefit more from α scaling than quantum volume
	// (paper: up to 49% vs 24% average).
	if res.AvgAlphaSpeedup <= qv.AvgAlphaSpeedup {
		t.Errorf("2:1 α speedup %v should exceed QV's %v", res.AvgAlphaSpeedup, qv.AvgAlphaSpeedup)
	}
	// The paper's 48-qubit threshold: below 48 qubits the workload fits
	// in a single 32-ion chain at every swept length, so chain scaling
	// has exactly no effect; at and above 48 qubits it becomes
	// substantial (paper: up to 34%).
	var bigChain float64
	for i, n := range res.Qubits {
		if n < 48 {
			if res.ChainSpeedups[i] != 0 {
				t.Errorf("N=%d: chain speedup %v, want exactly 0 (single chain)", n, res.ChainSpeedups[i])
			}
			continue
		}
		if res.ChainSpeedups[i] > bigChain {
			bigChain = res.ChainSpeedups[i]
		}
	}
	if bigChain < 0.10 {
		t.Errorf("max chain speedup for ≥48 qubits = %v, paper shows up to 34%%", bigChain)
	}
}

func TestAblationSchedulers(t *testing.T) {
	res, err := AblationSchedulers(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]AblationRow{}
	for _, row := range res.Rows {
		byName[row.Variant] = row
	}
	if byName["weak-avoiding"].WeakGates.Max != 0 {
		t.Errorf("weak-avoiding must never use weak links: %v", byName["weak-avoiding"].WeakGates)
	}
	if byName["edge-constrained"].WeakGates.Mean >= byName["random"].WeakGates.Mean {
		t.Errorf("edge-constrained weak gates %v should be far below random %v",
			byName["edge-constrained"].WeakGates.Mean, byName["random"].WeakGates.Mean)
	}
	if byName["load-balanced"].Parallel.Mean >= byName["random"].Parallel.Mean {
		t.Errorf("load-balanced (%v) should beat random (%v)",
			byName["load-balanced"].Parallel.Mean, byName["random"].Parallel.Mean)
	}
	if !strings.Contains(res.Table(), "scheduling") {
		t.Errorf("table malformed:\n%s", res.Table())
	}
}

func TestAblationPlacement(t *testing.T) {
	res, err := AblationPlacement(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationRow{}
	for _, row := range res.Rows {
		byName[row.Variant] = row
	}
	// Interaction-aware placement must cut cross-chain traffic versus
	// random placement on the grid-structured Supremacy circuit.
	if byName["interaction-aware"].WeakGates.Mean >= byName["random"].WeakGates.Mean {
		t.Errorf("interaction-aware weak gates %v should be below random %v",
			byName["interaction-aware"].WeakGates.Mean, byName["random"].WeakGates.Mean)
	}
}

func TestAblationTopology(t *testing.T) {
	res, err := AblationTopology(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0].Variant != "ring" || res.Rows[1].Variant != "line" {
		t.Fatalf("variants = %v", res.Rows)
	}
	if !strings.Contains(res.CSV(), "ring") {
		t.Errorf("csv missing variants")
	}
}

func TestRenderHelpers(t *testing.T) {
	tab := renderTable("T", []string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	if !strings.Contains(tab, "T\n") || !strings.Contains(tab, "333") {
		t.Errorf("renderTable:\n%s", tab)
	}
	csv := renderCSV([]string{"x"}, [][]string{{`va"l,ue`}})
	if !strings.Contains(csv, `"va""l,ue"`) {
		t.Errorf("CSV quoting broken: %q", csv)
	}
	if ms(1500) != "1.50" {
		t.Errorf("ms = %q", ms(1500))
	}
	if pct(0.249) != "24.9%" {
		t.Errorf("pct = %q", pct(0.249))
	}
}

func TestAblationComm(t *testing.T) {
	res, err := AblationComm(Options{Runs: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(ScalingAlphas)+3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Shuttling time is α-independent; weak-link time grows with α. At
	// Table III's α=2 the weak link must win, and by α=5 (beyond the
	// analytic 3.7 break-even) shuttling must win.
	byAlpha := map[float64]CommRow{}
	for _, row := range res.Rows {
		byAlpha[row.Alpha] = row
	}
	if byAlpha[2.0].Winner != "weak link" {
		t.Errorf("α=2: %+v", byAlpha[2.0])
	}
	if byAlpha[5.0].Winner != "shuttling" {
		t.Errorf("α=5: %+v", byAlpha[5.0])
	}
	if res.BreakEvenAlpha < 3 || res.BreakEvenAlpha > 4.5 {
		t.Errorf("break-even α = %v", res.BreakEvenAlpha)
	}
	// Shuttle column constant across α (same seeds → same circuits).
	if byAlpha[2.0].ShuttleMs != byAlpha[1.0].ShuttleMs {
		t.Errorf("shuttle time should not depend on α: %v vs %v",
			byAlpha[2.0].ShuttleMs, byAlpha[1.0].ShuttleMs)
	}
	if !strings.Contains(res.Table(), "break-even") || !strings.Contains(res.CSV(), "winner") {
		t.Errorf("rendering broken")
	}
}

func TestTableIRendering(t *testing.T) {
	specs := []string{}
	_ = specs
	out, err := TableI(Options{Runs: 3, Seed: 1}, fig6Spec(t, "QFT"), 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table I", "number of chains", "4", "w_max", "weak links used"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
}

// fig6Spec fetches a Table II spec by name for test convenience.
func fig6Spec(t *testing.T, name string) circuit.Spec {
	t.Helper()
	for _, s := range apps.PaperSpecs() {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("unknown app %q", name)
	return circuit.Spec{}
}

func TestAblationPlacementRefinedAtopGreedy(t *testing.T) {
	res, err := AblationPlacement(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationRow{}
	for _, row := range res.Rows {
		byName[row.Variant] = row
	}
	// Refinement seeded with the greedy layout never does worse than
	// greedy alone.
	if byName["refined(greedy)"].WeakGates.Mean > byName["interaction-aware"].WeakGates.Mean {
		t.Errorf("refined(greedy) weak gates %v exceed greedy's %v",
			byName["refined(greedy)"].WeakGates.Mean, byName["interaction-aware"].WeakGates.Mean)
	}
	// And local search from random still beats raw random placement.
	if byName["refined(random)"].WeakGates.Mean >= byName["random"].WeakGates.Mean {
		t.Errorf("refined(random) weak gates %v should beat random %v",
			byName["refined(random)"].WeakGates.Mean, byName["random"].WeakGates.Mean)
	}
}

func TestExtFidelityShapes(t *testing.T) {
	res, err := ExtFidelity(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if !res.finite() {
		t.Fatalf("log-fidelity not finite")
	}
	for _, row := range res.Rows {
		// Longer chains mean fewer weak gates, hence fewer expected
		// errors and higher (less negative) log-fidelity.
		n := len(row.ExpectedErrors)
		if row.ExpectedErrors[n-1] >= row.ExpectedErrors[0] {
			t.Errorf("%s: errors did not drop with chain length: %v", row.App, row.ExpectedErrors)
		}
		if row.LogFidelity[n-1] <= row.LogFidelity[0] {
			t.Errorf("%s: fidelity did not improve with chain length: %v", row.App, row.LogFidelity)
		}
	}
	if res.AvgErrorReduction < 0.2 {
		t.Errorf("average error reduction = %v, expected substantial", res.AvgErrorReduction)
	}
	if !strings.Contains(res.Table(), "error reduction") || !strings.Contains(res.CSV(), "log_fidelity") {
		t.Errorf("rendering broken")
	}
	// The error model describes weak-link gates, so the study prices the
	// paper's model whatever backend the options carry.
	opt := testOpts()
	opt.Backend = shuttle.Backend{Params: shuttle.Default()}
	shuttled, err := ExtFidelity(opt)
	if err != nil {
		t.Fatal(err)
	}
	if shuttled.CSV() != res.CSV() {
		t.Errorf("fidelity study moved with the shuttle backend:\n%s\nwant\n%s", shuttled.CSV(), res.CSV())
	}
}

func TestExtControlCapacityShapes(t *testing.T) {
	res, err := ExtControlCapacity(Options{Runs: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		// Times fall (weakly) as capacity grows.
		for i := 1; i < len(row.ParallelMs); i++ {
			if row.ParallelMs[i] > row.ParallelMs[i-1]+1e-9 {
				t.Errorf("%s: capacity level %d slower than level %d: %v",
					row.App, i, i-1, row.ParallelMs)
			}
		}
		if row.Slowdown1 < 1 {
			t.Errorf("%s: K=1 slowdown %v below 1", row.App, row.Slowdown1)
		}
	}
	// Fully serialized control must cost something substantial on the
	// dense workloads.
	if res.AvgSlowdown1 < 1.5 {
		t.Errorf("average K=1 slowdown = %v, implausibly small", res.AvgSlowdown1)
	}
	if !strings.Contains(res.Table(), "control capacity") || !strings.Contains(res.CSV(), "capacity") {
		t.Errorf("rendering broken")
	}
}

func TestFigureSVGRenderers(t *testing.T) {
	opt := Options{Runs: 3, Seed: 4}
	f5, err := Fig5(opt)
	if err != nil {
		t.Fatal(err)
	}
	f6, err := Fig6(opt)
	if err != nil {
		t.Fatal(err)
	}
	f7, err := Fig7(opt)
	if err != nil {
		t.Fatal(err)
	}
	f8, err := Fig8(opt)
	if err != nil {
		t.Fatal(err)
	}
	renders := map[string]func() (string, error){
		"fig5":  f5.SVG,
		"fig6":  f6.SVG,
		"fig7":  f7.SVG,
		"fig8a": f8.SVGChain,
		"fig8b": f8.SVGAlpha,
	}
	for name, render := range renders {
		out, err := render()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.HasPrefix(out, "<svg") || !strings.Contains(out, "</svg>") {
			t.Errorf("%s: not an SVG document", name)
		}
	}
	// Fig7 CSV covered here too.
	if !strings.Contains(f7.CSV(), "parallel_us_L8") {
		t.Errorf("fig7 csv malformed")
	}
}
