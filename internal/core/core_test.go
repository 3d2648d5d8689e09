package core

import (
	"math"
	"testing"

	"velociti/internal/apps"
	"velociti/internal/circuit"
	"velociti/internal/perf"
	"velociti/internal/placement"
	"velociti/internal/schedule"
	"velociti/internal/ti"
)

func baseConfig() Config {
	return Config{
		Spec:        circuit.Spec{Name: "t", Qubits: 64, OneQubitGates: 10, TwoQubitGates: 200},
		ChainLength: 16,
		Runs:        5,
		Seed:        1,
	}
}

func TestRunBasicReport(t *testing.T) {
	rep, err := Run(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trials) != 5 {
		t.Fatalf("trials = %d", len(rep.Trials))
	}
	if rep.Device.NumChains != 4 || rep.Device.MaxWeakLinks != 4 || rep.Device.Topology != "ring" {
		t.Fatalf("device = %+v", rep.Device)
	}
	if rep.Serial.N != 5 || rep.Parallel.N != 5 {
		t.Fatalf("summaries not over all trials: %+v", rep)
	}
	if rep.Parallel.Mean <= 0 || rep.Serial.Mean < rep.Parallel.Mean {
		t.Fatalf("times implausible: serial=%v parallel=%v", rep.Serial.Mean, rep.Parallel.Mean)
	}
	if rep.MeanSpeedup() < 1 {
		t.Fatalf("speedup = %v, want ≥ 1", rep.MeanSpeedup())
	}
	if rep.Spec.Name != "t" {
		t.Fatalf("spec echo = %+v", rep.Spec)
	}
}

func TestRunDefaultsApplied(t *testing.T) {
	cfg := Config{
		Spec:        circuit.Spec{Name: "d", Qubits: 8, OneQubitGates: 2, TwoQubitGates: 10},
		ChainLength: 4,
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trials) != DefaultRuns {
		t.Fatalf("default runs = %d, want %d", len(rep.Trials), DefaultRuns)
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	cfg := baseConfig()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Serial.Mean != b.Serial.Mean || a.Parallel.Mean != b.Parallel.Mean {
		t.Fatalf("same seed must reproduce summaries: %v vs %v", a.Parallel, b.Parallel)
	}
	cfg.Seed = 2
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Parallel.Mean == c.Parallel.Mean {
		t.Fatalf("different master seed should perturb results")
	}
}

func TestRunTrialSeedsRecorded(t *testing.T) {
	rep, err := Run(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, tr := range rep.Trials {
		if seen[tr.Seed] {
			t.Fatalf("duplicate trial seed %d", tr.Seed)
		}
		seen[tr.Seed] = true
	}
}

func TestRunValidation(t *testing.T) {
	bad := []Config{
		{Spec: circuit.Spec{Qubits: 0}, ChainLength: 16},
		{Spec: circuit.Spec{Qubits: 4, TwoQubitGates: 2}, ChainLength: 0},
		{Spec: circuit.Spec{Qubits: 4, TwoQubitGates: 2}, ChainLength: 8,
			Latencies: perf.Latencies{OneQubit: 1, TwoQubit: 100, WeakPenalty: 0.2}},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
}

func TestSerialMatchesEquationOnTrials(t *testing.T) {
	// Each trial's serial time must satisfy Eq. 1–2 exactly given its
	// reported weak-gate count.
	cfg := baseConfig()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lat := perf.DefaultLatencies()
	for i, tr := range rep.Trials {
		want := perf.SerialTimeFromCounts(cfg.Spec.OneQubitGates, cfg.Spec.TwoQubitGates, tr.Perf.LinksUsed, lat)
		if math.Abs(tr.Perf.SerialMicros-want) > 1e-9 {
			t.Fatalf("trial %d: serial %v != Eq.1-2 value %v (w=%d)", i, tr.Perf.SerialMicros, want, tr.Perf.LinksUsed)
		}
		if tr.Perf.SerialPerGateMicros < tr.Perf.ParallelMicros {
			t.Fatalf("trial %d: per-gate serial %v below parallel %v", i, tr.Perf.SerialPerGateMicros, tr.Perf.ParallelMicros)
		}
	}
}

func TestSingleChainHasNoWeakGates(t *testing.T) {
	cfg := Config{
		Spec:        circuit.Spec{Name: "1chain", Qubits: 16, OneQubitGates: 8, TwoQubitGates: 100},
		ChainLength: 16,
		Runs:        5,
		Seed:        3,
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Device.NumChains != 1 || rep.Device.MaxWeakLinks != 0 {
		t.Fatalf("device = %+v", rep.Device)
	}
	if rep.WeakGates.Max != 0 {
		t.Fatalf("single-chain workload must have zero weak gates, got %v", rep.WeakGates)
	}
}

func TestExplicitCircuitMode(t *testing.T) {
	c, err := apps.GHZ(16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Circuit:     c,
		ChainLength: 8,
		Runs:        5,
		Seed:        4,
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spec.Qubits != 16 || rep.Spec.TwoQubitGates != 15 {
		t.Fatalf("spec derived from circuit = %+v", rep.Spec)
	}
	// GHZ ladder is fully serial: parallel time equals the per-gate
	// serial time in every trial (single dependency chain; Eq. 1–2's
	// serial can sit below both since it charges α once per link used).
	for i, tr := range rep.Trials {
		if math.Abs(tr.Perf.ParallelMicros-tr.Perf.SerialPerGateMicros) > 1e-9 {
			t.Fatalf("trial %d: GHZ ladder should have no parallelism: %v vs %v",
				i, tr.Perf.ParallelMicros, tr.Perf.SerialPerGateMicros)
		}
	}
}

func TestExplicitModeChargesCrossChainGates(t *testing.T) {
	// Two qubits forced onto different chains with a gate between them:
	// explicit mode charges α·γ per hop instead of rejecting.
	c := circuit.New("cross", 4)
	c.CX(0, 1) // round-robin places q0 on chain 0 and q1 on chain 1
	cfg := Config{
		Circuit:     c,
		ChainLength: 2,
		Placement:   placement.RoundRobin{},
		Runs:        1,
		Seed:        1,
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := rep.Trials[0].Perf
	if tr.WeakGates == 0 {
		t.Fatalf("cross-chain gate should count weak traversals: %+v", tr)
	}
	if tr.SerialMicros <= 100 {
		t.Fatalf("cross-chain gate should cost more than γ: %v", tr.SerialMicros)
	}
}

func TestRunOnceInspectables(t *testing.T) {
	cfg := baseConfig()
	b, res, err := RunOnce(cfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	c, layout := b.Evaluator().Circuit(), b.Layout()
	if c.NumTwoQubitGates() != 200 {
		t.Fatalf("placed circuit 2q gates = %d", c.NumTwoQubitGates())
	}
	if layout.NumQubits() != 64 {
		t.Fatalf("layout qubits = %d", layout.NumQubits())
	}
	if res.ParallelMicros <= 0 || len(res.CriticalPath) == 0 {
		t.Fatalf("result = %+v", res)
	}
	// The critical path's length is consistent with the parallel time:
	// it has at least parallel/maxGateLatency gates.
	if res.ParallelMicros > float64(len(res.CriticalPath))*200 {
		t.Fatalf("critical path too short (%d gates) for parallel time %v",
			len(res.CriticalPath), res.ParallelMicros)
	}
}

func TestRunOnceValidates(t *testing.T) {
	if _, _, err := RunOnce(Config{}, 1); err == nil {
		t.Fatalf("empty config should fail")
	}
}

func TestAlternativePoliciesWork(t *testing.T) {
	cfg := baseConfig()
	cfg.Placement = placement.RoundRobin{}
	cfg.Placer = schedule.WeakAvoiding{}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WeakGates.Max != 0 {
		t.Fatalf("weak-avoiding placer must never cross links: %v", rep.WeakGates)
	}
}

func TestLineTopology(t *testing.T) {
	cfg := baseConfig()
	cfg.Topology = ti.Line
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Device.MaxWeakLinks != 3 {
		t.Fatalf("line topology links = %d, want 3", rep.Device.MaxWeakLinks)
	}
}

// The paper's Case Study 1 shape: the parallel model beats serial by
// several-fold on Table II-sized workloads.
func TestParallelSpeedupIsSubstantial(t *testing.T) {
	cfg := Config{
		Spec:        apps.PaperSpecs()[0], // Supremacy
		ChainLength: 16,
		Runs:        10,
		Seed:        7,
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := rep.MeanSpeedup(); s < 2 {
		t.Fatalf("Supremacy speedup = %v, expected well above 2x", s)
	}
}

func TestWorkersProduceIdenticalResults(t *testing.T) {
	cfg := baseConfig()
	cfg.Runs = 12
	serialRep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	parRep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(serialRep.Trials) != len(parRep.Trials) {
		t.Fatalf("trial counts differ")
	}
	for i := range serialRep.Trials {
		a, b := serialRep.Trials[i], parRep.Trials[i]
		if a.Seed != b.Seed || a.Perf.ParallelMicros != b.Perf.ParallelMicros ||
			a.Perf.SerialMicros != b.Perf.SerialMicros || a.Perf.WeakGates != b.Perf.WeakGates {
			t.Fatalf("trial %d differs between serial and concurrent runs:\n%+v\n%+v", i, a, b)
		}
	}
	if serialRep.Parallel != parRep.Parallel {
		t.Fatalf("summaries differ: %+v vs %+v", serialRep.Parallel, parRep.Parallel)
	}
}

func TestWorkersExceedingRuns(t *testing.T) {
	cfg := baseConfig()
	cfg.Runs = 2
	cfg.Workers = 16
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Trials) != 2 {
		t.Fatalf("trials = %d", len(rep.Trials))
	}
}

func TestWorkersSurfaceTrialErrors(t *testing.T) {
	// Weak-avoiding placement on 1-ion chains fails in every trial; the
	// concurrent path must surface the error rather than hang or panic.
	cfg := Config{
		Spec:        circuit.Spec{Name: "bad", Qubits: 4, TwoQubitGates: 5},
		ChainLength: 1,
		Placer:      schedule.WeakAvoiding{},
		Runs:        8,
		Workers:     4,
		Seed:        1,
	}
	if _, err := Run(cfg); err == nil {
		t.Fatalf("expected trial failure to propagate")
	}
}
