package fidelity

import (
	"math"
	"strings"
	"testing"

	"velociti/internal/circuit"
	"velociti/internal/perf"
	"velociti/internal/placement"
	"velociti/internal/schedule"
	"velociti/internal/stats"
	"velociti/internal/ti"
)

func layout(t *testing.T, qubits, chainLen int) *ti.Layout {
	t.Helper()
	d, err := ti.DeviceFor(qubits, chainLen, ti.Ring)
	if err != nil {
		t.Fatal(err)
	}
	l, err := placement.Sequential{}.Place(d, qubits, nil)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestDefaultModelValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadRates(t *testing.T) {
	bad := []Model{
		{OneQubitError: -0.1, T2Micros: 1},
		{TwoQubitError: 1.0, T2Micros: 1},
		{WeakLinkError: 2, T2Micros: 1},
		{T2Micros: 0},
		{OneQubitError: math.NaN(), T2Micros: 1},
		{TwoQubitError: math.NaN(), T2Micros: 1},
		{WeakLinkError: math.NaN(), T2Micros: 1},
		{WeakLinkError: math.Inf(1), T2Micros: 1},
		{T2Micros: math.NaN()},
		{T2Micros: math.Inf(-1)},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("model %d should be invalid", i)
		}
	}
	// T2 = +Inf means no dephasing: legal, and it prices to a finite zero.
	m := Default()
	m.T2Micros = math.Inf(1)
	if err := m.Validate(); err != nil {
		t.Errorf("T2 = +Inf should be valid: %v", err)
	}
	if err := (Model{OneQubitError: -0.1, T2Micros: 1}).Validate(); err == nil ||
		err.Error() != "fidelity: one-qubit error must be in [0,1), got -0.1" {
		t.Errorf("finite out-of-range rate: error = %v, want the unchanged diagnostic", err)
	}
}

func TestEstimateHandComputed(t *testing.T) {
	// One intra-chain CX and one weak CX on a 2x2 device.
	l := layout(t, 4, 2)
	c := circuit.New("t", 4)
	c.CX(0, 1) // same chain
	c.CX(1, 2) // cross chain
	m := Model{OneQubitError: 0, TwoQubitError: 0.01, WeakLinkError: 0.1, T2Micros: 1e12}
	est, err := m.Estimate(c, l, perf.DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	wantGate := (1 - 0.01) * (1 - 0.1)
	if math.Abs(est.GateFidelity-wantGate) > 1e-12 {
		t.Fatalf("gate fidelity = %v, want %v", est.GateFidelity, wantGate)
	}
	if math.Abs(est.ExpectedErrors-0.11) > 1e-12 {
		t.Fatalf("expected errors = %v, want 0.11", est.ExpectedErrors)
	}
	// With huge T2 coherence fidelity ≈ 1 and total ≈ gate fidelity.
	if math.Abs(est.CoherenceFidelity-1) > 1e-6 {
		t.Fatalf("coherence = %v, want ≈ 1", est.CoherenceFidelity)
	}
	// Weak share: ln(0.9)/(ln(0.99)+ln(0.9)).
	wantShare := math.Log(0.9) / (math.Log(0.99) + math.Log(0.9))
	if math.Abs(est.WeakGateErrorShare-wantShare) > 1e-12 {
		t.Fatalf("weak share = %v, want %v", est.WeakGateErrorShare, wantShare)
	}
}

func TestCoherenceUsesMakespan(t *testing.T) {
	l := layout(t, 2, 2)
	c := circuit.New("t", 2)
	for i := 0; i < 10; i++ {
		c.CX(0, 1) // all intra-chain? qubits 0,1: sequential on 2x1... chainLen=2 → one chain? DeviceFor(2,2)=1 chain.
	}
	m := Default()
	est, err := m.Estimate(c, l, perf.DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	if est.MakespanMicros != 1000 {
		t.Fatalf("makespan = %v, want 1000", est.MakespanMicros)
	}
	wantCoh := math.Exp(-2 * 1000 / m.T2Micros)
	if math.Abs(est.CoherenceFidelity-wantCoh) > 1e-12 {
		t.Fatalf("coherence = %v, want %v", est.CoherenceFidelity, wantCoh)
	}
}

func TestWeakLinkPressureDegradesFidelity(t *testing.T) {
	// The same abstract workload on longer chains (fewer weak gates) must
	// have higher fidelity — the timing/fidelity coupling.
	spec := circuit.Spec{Name: "w", Qubits: 64, TwoQubitGates: 200}
	m := Default()
	lat := perf.DefaultLatencies()
	fidelityAt := func(chainLen int) float64 {
		d, err := ti.DeviceFor(64, chainLen, ti.Ring)
		if err != nil {
			t.Fatal(err)
		}
		r := stats.NewRand(3)
		l, err := placement.Random{}.Place(d, 64, r)
		if err != nil {
			t.Fatal(err)
		}
		c, err := schedule.Random{}.Place(spec, l, r)
		if err != nil {
			t.Fatal(err)
		}
		est, err := m.Estimate(c, l, lat)
		if err != nil {
			t.Fatal(err)
		}
		return est.LogTotal
	}
	if fidelityAt(32) <= fidelityAt(8) {
		t.Fatalf("longer chains should improve fidelity: L=32 %v vs L=8 %v", fidelityAt(32), fidelityAt(8))
	}
}

func TestLogTotalSurvivesUnderflow(t *testing.T) {
	// 20,000 weak gates at 6% error: the total underflows float64 but
	// LogTotal stays finite and exact.
	l := layout(t, 64, 16)
	c := circuit.New("big", 64)
	for i := 0; i < 20000; i++ {
		c.CX(15, 16) // cross-chain pair under sequential placement
	}
	m := Default()
	est, err := m.Estimate(c, l, perf.DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	if est.Total != 0 {
		t.Fatalf("total should underflow to 0, got %v", est.Total)
	}
	// Gate term plus dephasing: 64 qubits over 20000 serialized weak
	// gates of 200 µs each with T2 = 1 s.
	wantLog := 20000*math.Log1p(-0.06) - 64*(20000*200)/1e6
	if math.Abs(est.LogTotal-wantLog) > 1 {
		t.Fatalf("log total = %v, want ≈ %v", est.LogTotal, wantLog)
	}
	if math.Abs(est.WeakGateErrorShare-1) > 1e-9 {
		t.Fatalf("all error should be weak-link: share = %v", est.WeakGateErrorShare)
	}
}

func TestEstimateValidation(t *testing.T) {
	l := layout(t, 4, 2)
	c := circuit.New("t", 4)
	if _, err := (Model{T2Micros: -1}).Estimate(c, l, perf.DefaultLatencies()); err == nil {
		t.Errorf("bad model should fail")
	}
	if _, err := Default().Estimate(c, l, perf.Latencies{}); err == nil {
		t.Errorf("bad latencies should fail")
	}
	wide := circuit.New("wide", 100)
	if _, err := Default().Estimate(wide, l, perf.DefaultLatencies()); err == nil {
		t.Errorf("width mismatch should fail")
	}
}

func TestEmptyCircuitPerfectGateFidelity(t *testing.T) {
	l := layout(t, 2, 2)
	c := circuit.New("empty", 2)
	est, err := Default().Estimate(c, l, perf.DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	if est.GateFidelity != 1 || est.Total != 1 || est.WeakGateErrorShare != 0 {
		t.Fatalf("empty estimate = %+v", est)
	}
}

func TestEstimateString(t *testing.T) {
	l := layout(t, 4, 2)
	c := circuit.New("t", 4)
	c.CX(0, 1)
	est, _ := Default().Estimate(c, l, perf.DefaultLatencies())
	s := est.String()
	if !strings.Contains(s, "fidelity") || !strings.Contains(s, "expected errors") {
		t.Fatalf("string = %q", s)
	}
}

// Monte-Carlo sampling must agree with the analytic estimate to binomial
// tolerance.
func TestSampleAgreesWithEstimate(t *testing.T) {
	l := layout(t, 16, 8)
	c := circuit.New("mc", 16)
	r := stats.NewRand(4)
	for i := 0; i < 60; i++ {
		a, b := r.Intn(16), r.Intn(16)
		for b == a {
			b = r.Intn(16)
		}
		c.CX(a, b)
	}
	// Milder error rates so the success probability is mid-range and the
	// binomial check is informative.
	m := Model{OneQubitError: 1e-4, TwoQubitError: 2e-3, WeakLinkError: 0.01, T2Micros: 1e6}
	lat := perf.DefaultLatencies()
	est, err := m.Estimate(c, l, lat)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 20000
	rate, err := m.SuccessRate(c, l, lat, trials, stats.NewRand(99))
	if err != nil {
		t.Fatal(err)
	}
	// 5-sigma binomial band.
	sigma := math.Sqrt(est.Total * (1 - est.Total) / trials)
	if math.Abs(rate-est.Total) > 5*sigma+1e-3 {
		t.Fatalf("MC rate %v vs analytic %v (σ=%v)", rate, est.Total, sigma)
	}
}

func TestSuccessRateValidation(t *testing.T) {
	l := layout(t, 4, 2)
	c := circuit.New("t", 4)
	if _, err := Default().SuccessRate(c, l, perf.DefaultLatencies(), 0, stats.NewRand(1)); err == nil {
		t.Fatalf("zero trials should fail")
	}
	if _, err := (Model{T2Micros: -1}).SuccessRate(c, l, perf.DefaultLatencies(), 5, stats.NewRand(1)); err == nil {
		t.Fatalf("bad model should fail")
	}
}
