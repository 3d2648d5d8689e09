// Package fidelity estimates the success probability of a placed circuit —
// an extension pairing VelociTI's timing models with the reliability
// dimension its companion literature (Murali et al., ISCA'20, the paper's
// reference [48]) identifies as the other axis of QCCD design.
//
// The model is the standard aggregate estimate: each gate succeeds
// independently with probability (1 − ε) for its class, and each qubit
// additionally dephases over the circuit's wall-clock duration with
// characteristic time T2, contributing exp(−t_idle/T2). Weak-link gates
// carry a much larger ε than intra-chain gates (the photonic interconnect
// fidelities of Stephenson et al., the paper's reference [57], are ≈ 94%
// against ≥ 99.9% for local gates), so the same weak-link pressure that
// slows a mapping also degrades it — the estimate makes that coupling
// quantitative.
//
// All probabilities are accumulated in log space so wide circuits do not
// underflow.
package fidelity

import (
	"fmt"
	"math"

	"velociti/internal/circuit"
	"velociti/internal/perf"
	"velociti/internal/ti"
)

// Model holds per-class error rates and the coherence time.
type Model struct {
	// OneQubitError is ε for 1-qubit gates (default 1e-4, Ballance et
	// al.-class single-qubit fidelities).
	OneQubitError float64 `json:"one_qubit_error"`
	// TwoQubitError is ε for intra-chain 2-qubit gates (default 1e-3).
	TwoQubitError float64 `json:"two_qubit_error"`
	// WeakLinkError is ε for cross-chain 2-qubit gates (default 0.06,
	// the ≈94% entanglement fidelity of photonic links).
	WeakLinkError float64 `json:"weak_link_error"`
	// T2Micros is the dephasing time in µs (default 1e6 µs = 1 s; the
	// paper cites hour-scale demonstrations, but 1 s is a conservative
	// operating figure).
	T2Micros float64 `json:"t2_us"`
}

// Default returns literature-typical trapped-ion error rates.
func Default() Model {
	return Model{
		OneQubitError: 1e-4,
		TwoQubitError: 1e-3,
		WeakLinkError: 0.06,
		T2Micros:      1e6,
	}
}

// Validate reports an error for non-physical rates. NaN fails every range
// check; T2 = +Inf is legal and means no dephasing.
func (m Model) Validate() error {
	for _, e := range []struct {
		name string
		v    float64
	}{
		{"one-qubit error", m.OneQubitError},
		{"two-qubit error", m.TwoQubitError},
		{"weak-link error", m.WeakLinkError},
	} {
		if !(e.v >= 0) || e.v >= 1 {
			return fmt.Errorf("fidelity: %s must be in [0,1), got %g", e.name, e.v)
		}
	}
	if !(m.T2Micros > 0) {
		return fmt.Errorf("fidelity: T2 must be positive, got %g", m.T2Micros)
	}
	return nil
}

// Estimate is the fidelity breakdown of one placed circuit.
type Estimate struct {
	// GateFidelity is the product of per-gate success probabilities.
	GateFidelity float64 `json:"gate_fidelity"`
	// CoherenceFidelity is the dephasing survival over the circuit's
	// parallel execution time, across all qubits.
	CoherenceFidelity float64 `json:"coherence_fidelity"`
	// Total is the overall success probability estimate.
	Total float64 `json:"total"`
	// LogTotal is ln(Total), exact even when Total underflows to zero.
	LogTotal float64 `json:"log_total"`
	// WeakGateErrorShare is the fraction of the gate-error budget (in
	// log space) attributable to weak-link gates — how much of the
	// unreliability the interconnect causes.
	WeakGateErrorShare float64 `json:"weak_gate_error_share"`
	// ExpectedErrors is the mean number of gate errors (Σ ε).
	ExpectedErrors float64 `json:"expected_errors"`
	// MakespanMicros is the parallel execution time used for dephasing.
	MakespanMicros float64 `json:"makespan_us"`
}

// Estimate computes the success-probability breakdown of circuit c placed
// by layout l, with execution time taken from the parallel performance
// model under lat.
func (m Model) Estimate(c *circuit.Circuit, l *ti.Layout, lat perf.Latencies) (Estimate, error) {
	if err := m.Validate(); err != nil {
		return Estimate{}, err
	}
	if err := lat.Validate(); err != nil {
		return Estimate{}, err
	}
	if c.NumQubits() > l.NumQubits() {
		return Estimate{}, fmt.Errorf("fidelity: circuit has %d qubits but layout places only %d", c.NumQubits(), l.NumQubits())
	}
	b, err := perf.NewEvaluator(c).Bind(l)
	if err != nil {
		return Estimate{}, err
	}
	return m.estimateBindingMakespan(b, b.ParallelTime(lat)), nil
}

// EstimateBinding computes the same success-probability breakdown from a
// stage-pipeline binding: the per-gate latency classes encode exactly the
// 1q / intra-chain / weak-link distinction the error model prices, so it
// equals Estimate on the (circuit, layout) pair the binding was built
// from — Estimate is Bind followed by this. The dephasing window is the
// binding's own makespan (Binding.ParallelTime), so a binding prepared by
// the shuttle backend dephases over its transport-model makespan. Sweep
// engines reuse one binding across latency models; only the
// makespan-dependent dephasing term is re-priced per model.
func (m Model) EstimateBinding(b *perf.Binding, lat perf.Latencies) (Estimate, error) {
	if err := m.Validate(); err != nil {
		return Estimate{}, err
	}
	if err := lat.Validate(); err != nil {
		return Estimate{}, err
	}
	return m.estimateBindingMakespan(b, b.ParallelTime(lat)), nil
}

func (m Model) estimateBindingMakespan(b *perf.Binding, makespan float64) Estimate {
	var logGate, logWeak, expected float64
	for i := 0; i < b.NumGates(); i++ {
		var eps float64
		weak := false
		switch b.Class(i) {
		case perf.ClassOneQ:
			eps = m.OneQubitError
		case perf.ClassTwoQIntra:
			eps = m.TwoQubitError
		default:
			eps = m.WeakLinkError
			weak = true
		}
		expected += eps
		lg := math.Log1p(-eps)
		logGate += lg
		if weak {
			logWeak += lg
		}
	}
	// Every qubit dephases for the full window; busy time is not
	// protected, which errs conservative.
	logCoherence := -float64(b.NumQubits()) * makespan / m.T2Micros
	est := Estimate{
		GateFidelity:      math.Exp(logGate),
		CoherenceFidelity: math.Exp(logCoherence),
		LogTotal:          logGate + logCoherence,
		ExpectedErrors:    expected,
		MakespanMicros:    makespan,
	}
	est.Total = math.Exp(est.LogTotal)
	if logGate != 0 {
		est.WeakGateErrorShare = logWeak / logGate
	}
	return est
}

// String renders the estimate compactly.
func (e Estimate) String() string {
	return fmt.Sprintf("fidelity %.3g (gates %.3g, coherence %.3g; %.1f expected errors, %.0f%% from weak links)",
		e.Total, e.GateFidelity, e.CoherenceFidelity, e.ExpectedErrors, e.WeakGateErrorShare*100)
}
