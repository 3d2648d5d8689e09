package fidelity

// This file adds the batched counterpart of Model.EstimateBinding for
// latency sweeps. A binding's gate-error terms are latency-independent —
// only the dephasing window (the parallel-model makespan) changes with the
// timing model — so pricing an α axis needs the log-space gate sums once
// and one batched makespan kernel, not len(lats) full passes. The window
// is the binding's own makespan, so it comes from whichever timing backend
// prepared the binding: the weak-link parallel model, or the shuttle
// backend's transport model.
//
// Bit-exactness contract: the per-class ε and log1p(−ε) values are
// tabulated once from the same expressions EstimateBinding evaluates per
// gate, and gateTerms accumulates them in the same gate order, so
// EstimateAll(b, lats)[j] equals EstimateBinding(b, lats[j]) field for
// field, float bits included. The fidelity property tests pin this.

import (
	"fmt"
	"math"

	"velociti/internal/perf"
)

// Estimator is a reusable, preprocessed form of a Model: the per-class
// error rates and their log-space contributions are tabulated once, and the
// estimator owns scratch buffers so batched estimation is allocation-free
// in steady state. An Estimator is NOT safe for concurrent use — give each
// worker its own.
type Estimator struct {
	m   Model
	eps [perf.NumGateClasses]float64 // per-class expected-error contribution
	lg  [perf.NumGateClasses]float64 // per-class log1p(−ε) contribution

	times []float64
	ests  []Estimate
}

// NewEstimator validates m and tabulates its per-class terms.
func NewEstimator(m Model) (*Estimator, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	e := &Estimator{m: m}
	e.eps[perf.ClassOneQ] = m.OneQubitError
	e.eps[perf.ClassTwoQIntra] = m.TwoQubitError
	e.eps[perf.ClassTwoQWeak] = m.WeakLinkError
	for c, v := range e.eps {
		e.lg[c] = math.Log1p(-v)
	}
	return e, nil
}

// Model returns the model the estimator was built from.
func (e *Estimator) Model() Model { return e.m }

// gateTerms accumulates the latency-independent log-space sums in gate
// order — the same order and operations as Model.EstimateBinding, so every
// sum is bit-identical.
func (e *Estimator) gateTerms(b *perf.Binding) (logGate, logWeak, expected float64) {
	for _, c := range b.Classes() {
		expected += e.eps[c]
		lg := e.lg[c]
		logGate += lg
		if c == perf.ClassTwoQWeak {
			logWeak += lg
		}
	}
	return logGate, logWeak, expected
}

// EstimateAll prices the binding's fidelity under every timing model in
// lats: the gate-error sums are computed once and the dephasing windows
// come from the binding's batched parallel-time kernel
// (Binding.ParallelTimeAll, under the backend that prepared it). Entry j
// is bit-identical to Model.EstimateBinding(b, lats[j]). The returned
// slice is owned by the estimator and valid until its next call.
func (e *Estimator) EstimateAll(b *perf.Binding, lats []perf.Latencies) ([]Estimate, error) {
	if len(lats) == 0 {
		return nil, fmt.Errorf("fidelity: EstimateAll requires at least one timing model")
	}
	for _, lat := range lats {
		if err := lat.Validate(); err != nil {
			return nil, err
		}
	}
	e.times = b.ParallelTimeAll(lats, e.times)
	logGate, logWeak, expected := e.gateTerms(b)
	gateFid := math.Exp(logGate)
	var weakShare float64
	if logGate != 0 {
		weakShare = logWeak / logGate
	}
	if cap(e.ests) < len(lats) {
		e.ests = make([]Estimate, len(lats))
	}
	e.ests = e.ests[:len(lats)]
	nq := float64(b.NumQubits())
	for j, makespan := range e.times {
		// Every qubit dephases for the full window; busy time is not
		// protected, which errs conservative.
		logCoherence := -nq * makespan / e.m.T2Micros
		est := Estimate{
			GateFidelity:       gateFid,
			CoherenceFidelity:  math.Exp(logCoherence),
			LogTotal:           logGate + logCoherence,
			WeakGateErrorShare: weakShare,
			ExpectedErrors:     expected,
			MakespanMicros:     makespan,
		}
		est.Total = math.Exp(est.LogTotal)
		e.ests[j] = est
	}
	return e.ests, nil
}
