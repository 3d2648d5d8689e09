package fidelity

// This file holds the Monte-Carlo oracle of Estimate: executions drawn
// gate by gate, whose success fraction the tests check against the
// analytic estimate to binomial tolerance.

import (
	"fmt"
	"math/rand"

	"velociti/internal/circuit"
	"velociti/internal/perf"
	"velociti/internal/ti"
)

// Sample performs one Monte-Carlo execution of the placed circuit: each
// gate independently fails with its class's ε, and dephasing kills the run
// with probability 1 − exp(−n·makespan/T2). It reports whether the run
// succeeded.
func (m Model) Sample(c *circuit.Circuit, l *ti.Layout, lat perf.Latencies, r *rand.Rand) (bool, error) {
	est, err := m.Estimate(c, l, lat)
	if err != nil {
		return false, err
	}
	for _, g := range c.Gates() {
		var eps float64
		switch {
		case !g.IsTwoQubit():
			eps = m.OneQubitError
		case l.SameChain(g.Qubits[0], g.Qubits[1]):
			eps = m.TwoQubitError
		default:
			eps = m.WeakLinkError
		}
		if r.Float64() < eps {
			return false, nil
		}
	}
	return r.Float64() < est.CoherenceFidelity, nil
}

// SuccessRate runs `trials` Monte-Carlo executions and returns the
// observed success fraction.
func (m Model) SuccessRate(c *circuit.Circuit, l *ti.Layout, lat perf.Latencies, trials int, r *rand.Rand) (float64, error) {
	if trials <= 0 {
		return 0, fmt.Errorf("fidelity: trials must be positive, got %d", trials)
	}
	successes := 0
	for i := 0; i < trials; i++ {
		ok, err := m.Sample(c, l, lat, r)
		if err != nil {
			return 0, err
		}
		if ok {
			successes++
		}
	}
	return float64(successes) / float64(trials), nil
}
