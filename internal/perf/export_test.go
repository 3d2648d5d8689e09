package perf

import "velociti/internal/circuit"

// ParallelTimeFunc evaluates the parallel model under an arbitrary
// per-gate latency function: the reference walk that the delta
// evaluator's shuttle surrogate is checked against (delta_test.go).
func ParallelTimeFunc(c *circuit.Circuit, latencyOf func(circuit.Gate) float64) float64 {
	return walk(c, latencyOf).makespan
}
