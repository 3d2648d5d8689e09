package perf

// This file names the seam between gate binding and gate pricing as an
// interface. core.Stages binds a circuit to a layout once (Bind) and runs
// the TimingBackend's Prepare on the binding before publishing it; the
// binding then prices itself under that backend's model (Binding.Time,
// TimeAll, ParallelTime, ParallelTimeAll), so Prepare is the one place a
// pricing model is chosen. Everything upstream of the seam — synthesis,
// placement, classification — is shared between backends. The weak-link
// parallel model (WeakLink, the paper's Eq. 1–2 + ASAP DP) is the default
// and the oracle, and its Prepare attaches nothing; internal/shuttle's
// Prepare attaches a transport plan and its costs. Every backend also
// prices a gate stream without a Binding (SourceTimer, for core's
// streaming path) and states its per-gate latency rule for layout search
// (DeltaWeights, for DeltaEval); no capability is optional.

import (
	"velociti/internal/circuit"
	"velociti/internal/ti"
)

// TimingBackend prepares bound circuits for pricing under its model,
// prices gate streams under the same model, and supplies the per-gate
// weights that layout search folds.
// Implementations must be immutable values: the backend participates in
// cache keys (CacheKey) and in the serve layer's request coalescing, so
// two backends with equal keys must prepare identically.
type TimingBackend interface {
	// Name is the backend's selector name as it appears in flags and
	// request schemas ("weaklink", "shuttle").
	Name() string
	// CacheKey fingerprints the backend and every pricing parameter it
	// carries. Stage-pipeline bind keys embed it so bindings prepared for
	// different backends never collide in a shared artifact cache.
	CacheKey() string
	// Validate rejects unusable pricing parameters with a typed input
	// error (verr).
	Validate() error
	// Prepare attaches whatever layout-dependent, latency-independent
	// annotations select and parameterize the backend's model on b — e.g.
	// the shuttle backend's per-gate transport paths and costs — so that
	// b's own pricing methods price under this backend. It runs at Bind
	// time, before the binding is published to caches or shared across
	// goroutines, and must be idempotent. The weak-link backend needs
	// nothing.
	Prepare(b *Binding, l *ti.Layout) error
	// SourceTimer prices a gate stream under the backend's model.
	SourceTimer
	// DeltaWeights returns the per-class base latencies (indexed by
	// GateClass) and the per-hop surcharge on ClassTwoQWeak gates under
	// lat: the per-gate latency rule that incremental re-pricing for
	// layout search (DeltaEval) folds. A backend whose cross-chain cost
	// does not depend on hops returns perHop = 0.
	DeltaWeights(lat Latencies) (base [NumGateClasses]float64, perHop float64, err error)
}

// SourceTimer prices a gate stream directly, without a materialized
// circuit or Binding, in memory independent of gate count. Entry j of the
// result must equal Binding.TimeAll's entry j on the materialized
// circuit, bound and prepared by the same backend, bit for bit, except
// that CriticalPath is omitted (see internal/perf/stream.go).
type SourceTimer interface {
	StreamTimeAll(src circuit.Source, l *ti.Layout, lats []Latencies) ([]Result, StreamStats, error)
}

// WeakLink is the paper's timing model as a backend: cross-chain gates
// cost α·γ on a weak link, and the parallel model is the ASAP finish-time
// dynamic program. It is the zero value of backend selection — a nil
// backend in core.Config normalizes to WeakLink{}.
type WeakLink struct{}

// Name returns "weaklink".
func (WeakLink) Name() string { return "weaklink" }

// CacheKey returns "weaklink"; the backend carries no parameters beyond
// the Latencies every backend receives per call.
func (WeakLink) CacheKey() string { return "weaklink" }

// Validate always succeeds.
func (WeakLink) Validate() error { return nil }

// Prepare is a no-op: a binding without a transport plan prices straight
// off the gate classes, which is the weak-link model.
func (WeakLink) Prepare(*Binding, *ti.Layout) error { return nil }

// StreamTimeAll prices a gate stream directly via the fold's stream
// driver in stream.go.
func (WeakLink) StreamTimeAll(src circuit.Source, l *ti.Layout, lats []Latencies) ([]Result, StreamStats, error) {
	return StreamTimeAll(src, l, lats)
}

// DeltaWeights prices classes at δ / γ / α·γ with no hop dependence, so
// the delta objective equals ParallelTime exactly.
func (WeakLink) DeltaWeights(lat Latencies) ([NumGateClasses]float64, float64, error) {
	if err := lat.Validate(); err != nil {
		return [NumGateClasses]float64{}, 0, err
	}
	return classLatencies(lat), 0, nil
}

var _ TimingBackend = WeakLink{}
