package shuttle

// This file adapts Params into the core.Stages timing-backend seam
// (perf.TimingBackend). The heavy lifting — per-gate transport paths,
// junction contention, the multi-lane pricing — lives in internal/perf
// (Binding.AttachTransport / TimeTransportAll) so that transport is priced
// by the same fold as the weak-link model; this file only
// carries the parameters across the boundary and names the backend for
// flags, request schemas, and cache keys.

import (
	"strconv"

	"velociti/internal/circuit"
	"velociti/internal/perf"
	"velociti/internal/ti"
	"velociti/internal/verr"
)

// Backend prices cross-chain 2-qubit gates as explicit ion transport:
// split + per-hop move + merge + recool, serialized through shared
// weak-link segments, followed by the gate at the LOCAL γ (the weak
// penalty α never applies — transport replaces it). It implements
// perf.TimingBackend; select it by name via ByName or the CLIs'
// -backend shuttle.
type Backend struct {
	Params Params
}

// Name returns "shuttle".
func (Backend) Name() string { return "shuttle" }

// CacheKey fingerprints the backend name and every transport cost, so
// bindings prepared under different shuttle pricings (or under the
// weak-link backend) never collide in a shared artifact cache.
func (b Backend) CacheKey() string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return "shuttle|split=" + f(b.Params.SplitMicros) +
		"|move=" + f(b.Params.MovePerHopMicros) +
		"|merge=" + f(b.Params.MergeMicros) +
		"|recool=" + f(b.Params.RecoolMicros)
}

// Validate rejects unusable transport costs with a typed input error.
func (b Backend) Validate() error { return b.Params.Validate() }

// Prepare attaches the per-gate transport plan to the binding
// (perf.Binding.AttachTransport): deterministic shortest weak-link paths
// per operand chain pair, with disconnected pairs surfaced as typed
// input errors at bind time rather than priced with a fabricated cost.
func (Backend) Prepare(bd *perf.Binding, l *ti.Layout) error { return bd.AttachTransport(l) }

// Time prices the binding under one timing model.
func (b Backend) Time(bd *perf.Binding, lat perf.Latencies) (perf.Result, error) {
	return bd.TimeTransport(b.costs(), lat)
}

// TimeAll prices the binding under every timing model in one pass; entry
// j equals Time(lats[j]) bit for bit.
func (b Backend) TimeAll(bd *perf.Binding, lats []perf.Latencies) ([]perf.Result, error) {
	return bd.TimeTransportAll(b.costs(), lats)
}

// DeltaWeights implements perf.DeltaWeigher, enabling incremental
// (delta) evaluation for search-based placement. The delta objective is
// the CONTENTION-FREE transport cost: a cross-chain gate prices as
// split + hops·move + merge + recool + the local γ (α never applies —
// transport replaces it), which is Time's cost when no two transports
// queue on a shared segment. Junction contention is sequence-dependent
// and cannot be carried by a static per-gate latency, so the annealer
// searches on this surrogate; reported results are always re-priced by
// Time.
func (b Backend) DeltaWeights(lat perf.Latencies) ([perf.NumGateClasses]float64, float64, error) {
	if err := lat.Validate(); err != nil {
		return [perf.NumGateClasses]float64{}, 0, err
	}
	if err := b.Params.Validate(); err != nil {
		return [perf.NumGateClasses]float64{}, 0, err
	}
	var base [perf.NumGateClasses]float64
	base[perf.ClassOneQ] = lat.OneQubit
	base[perf.ClassTwoQIntra] = lat.TwoQubit
	base[perf.ClassTwoQWeak] = lat.TwoQubit + b.Params.SplitMicros + b.Params.MergeMicros + b.Params.RecoolMicros
	return base, b.Params.MovePerHopMicros, nil
}

func (b Backend) costs() perf.TransportCosts {
	return perf.TransportCosts{
		SplitMicros:      b.Params.SplitMicros,
		MovePerHopMicros: b.Params.MovePerHopMicros,
		MergeMicros:      b.Params.MergeMicros,
		RecoolMicros:     b.Params.RecoolMicros,
	}
}

// StreamTimeAll prices a gate stream directly (perf.SourceTimer): the
// transport busy-until recurrence over the per-qubit frontier, in memory
// independent of gate count.
func (b Backend) StreamTimeAll(src circuit.Source, l *ti.Layout, lats []perf.Latencies) ([]perf.Result, perf.StreamStats, error) {
	return perf.StreamTransportAll(src, l, b.costs(), lats)
}

var (
	_ perf.TimingBackend = Backend{}
	_ perf.SourceTimer   = Backend{}
)

// ByName resolves a timing backend from its selector name, the single
// lowering point for the -backend flags, config.Params.Backend, and the
// serve request schemas. The empty name selects the default weak-link
// model; "shuttle" selects a transport backend priced by p (validated
// here, at the input boundary). Unknown names are typed input errors.
func ByName(name string, p Params) (perf.TimingBackend, error) {
	switch name {
	case "", perf.WeakLink{}.Name():
		return perf.WeakLink{}, nil
	case Backend{}.Name():
		if err := p.Validate(); err != nil {
			return nil, err
		}
		return Backend{Params: p}, nil
	default:
		return nil, verr.Inputf("shuttle: unknown timing backend %q (want %q or %q)",
			name, perf.WeakLink{}.Name(), Backend{}.Name())
	}
}
