package perf

// This file is the pricing kernel of the shuttle timing backend. Where
// the weak-link model charges a cross-chain gate a flat α·γ, the shuttle
// model charges what the QCCD hardware actually does: split the ion out
// of its chain, move it one weak-link segment per hop toward the target
// chain, merge, recool, and only then run the 2-qubit gate at the local
// γ. The per-gate paths are layout-dependent but latency-independent, so
// they are attached to the Binding once, together with the transport
// costs (AttachTransport, the backend's Prepare hook). From then on the
// binding prices itself under transport: Time, TimeAll, ParallelTime and
// ParallelTimeAll price any number of timing models against the attached
// plan in one fold (fold.go).
//
// Contention: two concurrent transports cannot occupy one inter-chain
// segment, so the fold serializes them — each segment tracks a per-lane
// busy-until time, a transport starts no earlier than the latest
// busy-until of the segments it crosses, and it reserves them until its
// merge+recool completes. Reservation is skipped entirely when a gate's
// transport overhead is zero, which is what makes the zero-cost shuttle
// backend bit-identical to the weak-link model at α = 1 (the equivalence
// the property tests pin). The contention-free form of the same model —
// no transport ever waits on a segment — is the shuttle backend's delta
// weights (delta.go), which shuttle.Compare reports directly.

import (
	"velociti/internal/ti"
	"velociti/internal/verr"
)

// TransportCosts prices the shuttle primitives, in microseconds. It is the
// model's one cost type: internal/shuttle names it Params.
type TransportCosts struct {
	// SplitMicros extracts the ion from its chain.
	SplitMicros float64 `json:"split_us"`
	// MergeMicros inserts the ion into the destination chain.
	MergeMicros float64 `json:"merge_us"`
	// MovePerHopMicros transports the ion across one inter-chain segment.
	MovePerHopMicros float64 `json:"move_per_hop_us"`
	// RecoolMicros re-cools the destination chain after the merge;
	// motion heats the chain and gate fidelity requires cooling first.
	RecoolMicros float64 `json:"recool_us"`
}

// Validate reports a typed input error (verr) for negative or NaN costs.
// Config loading, the serve layer and AttachTransport call it at the input
// boundary, so a bad cost in a params file or request body surfaces as an
// "invalid input" diagnostic rather than a computed garbage result.
func (c TransportCosts) Validate() error {
	for _, v := range [...]struct {
		name string
		val  float64
	}{
		{"split", c.SplitMicros},
		{"merge", c.MergeMicros},
		{"move per hop", c.MovePerHopMicros},
		{"recool", c.RecoolMicros},
	} {
		if !(v.val >= 0) {
			return verr.Inputf("shuttle: %s cost must be a non-negative number, got %g", v.name, v.val)
		}
	}
	return nil
}

// CrossChainOverhead returns the transport time added to a 2-qubit gate
// whose operands sit `hops` chains apart: one split, the multi-hop move,
// one merge, and one recool. Zero hops cost nothing.
func (c TransportCosts) CrossChainOverhead(hops int) float64 {
	if hops <= 0 {
		return 0
	}
	return c.SplitMicros + float64(hops)*c.MovePerHopMicros + c.MergeMicros + c.RecoolMicros
}

// BreakEvenAlpha returns the weak-link penalty α at which a single-hop
// cross-chain gate costs the same under both mechanisms:
// α·γ = overhead(1) + γ. Above this α, shuttling wins on adjacent
// chains. The costs and latencies are validated first, so γ ≤ 0 is an
// input error rather than a ±Inf/NaN quotient.
func (c TransportCosts) BreakEvenAlpha(lat Latencies) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if err := lat.Validate(); err != nil {
		return 0, err
	}
	return (c.CrossChainOverhead(1) + lat.TwoQubit) / lat.TwoQubit, nil
}

// transportPlan is the layout-dependent, latency-independent transport
// annotation of one binding: for each gate, the weak-link segments its
// cross-chain transport crosses, as CSR rows over segIDs, and the costs
// every transport is priced at. Local gates have empty rows.
type transportPlan struct {
	segStart []int32 // CSR offsets into segIDs, len = NumGates()+1
	segIDs   []int32 // weak-link IDs along each weak gate's path
	numSegs  int     // device segment count; sizes the busy table
	costs    TransportCosts
}

// AttachTransport validates costs, computes the transport plan for the
// layout the binding was built from and attaches both, so every later
// pricing call prices the binding under transport at these costs. It is
// the shuttle backend's Prepare hook: it must run before the binding is
// published to caches or shared across goroutines, and it is idempotent
// (a second call is a no-op; the first call's costs stay). Each weak
// gate's path is the deterministic shortest weak-link path between its
// operands' chains (ti.Device.PathLinks), looked up once per unordered
// chain pair. A weak gate whose operand chains are disconnected is an
// impossible circuit for this device and surfaces as a typed input error
// — never as a fabricated finite cost.
func (b *Binding) AttachTransport(l *ti.Layout, costs TransportCosts) error {
	if b.transport != nil {
		return nil
	}
	if err := costs.Validate(); err != nil {
		return err
	}
	e := b.ev
	tp := &transportPlan{segStart: make([]int32, e.n+1), numSegs: l.Device().MaxWeakLinks(), costs: costs}
	if b.weak == 0 {
		b.transport = tp
		return nil
	}
	paths := newPathCache(l)
	segIDs := make([]int32, 0, b.weak)
	for i := 0; i < e.n; i++ {
		if b.classes[i] == ClassTwoQWeak {
			p, err := paths.segments(int(e.qa[i]), int(e.qb[i]))
			if err != nil {
				return err
			}
			segIDs = append(segIDs, p...)
		}
		tp.segStart[i+1] = int32(len(segIDs))
	}
	tp.segIDs = segIDs
	b.transport = tp
	return nil
}

// pathCache memoizes the weak-link segments between chain pairs of one
// layout's device.
type pathCache struct {
	d       *ti.Device
	nc      int
	chainOf []int
	paths   [][]int32
}

func newPathCache(l *ti.Layout) *pathCache {
	nc := l.Device().NumChains()
	return &pathCache{d: l.Device(), nc: nc, chainOf: l.ChainAssignments(), paths: make([][]int32, nc*nc)}
}

// segments returns the weak-link IDs a transport between qubits qa and qb
// crosses. Paths are cached per canonical (min, max) chain pair:
// PathLinks' tie-breaking is direction-dependent, so canonicalizing keeps
// the priced path independent of operand order within a gate.
func (pc *pathCache) segments(qa, qb int) ([]int32, error) {
	lo, hi := pc.chainOf[qa], pc.chainOf[qb]
	if lo > hi {
		lo, hi = hi, lo
	}
	if p := pc.paths[lo*pc.nc+hi]; p != nil {
		return p, nil
	}
	links := pc.d.PathLinks(lo, hi)
	if len(links) == 0 {
		return nil, verr.Inputf("perf: qubits q%d and q%d sit on disconnected chains %d and %d; no shuttle path exists",
			qa, qb, pc.chainOf[qa], pc.chainOf[qb])
	}
	p := make([]int32, len(links))
	for k, wl := range links {
		p[k] = int32(wl.ID)
	}
	pc.paths[lo*pc.nc+hi] = p
	return p, nil
}
