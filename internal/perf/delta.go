package perf

// This file exposes the incremental-rebind side of the delta-evaluation
// stack: a DeltaEval wraps one circuit's Evaluator plus one mutable
// qubit-to-chain assignment, and prices qubit swaps by updating only the
// CSR edge weights touching the swapped qubits' gates, then refreshing the
// affected cone through dag.Delta. A simulated-annealing placer evaluates
// thousands of candidate layouts per trial; each candidate differs from
// the previous by one swap, so the delta path does O(gates-per-qubit) work
// where a full evaluation walks the whole DAG.
//
// The objective DeltaEval maintains is the dependency DAG's longest path
// under a per-gate latency of the form
//
//	latency(g) = base[class(g)] + hops(g)·perHop
//
// which a timing backend supplies through the optional DeltaWeigher
// capability. For the weak-link backend this is exactly the paper's model
// (perHop = 0, weak gates at α·γ — Evaluator.LongestPath bit for bit). For
// the shuttle backend it is the contention-free transport cost (split +
// per-hop move + merge + recool + local γ): junction contention is a
// sequence-dependent quantity no static edge weight can carry, so the
// delta objective is a search surrogate there — final reported results are
// always re-priced by the full backend at the Bind/Time seam.

import (
	"fmt"

	"velociti/internal/dag"
	"velociti/internal/ti"
	"velociti/internal/verr"
)

// DeltaWeigher is the optional TimingBackend capability behind incremental
// re-binding: a backend that can express its per-gate latency as a pure
// function of gate class and chain-hop count supports delta evaluation.
type DeltaWeigher interface {
	// DeltaWeights returns the per-class base latencies (indexed by
	// GateClass) and the per-hop surcharge applied to ClassTwoQWeak gates
	// under lat. Backends whose cross-chain cost is hop-independent return
	// perHop = 0.
	DeltaWeights(lat Latencies) (base [NumGateClasses]float64, perHop float64, err error)
}

// DeltaWeights implements DeltaWeigher: the paper's model prices classes at
// δ / γ / α·γ with no hop dependence, so the delta objective equals
// Evaluator.LongestPath exactly.
func (WeakLink) DeltaWeights(lat Latencies) ([NumGateClasses]float64, float64, error) {
	if err := lat.Validate(); err != nil {
		return [NumGateClasses]float64{}, 0, err
	}
	return classLatencies(lat), 0, nil
}

// DeltaEval incrementally prices qubit swaps against one circuit. It is
// stateful (it owns a mutable qubit-to-chain assignment seeded from the
// initial layout) and not safe for concurrent use. Construct one per
// search, mutate it through Swap, read the objective through Cost, and
// materialize the final assignment through Layout.
type DeltaEval struct {
	ev  *Evaluator
	lat Latencies

	classBase [NumGateClasses]float64
	perHop    float64

	device    *ti.Device
	nc        int
	chainDist []int32 // nc×nc chain-hop matrix; -1 = disconnected
	chainOf   []int32 // per layout qubit, mutated by Swap

	// incHeads/incGates is the per-qubit incidence CSR over 2-qubit gates
	// (1-qubit latencies never depend on the layout). Sized over layout
	// qubits: swaps may move idle qubits too.
	incHeads []int32
	incGates []int32

	latency []float64 // current per-gate latency
	latSum  float64   // running Σ latency, updated per repriced gate
	edgeSrc []int32   // source gate of each CSR edge
	delta   *dag.Delta

	touched []int32   // scratch: gates whose latency changed in one Swap
	prevLat []float64 // scratch: their pre-swap latencies, for rollback
	changed []int32   // scratch: edge indices changed in one Swap
	seen    []int32   // per-gate epoch marks deduping touched
	epoch   int32

	fullScratch dag.Scratch // FullCost working memory
	fullLatency []float64
	fullWeights []float64
}

// NewDeltaEval builds the incremental evaluator for ev's circuit starting
// from layout l, pricing gates with backend's DeltaWeights under lat. It
// errors when the backend does not support delta evaluation, when lat is
// invalid, or when a cross-chain gate spans disconnected chains.
func NewDeltaEval(ev *Evaluator, l *ti.Layout, backend TimingBackend, lat Latencies) (*DeltaEval, error) {
	dw, ok := backend.(DeltaWeigher)
	if !ok {
		return nil, verr.Inputf("perf: timing backend %q does not support delta evaluation", backend.Name())
	}
	base, perHop, err := dw.DeltaWeights(lat)
	if err != nil {
		return nil, err
	}
	if ev.c.NumQubits() > l.NumQubits() {
		return nil, fmt.Errorf("perf: circuit has %d qubits but layout places only %d", ev.c.NumQubits(), l.NumQubits())
	}
	ev.ensureCSR()
	d := &DeltaEval{
		ev:        ev,
		lat:       lat,
		classBase: base,
		perHop:    perHop,
		device:    l.Device(),
	}
	d.nc = d.device.NumChains()
	d.chainDist = d.device.ChainDistances()
	nq := l.NumQubits()
	d.chainOf = make([]int32, nq)
	for q := 0; q < nq; q++ {
		d.chainOf[q] = int32(l.ChainOf(q))
	}
	// Incidence CSR over 2-qubit gates.
	d.incHeads = make([]int32, nq+1)
	for i := 0; i < ev.n; i++ {
		if ev.twoQ[i] {
			d.incHeads[ev.qa[i]+1]++
			d.incHeads[ev.qb[i]+1]++
		}
	}
	for q := 0; q < nq; q++ {
		d.incHeads[q+1] += d.incHeads[q]
	}
	d.incGates = make([]int32, d.incHeads[nq])
	cursor := make([]int32, nq)
	for i := 0; i < ev.n; i++ {
		if !ev.twoQ[i] {
			continue
		}
		for _, q := range [2]int32{ev.qa[i], ev.qb[i]} {
			d.incGates[d.incHeads[q]+cursor[q]] = int32(i)
			cursor[q]++
		}
	}
	d.edgeSrc = make([]int32, len(ev.targets))
	for u := 0; u < ev.n; u++ {
		for e := ev.heads[u]; e < ev.heads[u+1]; e++ {
			d.edgeSrc[e] = int32(u)
		}
	}
	d.seen = make([]int32, ev.n)
	// Initial full pricing: per-gate latencies, edge weights, then the
	// delta kernel over a copy of the weights (dag.Delta takes ownership).
	d.latency = make([]float64, ev.n)
	if err := d.fillLatencies(d.latency); err != nil {
		return nil, err
	}
	for _, w := range d.latency {
		d.latSum += w
	}
	weights := make([]float64, len(ev.targets))
	ev.fillWeights(weights, d.latency)
	d.delta, err = dag.NewDelta(dag.CSR{Heads: ev.heads, Targets: ev.targets, Weights: weights})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// gateLatency prices gate i under the current chain assignment.
func (d *DeltaEval) gateLatency(i int32) (float64, error) {
	if !d.ev.twoQ[i] {
		return d.classBase[ClassOneQ], nil
	}
	ca, cb := d.chainOf[d.ev.qa[i]], d.chainOf[d.ev.qb[i]]
	if ca == cb {
		return d.classBase[ClassTwoQIntra], nil
	}
	h := d.chainDist[ca*int32(d.nc)+cb]
	if h < 0 {
		return 0, verr.Inputf("perf: gate %d spans disconnected chains %d and %d", i, ca, cb)
	}
	return d.classBase[ClassTwoQWeak] + float64(h)*d.perHop, nil
}

// fillLatencies prices every gate into dst.
func (d *DeltaEval) fillLatencies(dst []float64) error {
	for i := int32(0); i < int32(d.ev.n); i++ {
		w, err := d.gateLatency(i)
		if err != nil {
			return err
		}
		dst[i] = w
	}
	return nil
}

// NumQubits returns the number of placed qubits swaps may act on.
func (d *DeltaEval) NumQubits() int { return len(d.chainOf) }

// ChainOf returns qubit q's current chain.
func (d *DeltaEval) ChainOf(q int) int { return int(d.chainOf[q]) }

// SameChain reports whether qubits a and b currently share a chain.
func (d *DeltaEval) SameChain(a, b int) bool { return d.chainOf[a] == d.chainOf[b] }

// ChainAssignments copies the current qubit-to-chain assignment into dst
// (grown as needed) and returns it.
func (d *DeltaEval) ChainAssignments(dst []int32) []int32 {
	dst = append(dst[:0], d.chainOf...)
	return dst
}

// Swap exchanges the chain assignments of qubits q1 and q2 and updates the
// edge weights of every gate whose latency changed, returning the changed
// edge indices (valid until the next Swap; may be empty when the swap is a
// within-chain no-op). The objective is refreshed lazily: call Cost. Swap
// is its own inverse — Swap(a,b) followed by Swap(a,b) restores the
// assignment exactly.
func (d *DeltaEval) Swap(q1, q2 int) ([]int32, error) {
	n := len(d.chainOf)
	if q1 < 0 || q1 >= n || q2 < 0 || q2 >= n {
		return nil, verr.Inputf("perf: swap qubits (%d, %d) out of range [0, %d)", q1, q2, n)
	}
	if q1 == q2 {
		return nil, verr.Inputf("perf: swap requires distinct qubits, got %d twice", q1)
	}
	d.chainOf[q1], d.chainOf[q2] = d.chainOf[q2], d.chainOf[q1]
	d.changed = d.changed[:0]
	if d.chainOf[q1] == d.chainOf[q2] {
		return d.changed, nil // same chain: no gate class or hop count moved
	}
	// Phase 1: reprice every 2-qubit gate touching either qubit; collect
	// the ones whose latency actually changed. A gate touching both qubits
	// is visited once (epoch marks) and keeps its latency (both operands
	// moved together), so it drops out at the != check.
	d.epoch++
	d.touched = d.touched[:0]
	d.prevLat = d.prevLat[:0]
	sumBefore := d.latSum
	for _, q := range [2]int{q1, q2} {
		if q >= d.ev.c.NumQubits() {
			continue // idle qubit: no gates to reprice
		}
		for _, g := range d.incGates[d.incHeads[q]:d.incHeads[q+1]] {
			if d.seen[g] == d.epoch {
				continue
			}
			d.seen[g] = d.epoch
			w, err := d.gateLatency(g)
			if err != nil {
				// Roll back the assignment and the latencies already
				// repriced this phase so the evaluator stays usable.
				d.chainOf[q1], d.chainOf[q2] = d.chainOf[q2], d.chainOf[q1]
				for k, t := range d.touched {
					d.latency[t] = d.prevLat[k]
				}
				d.latSum = sumBefore
				return nil, err
			}
			if w != d.latency[g] {
				d.touched = append(d.touched, g)
				d.prevLat = append(d.prevLat, d.latency[g])
				d.latSum += w - d.latency[g]
				d.latency[g] = w
			}
		}
	}
	// Phase 2: recompute the weights of every edge incident to a repriced
	// gate — its in-edges carry its latency as the target term, and its
	// out-edges carry it as the start-node source term. Running after all
	// latencies settled means each recomputation reads final values, and
	// an edge between two repriced gates is simply recomputed twice with
	// the second pass finding nothing to change.
	for _, g := range d.touched {
		for _, e := range d.delta.InEdges(g) {
			d.updateEdge(e)
		}
		if d.ev.isStart[g] {
			for e := d.ev.heads[g]; e < d.ev.heads[g+1]; e++ {
				d.updateEdge(e)
			}
		}
	}
	return d.changed, nil
}

// updateEdge recomputes edge e's weight from the current latencies and
// routes a real change through the delta kernel.
func (d *DeltaEval) updateEdge(e int32) {
	w := d.ev.edgeWeight(d.edgeSrc[e], d.ev.targets[e], d.latency)
	if w != d.delta.Weight(e) {
		d.delta.SetWeight(e, w)
		d.changed = append(d.changed, e)
	}
}

// Cost refreshes pending changes and returns the current objective: the
// dependency DAG's longest path under the backend's delta weights. For the
// weak-link backend this equals Evaluator.LongestPath on the materialized
// layout bit for bit.
func (d *DeltaEval) Cost() float64 { return d.delta.Refresh() }

// LatencySum returns the running sum of every gate's current latency — the
// serial-time analogue of Cost, maintained incrementally across Swaps. The
// longest-path objective is a max over many paths and plateaus on regular
// circuits (most single swaps leave every tied critical path untouched);
// the annealer uses this sum as the plateau tie-breaker so zero-ΔCost moves
// still drift toward cheaper layouts. Incremental accumulation can drift
// from the from-scratch sum in the last bits; the same sequence of Swaps
// always yields the same value, which is all a tie-breaker needs.
func (d *DeltaEval) LatencySum() float64 { return d.latSum }

// FullCost prices the current assignment from scratch — fresh latencies,
// fresh edge weights, a full kernel pass — sharing no incremental state
// with Cost beyond the chain assignment itself. It is the bit-exactness
// oracle for Cost and the "place-then-full-evaluate" legacy path the
// annealer benchmarks against.
func (d *DeltaEval) FullCost() (float64, error) {
	ev := d.ev
	if cap(d.fullLatency) < ev.n {
		d.fullLatency = make([]float64, ev.n)
	}
	d.fullLatency = d.fullLatency[:ev.n]
	if err := d.fillLatencies(d.fullLatency); err != nil {
		return 0, err
	}
	if cap(d.fullWeights) < len(ev.targets) {
		d.fullWeights = make([]float64, len(ev.targets))
	}
	d.fullWeights = d.fullWeights[:len(ev.targets)]
	ev.fillWeights(d.fullWeights, d.fullLatency)
	csr := dag.CSR{Heads: ev.heads, Targets: ev.targets, Weights: d.fullWeights}
	return csr.LongestPath(&d.fullScratch), nil
}

// SetConeLimit forwards to the delta kernel's full-recompute fallback
// budget (see dag.Delta.SetConeLimit).
func (d *DeltaEval) SetConeLimit(limit int) { d.delta.SetConeLimit(limit) }

// FullRecomputes reports how many Cost refreshes fell back to a full
// kernel pass.
func (d *DeltaEval) FullRecomputes() int { return d.delta.FullRecomputes() }

// Layout materializes the current chain assignment as a ti.Layout. Within
// each chain, qubits appear in ascending id order; gate classes and hop
// counts depend only on chain membership, so the materialized layout
// prices identically to the assignment DeltaEval scored.
func (d *DeltaEval) Layout() (*ti.Layout, error) {
	chains := make([][]int, d.nc)
	counts := make([]int, d.nc)
	for _, c := range d.chainOf {
		counts[c]++
	}
	for c := 0; c < d.nc; c++ {
		chains[c] = make([]int, 0, counts[c])
	}
	for q, c := range d.chainOf {
		chains[c] = append(chains[c], q)
	}
	return ti.NewLayout(d.device, chains)
}
