package perf

// This file holds incremental repricing for layout search. A DeltaEval
// wraps one circuit's Evaluator plus one mutable qubit-to-chain
// assignment. A simulated-annealing placer prices thousands of candidate
// layouts per trial, each one qubit swap away from the last, so a swap
// reprices only the 2-qubit gates on the swapped qubits and Cost
// recomputes only the finishes downstream of a changed latency.
//
// The objective is the parallel model's recurrence (§IV-C/D), the one
// Evaluate's walk and the fold compute: a gate finishes at the latest
// finish of the previous gates on its qubits plus its own latency, here
//
//	latency(g) = base[class(g)] + hops(g)·perHop
//
// which every timing backend supplies through DeltaWeights. For the
// weak-link backend this is exactly the paper's model (perHop = 0, weak
// gates at α·γ — ParallelTime bit for bit). For the shuttle backend it
// is the contention-free transport cost (split + per-hop move + merge +
// recool + local γ): junction contention is a
// sequence-dependent quantity no static per-gate latency can carry, so
// the delta objective is a search surrogate there, and a trial's reported
// results are re-priced by the prepared binding at the Bind/Time seam. The
// surrogate is also a model in its own right: shuttle.Compare reports a
// fresh DeltaEval's Cost and LatencySum as its contention-free shuttle
// makespan and serial time, so the contention-free transport model is
// written once, here.
//
// Stale gates sit in a bitset and Cost visits them in ascending id, so a
// refresh costs one scan of the marked word range plus the gates it
// touches, never more than a full forward pass; no fallback is needed.

import (
	"fmt"
	"math/bits"

	"velociti/internal/ti"
	"velociti/internal/verr"
)

// DeltaEval incrementally prices qubit swaps against one circuit. It is
// stateful (it owns a mutable qubit-to-chain assignment seeded from the
// initial layout) and not safe for concurrent use. Construct one per
// search, mutate it through Swap, read the objective through Cost, and
// materialize the final assignment through Layout.
type DeltaEval struct {
	ev *Evaluator

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

	// prev[2i+k] and next[2i+k] are the gates before and after gate i on
	// its k-th operand, or -1 (k = 1 is always -1 for a 1-qubit gate).
	// finish[i] is gate i's finish time as of the last Cost; sinks holds
	// the last gate on each qubit, whose finishes bound every other.
	prev, next []int32
	finish     []float64
	sinks      []int32

	// dirty marks the gates whose finish may be stale, one bit per gate;
	// every set bit lies in words [lo, hi).
	dirty  []uint64
	lo, hi int

	touched []int32 // scratch: gates whose latency changed in one Swap
	seen    []int32 // per-gate epoch marks deduping touched
	epoch   int32

	fullLatency, fullFinish []float64 // FullCost working memory
}

// NewDeltaEval builds the incremental evaluator for ev's circuit starting
// from layout l, pricing gates with backend's DeltaWeights under lat. It
// errors when lat or the backend's parameters are invalid, or when a
// cross-chain gate spans disconnected chains.
func NewDeltaEval(ev *Evaluator, l *ti.Layout, backend TimingBackend, lat Latencies) (*DeltaEval, error) {
	base, perHop, err := backend.DeltaWeights(lat)
	if err != nil {
		return nil, err
	}
	if ev.c.NumQubits() > l.NumQubits() {
		return nil, fmt.Errorf("perf: circuit has %d qubits but layout places only %d", ev.c.NumQubits(), l.NumQubits())
	}
	d := &DeltaEval{
		ev:        ev,
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
	// Operand links in one program-order pass: last[q] is the latest gate
	// on qubit q, at operand slot lastK[q].
	d.prev = make([]int32, 2*ev.n)
	d.next = make([]int32, 2*ev.n)
	last := make([]int32, ev.c.NumQubits())
	lastK := make([]int32, len(last))
	for q := range last {
		last[q] = -1
	}
	for i := int32(0); i < int32(ev.n); i++ {
		d.prev[2*i+1], d.next[2*i], d.next[2*i+1] = -1, -1, -1
		for k, q := range [2]int32{ev.qa[i], ev.qb[i]} {
			if q < 0 {
				break
			}
			p := last[q]
			d.prev[2*i+int32(k)] = p
			if p >= 0 {
				d.next[2*p+lastK[q]] = i
			}
			last[q], lastK[q] = i, int32(k)
		}
	}
	for _, g := range last {
		if g >= 0 {
			d.sinks = append(d.sinks, g)
		}
	}
	d.seen = make([]int32, ev.n)
	d.dirty = make([]uint64, (ev.n+63)/64)
	d.latency = make([]float64, ev.n)
	if err := d.fillLatencies(d.latency); err != nil {
		return nil, err
	}
	for _, w := range d.latency {
		d.latSum += w
	}
	d.finish = make([]float64, ev.n)
	d.forward(d.finish, d.latency)
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

// Swap exchanges the chain assignments of qubits q1 and q2 and reprices
// every gate whose latency changed, marking it stale. The objective is
// refreshed lazily: call Cost. Swap is its own inverse — Swap(a,b)
// followed by Swap(a,b) restores the assignment exactly.
func (d *DeltaEval) Swap(q1, q2 int) error {
	n := len(d.chainOf)
	if q1 < 0 || q1 >= n || q2 < 0 || q2 >= n {
		return verr.Inputf("perf: swap qubits (%d, %d) out of range [0, %d)", q1, q2, n)
	}
	if q1 == q2 {
		return verr.Inputf("perf: swap requires distinct qubits, got %d twice", q1)
	}
	d.chainOf[q1], d.chainOf[q2] = d.chainOf[q2], d.chainOf[q1]
	if d.chainOf[q1] == d.chainOf[q2] {
		return nil // same chain: no gate class or hop count moved
	}
	// Reprice every 2-qubit gate touching either qubit. A gate touching
	// both qubits is visited once (epoch marks) and keeps its latency
	// (both operands moved together), so it drops out at the != check.
	d.epoch++
	d.touched = d.touched[:0]
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
				// Only the assignment needs rolling back: no latency has
				// changed yet. Every gate spans connected chains before a
				// swap (NewDeltaEval rejects any other layout, and a
				// rejected swap restores the assignment), so a gate can
				// fail only when q1 and q2 sit in different components.
				// Then no gate joins q1 and q2, and every 2-qubit gate on
				// either pairs it with a qubit of the component it left,
				// so the first gate repriced is the one that fails.
				d.chainOf[q1], d.chainOf[q2] = d.chainOf[q2], d.chainOf[q1]
				return err
			}
			if w != d.latency[g] {
				d.touched = append(d.touched, g)
				d.latSum += w - d.latency[g]
				d.latency[g] = w
			}
		}
	}
	for _, g := range d.touched {
		d.mark(g)
	}
	return nil
}

// mark flags gate g's finish as stale.
func (d *DeltaEval) mark(g int32) {
	w := int(g >> 6)
	if d.lo >= d.hi {
		d.lo, d.hi = w, w+1
	} else if w < d.lo {
		d.lo = w
	} else if w >= d.hi {
		d.hi = w + 1
	}
	d.dirty[w] |= 1 << (g & 63)
}

// finishOf is gate i's finish given its operand predecessors prev and
// the finish and latency arrays: the walk's recurrence, with the same
// comparisons in the same order.
func finishOf(prev []int32, i int, finish, latency []float64) float64 {
	ready := 0.0
	if p := prev[2*i]; p >= 0 && finish[p] > ready {
		ready = finish[p]
	}
	if p := prev[2*i+1]; p >= 0 && finish[p] > ready {
		ready = finish[p]
	}
	return ready + latency[i]
}

// forward computes every gate's finish into finish, in program order.
func (d *DeltaEval) forward(finish, latency []float64) {
	for i := range finish {
		finish[i] = finishOf(d.prev, i, finish, latency)
	}
}

// makespan returns the latest finish, which a sink always holds.
func (d *DeltaEval) makespan(finish []float64) float64 {
	best := 0.0
	for _, g := range d.sinks {
		if finish[g] > best {
			best = finish[g]
		}
	}
	return best
}

// Cost refreshes the stale finishes and returns the current objective:
// the parallel model's makespan under the backend's delta weights. For
// the weak-link backend this equals ParallelTime on the materialized
// layout bit for bit. Stale gates are recomputed in ascending id, so
// every predecessor is final first, and a gate's successors are marked
// only when its finish moved.
func (d *DeltaEval) Cost() float64 {
	dirty, prev, next, finish, latency := d.dirty, d.prev, d.next, d.finish, d.latency
	hi := d.hi
	for w := d.lo; w < hi; w++ {
		for dirty[w] != 0 {
			b := bits.TrailingZeros64(dirty[w])
			dirty[w] &^= 1 << b
			i := w<<6 + b
			f := finishOf(prev, i, finish, latency)
			if f == finish[i] {
				continue
			}
			finish[i] = f
			// A successor lies past i, so only hi can grow.
			for _, s := range next[2*i : 2*i+2] {
				if s >= 0 {
					dirty[s>>6] |= 1 << (s & 63)
					hi = max(hi, int(s>>6)+1)
				}
			}
		}
	}
	d.lo, d.hi = 0, 0
	return d.makespan(finish)
}

// LatencySum returns the running sum of every gate's current latency — the
// serial-time analogue of Cost, maintained incrementally across Swaps. The
// makespan is a max over many paths and plateaus on regular circuits
// (most single swaps leave every tied critical path untouched); the
// annealer uses this sum as the plateau tie-breaker so zero-ΔCost moves
// still drift toward cheaper layouts. Incremental accumulation can drift
// from the from-scratch sum in the last bits; the same sequence of Swaps
// always yields the same value, which is all a tie-breaker needs.
func (d *DeltaEval) LatencySum() float64 { return d.latSum }

// FullCost prices the current assignment from scratch — fresh latencies
// and one forward pass over fresh finishes — sharing no incremental state
// with Cost beyond the chain assignment itself. It is the bit-exactness
// oracle for Cost and the "place-then-full-evaluate" legacy path the
// annealer benchmarks against.
func (d *DeltaEval) FullCost() (float64, error) {
	n := d.ev.n
	if cap(d.fullLatency) < n {
		d.fullLatency = make([]float64, n)
		d.fullFinish = make([]float64, n)
	}
	d.fullLatency, d.fullFinish = d.fullLatency[:n], d.fullFinish[:n]
	if err := d.fillLatencies(d.fullLatency); err != nil {
		return 0, err
	}
	d.forward(d.fullFinish, d.fullLatency)
	return d.makespan(d.fullFinish), nil
}

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
