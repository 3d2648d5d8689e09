package perf

// This file splits the evaluator's hot path at the point where the timing
// model enters. Bind classifies every gate against a layout (1-qubit,
// 2-qubit intra-chain, or 2-qubit weak-link); the classification depends
// only on (circuit, layout). The pricing — Time — is where α and the other
// Table III knobs appear. Separating the two lets sweep engines reuse one
// Binding across every α cell (internal/core's stage pipeline caches them)
// and lets TimeAll price many latency models in one fold (fold.go) over the
// gate list instead of one pass per model.
//
// A binding prices itself under the timing backend that prepared it: with
// the transport plan the shuttle backend's Prepare attaches
// (AttachTransport, transport.go), every pricing method charges explicit
// ion transport; without one — the weak-link backend's Prepare attaches
// nothing — the paper's weak-link model.
//
// Bit-exactness contract: Binding.Time(lat) on a weak-link binding equals
// Evaluate(c, l, lat) field for field — including float bit patterns and
// critical-path tie-breaking — and under either model TimeAll(lats)[i]
// equals Time(lats[i]) and ParallelTimeAll(lats)[i] equals
// Time(lats[i]).ParallelMicros. The property tests pin all three.

import (
	"fmt"
	"sync"

	"velociti/internal/ti"
)

// GateClass is a gate's latency class under one layout.
type GateClass uint8

const (
	// ClassOneQ is a 1-qubit gate (latency δ).
	ClassOneQ GateClass = iota
	// ClassTwoQIntra is a 2-qubit gate within one chain (latency γ).
	ClassTwoQIntra
	// ClassTwoQWeak is a 2-qubit gate across a weak link (latency α·γ).
	ClassTwoQWeak
	numClasses
)

// NumGateClasses is the number of distinct gate latency classes; per-class
// tables (e.g. the fidelity estimator's error LUT) are indexed by GateClass
// and sized by this constant.
const NumGateClasses = int(numClasses)

// Binding is the layout-dependent but latency-independent artifact of one
// (circuit, layout) pair: per-gate latency classes over the evaluator's CSR
// arrays, plus the weak-gate and links-used counts. It records the layout
// it was bound against, so one Binding carries a whole trial's artifacts.
// A Binding is immutable after construction and safe for concurrent use,
// so sweep engines share one across α cells and worker goroutines.
type Binding struct {
	ev      *Evaluator
	layout  *ti.Layout
	classes []GateClass
	weak    int
	links   int
	// transport is the shuttle timing backend's per-gate path plan and
	// costs, attached once by AttachTransport (the backend's Prepare hook)
	// before the binding is shared; nil under the weak-link backend. It
	// selects the model every pricing method uses.
	transport *transportPlan
}

// Bind classifies every gate of the evaluator's circuit under layout l.
func (e *Evaluator) Bind(l *ti.Layout) (*Binding, error) {
	if e.c.NumQubits() > l.NumQubits() {
		return nil, fmt.Errorf("perf: circuit has %d qubits but layout places only %d", e.c.NumQubits(), l.NumQubits())
	}
	b := &Binding{ev: e, layout: l, classes: make([]GateClass, e.n)}
	// One walk both classifies gates and tallies Table I's w (distinct
	// weak links used): the chain pair is resolved once per gate. The
	// pair→link table keeps the lowest-numbered link joining each pair,
	// exactly LinksUsed's rule, so the counts agree.
	s, pairLink, used, nc := newBindScratch(l)
	// chainOf is indexed directly: qa/qb were range-checked when the gates
	// were appended, and a fresh classes slice is already ClassOneQ (zero),
	// so 1-qubit gates need no store at all.
	chainOf := l.ChainAssignments()
	for i := 0; i < e.n; i++ {
		if !e.twoQ[i] {
			continue
		}
		ca, cb := chainOf[e.qa[i]], chainOf[e.qb[i]]
		if ca == cb {
			b.classes[i] = ClassTwoQIntra
			continue
		}
		b.classes[i] = ClassTwoQWeak
		b.weak++
		if id := pairLink[ca*nc+cb]; id != 0 && !used[id-1] {
			used[id-1] = true
			b.links++
		}
	}
	bindScratchPool.Put(s)
	return b, nil
}

// newBindScratch readies the pooled pair→link table and usage bitmap for
// one classification walk over layout l's device.
func newBindScratch(l *ti.Layout) (s *bindScratch, pairLink []int32, used []bool, nc int) {
	d := l.Device()
	nc = d.NumChains()
	s = bindScratchPool.Get().(*bindScratch)
	if cap(s.pairLink) < nc*nc {
		s.pairLink = make([]int32, nc*nc)
	}
	pairLink = s.pairLink[:nc*nc]
	for i := range pairLink {
		pairLink[i] = 0
	}
	for i := len(d.WeakLinks()) - 1; i >= 0; i-- {
		wl := d.WeakLinks()[i]
		pairLink[wl.A.Chain*nc+wl.B.Chain] = int32(wl.ID) + 1
		pairLink[wl.B.Chain*nc+wl.A.Chain] = int32(wl.ID) + 1
	}
	if cap(s.used) < d.MaxWeakLinks()+1 {
		s.used = make([]bool, d.MaxWeakLinks()+1)
	}
	used = s.used[:d.MaxWeakLinks()+1]
	for i := range used {
		used[i] = false
	}
	return s, pairLink, used, nc
}

// bindScratch is the pooled pair→link table and usage bitmap of one Bind.
type bindScratch struct {
	pairLink []int32
	used     []bool
}

var bindScratchPool = sync.Pool{New: func() any { return new(bindScratch) }}

// Evaluator returns the evaluator the binding was built from.
func (b *Binding) Evaluator() *Evaluator { return b.ev }

// Layout returns the layout the binding was built against.
func (b *Binding) Layout() *ti.Layout { return b.layout }

// NumGates returns the number of bound gates.
func (b *Binding) NumGates() int { return b.ev.n }

// NumQubits returns the circuit's qubit count.
func (b *Binding) NumQubits() int { return b.ev.c.NumQubits() }

// Class returns gate i's latency class.
func (b *Binding) Class(i int) GateClass { return b.classes[i] }

// Classes returns the per-gate latency classes in gate order. The returned
// slice is the binding's backing store and must not be modified.
func (b *Binding) Classes() []GateClass { return b.classes }

// WeakGates returns the number of cross-chain 2-qubit gates.
func (b *Binding) WeakGates() int { return b.weak }

// LinksUsed returns Table I's w: distinct weak links used by placement.
func (b *Binding) LinksUsed() int { return b.links }

// classLatencies returns the per-class latency table for one timing model.
// The weak entry is one multiply, exactly as Latencies.GateLatency computes
// it, so priced latencies are bit-identical to the reference.
func classLatencies(lat Latencies) [numClasses]float64 {
	return [numClasses]float64{
		ClassOneQ:      lat.OneQubit,
		ClassTwoQIntra: lat.TwoQubit,
		ClassTwoQWeak:  lat.WeakPenalty * lat.TwoQubit,
	}
}

// Time prices the binding under one timing model, with the transport model
// when the binding's backend attached a plan and the weak-link model
// otherwise. Under the weak-link model the Result is exactly equal — bit
// for bit, critical path included — to Evaluate on the circuit and layout
// the binding was built from.
func (b *Binding) Time(lat Latencies) (Result, error) {
	res, err := b.TimeAll([]Latencies{lat})
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// TimeAll prices the binding under every timing model in lats with one
// fold over the gate list, one lane per model, under the same model Time
// uses. TimeAll(lats)[i] is exactly equal to Time(lats[i]) — this is the
// parametric kernel behind α sweeps, where the models differ only in
// WeakPenalty.
//
// Under transport, a weak gate first pays its transport overhead (split +
// hops·move + merge + recool, serialized against every other transport
// crossing a shared segment) and then runs at the LOCAL 2-qubit latency γ
// — the weak penalty α never appears; transport replaces it. SerialMicros
// is then the Eq. 1 serial bound at α = 1 plus the total transport
// overhead, and SerialPerGateMicros likewise accumulates overhead plus
// gate latency in gate order.
func (b *Binding) TimeAll(lats []Latencies) ([]Result, error) {
	if len(lats) == 0 {
		return nil, fmt.Errorf("perf: TimeAll requires at least one timing model")
	}
	if err := validateAll(lats); err != nil {
		return nil, err
	}
	return b.price(lats), nil
}

// validateAll validates every timing model in order.
func validateAll(lats []Latencies) error {
	for _, lat := range lats {
		if err := lat.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// ParallelTime prices only the parallel model — the makespan under ASAP
// scheduling — for one timing model, with no critical-path bookkeeping,
// under the same model Time uses. It equals Time(lat).ParallelMicros
// exactly; fidelity estimation uses it for the dephasing window. Like
// ParallelTimeAll, it assumes a validated timing model.
func (b *Binding) ParallelTime(lat Latencies) float64 {
	var dst [1]float64
	b.makespans([]Latencies{lat}, dst[:])
	return dst[0]
}

// ParallelTimeAll prices the makespan under every timing model in lats with
// one fold — the batched counterpart of ParallelTime, with none of the
// critical-path bookkeeping. dst is reused when it has capacity; the
// returned slice has len(lats), and entry j equals ParallelTime(lats[j])
// bit for bit. Like ParallelTime, it assumes already validated timing
// models.
func (b *Binding) ParallelTimeAll(lats []Latencies, dst []float64) []float64 {
	nl := len(lats)
	if cap(dst) < nl {
		dst = make([]float64, nl)
	}
	dst = dst[:nl]
	if nl > 0 {
		b.makespans(lats, dst)
	}
	return dst
}
