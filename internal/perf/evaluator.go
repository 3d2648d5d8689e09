package perf

// This file kernelizes the framework's hot path. Every data point in the
// paper's evaluation averages 35 randomized trials, and each trial needs
// the parallel model over the same circuit. An Evaluator flattens the
// circuit once into int32 operand tables, which Bind classifies, the fold
// (fold.go) prices and incremental repricing (delta.go) links per qubit.
// Scratch memory is sync.Pool-backed, so repeated trials over the same
// circuit allocate (almost) nothing. Results are exactly equal to the
// reference, Evaluate — the test suite pins equivalence property-style.

import (
	"sync"

	"velociti/internal/circuit"
)

// Evaluator caches the layout-independent structure of one circuit —
// operand tables, gate counts, and SSA labels — and evaluates the
// performance models against layouts over those flat arrays. An Evaluator
// is immutable after construction and safe for concurrent use;
// worker-pool trial runners share one per circuit.
type Evaluator struct {
	c *circuit.Circuit
	n int

	// twoQ[i] reports gate i acts on two qubits; qa/qb are its operands
	// (qb == -1 for 1-qubit gates).
	twoQ   []bool
	qa, qb []int32

	oneQGates, twoQGates int

	// once guards the lazy SSA labels. One heap object per build — build
	// resets it by pointer swap, since copying a sync.Once would trip the
	// copylocks vet.
	once *sync.Once
	// labelText/labelEnds memoize circuit.LabelText: gate i's label is
	// labelText[labelEnds[i-1]:labelEnds[i]], so a critical path slices
	// its labels out of one string instead of holding one per gate.
	labelText string
	labelEnds []int32
}

// NewEvaluator flattens the circuit's dependency structure. The circuit
// must not be mutated while the evaluator is in use.
func NewEvaluator(c *circuit.Circuit) *Evaluator {
	return (&Evaluator{}).build(c)
}

// evaluatorPool holds retired evaluators whose flat arrays NewEvaluatorScratch
// rebuilds in place. Only evaluators explicitly handed back through
// RecycleEvaluator ever land here.
var evaluatorPool sync.Pool

// NewEvaluatorScratch is NewEvaluator, but reuses a recycled evaluator's
// storage when one is available. The result is indistinguishable from a
// fresh NewEvaluator.
func NewEvaluatorScratch(c *circuit.Circuit) *Evaluator {
	if e, _ := evaluatorPool.Get().(*Evaluator); e != nil {
		return e.build(c)
	}
	return NewEvaluator(c)
}

// RecycleEvaluator retires e's storage for reuse by NewEvaluatorScratch.
// The caller must own every live reference to e, including any Binding
// built from it — a later NewEvaluatorScratch rebuilds the arrays in
// place. Trial loops that evaluate and discard use this to stay
// allocation-flat; cached evaluators must never be recycled.
func RecycleEvaluator(e *Evaluator) {
	if e == nil {
		return
	}
	evaluatorPool.Put(e)
}

// growInt32 returns s resized to n without clearing retained elements.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// build (re)constructs the evaluator for c, reusing whatever array capacity
// the struct already carries.
func (e *Evaluator) build(c *circuit.Circuit) *Evaluator {
	n := c.NumGates()
	e.c = c
	e.n = n
	e.oneQGates, e.twoQGates = 0, 0
	e.once = new(sync.Once)
	e.labelText, e.labelEnds = "", nil
	e.qa = growInt32(e.qa, n)
	e.qb = growInt32(e.qb, n)
	if cap(e.twoQ) < n {
		e.twoQ = make([]bool, n)
	}
	e.twoQ = e.twoQ[:n]
	gs := c.Gates()
	for i := range gs {
		g := &gs[i]
		id := int32(g.ID)
		e.qa[id] = int32(g.Qubits[0])
		e.qb[id] = -1
		e.twoQ[id] = false
		if g.IsTwoQubit() {
			e.twoQ[id] = true
			e.qb[id] = int32(g.Qubits[1])
			e.twoQGates++
		} else if len(g.Qubits) == 1 {
			e.oneQGates++
		}
	}
	return e
}

// Circuit returns the circuit this evaluator was built for.
func (e *Evaluator) Circuit() *circuit.Circuit { return e.c }

// Labels returns the circuit's SSA gate labels, sliced from the memo.
func (e *Evaluator) Labels() []string {
	e.ensureLabels()
	labels := make([]string, e.n)
	for i := range labels {
		labels[i] = e.label(i)
	}
	return labels
}

// ensureLabels memoizes the circuit's label text on first use.
func (e *Evaluator) ensureLabels() {
	e.once.Do(func() { e.labelText, e.labelEnds = e.c.LabelText() })
}

// label returns gate i's SSA label; ensureLabels must have run.
func (e *Evaluator) label(i int) string {
	start := int32(0)
	if i > 0 {
		start = e.labelEnds[i-1]
	}
	return e.labelText[start:e.labelEnds[i]]
}
