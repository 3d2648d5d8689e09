package perf

// This file kernelizes the framework's hot path. Every data point in the
// paper's evaluation averages 35 randomized trials, and each trial needs
// the parallel model over the same circuit. An Evaluator flattens the
// circuit once into int32 operand tables, which Bind classifies and the
// fold (fold.go) prices, and — on demand — into the dependency CSR of
// §IV-C's gate graph, which LongestPath, incremental repricing (delta.go)
// and the DOT view walk. Scratch memory is sync.Pool-backed, so repeated
// trials over the same circuit allocate (almost) nothing. Results are
// exactly equal to the reference, Evaluate — the test suite pins
// equivalence property-style.

import (
	"sync"

	"velociti/internal/circuit"
	"velociti/internal/dag"
	"velociti/internal/ti"
)

// Evaluator caches the layout-independent structure of one circuit — the
// dependency CSR of §IV-C's gate graph, operand tables, gate counts, and
// SSA labels — and evaluates the performance models against layouts over
// those flat arrays. An Evaluator is immutable after construction and safe
// for concurrent use; worker-pool trial runners share one per circuit.
type Evaluator struct {
	c *circuit.Circuit
	n int

	// heads/targets is the successor CSR of the dependency edges
	// (circuit.DependencyEdges semantics): an edge u→v means gate v is the
	// next gate after u touching one of u's qubits. Gates are emitted in
	// program order, so every edge points forward.
	heads   []int32
	targets []int32
	// isStart[i] reports gate i has no predecessor (a paper "start node").
	isStart []bool
	// twoQ[i] reports gate i acts on two qubits; qa/qb are its operands
	// (qb == -1 for 1-qubit gates).
	twoQ   []bool
	qa, qb []int32

	oneQGates, twoQGates int

	// buildLast/buildCursor are construction temporaries kept on the
	// struct so a recycled evaluator's rebuild is allocation-free. They
	// are never read after construction returns.
	buildLast, buildCursor []int32

	// once guards the lazy stages: the CSR, because the fold prices gates
	// off the operand tables alone, so heads/targets/isStart are only
	// materialized when a CSR walk (LongestPath, GateGraph, DeltaEval,
	// NumEdges) first asks for them; and the SSA labels. One heap object per build —
	// build resets it by pointer swap, since copying a sync.Once would
	// trip the copylocks vet.
	once   *evalOnce
	labels []string
}

// evalOnce bundles the evaluator's lazy-stage guards into one allocation.
type evalOnce struct {
	csr    sync.Once
	labels sync.Once
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
// the struct already carries. Only the operand tables and gate counts are
// filled here; the dependency CSR is deferred to ensureCSR, since the
// binding/pricing path never walks it.
func (e *Evaluator) build(c *circuit.Circuit) *Evaluator {
	n := c.NumGates()
	e.c = c
	e.n = n
	e.oneQGates, e.twoQGates = 0, 0
	e.once = new(evalOnce)
	e.labels = nil
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

// ensureCSR materializes heads/targets/isStart on first use.
func (e *Evaluator) ensureCSR() { e.once.csr.Do(e.buildCSR) }

// buildCSR constructs the successor CSR and start-node flags from the
// operand tables build filled.
func (e *Evaluator) buildCSR() {
	n := e.n
	e.heads = growInt32(e.heads, n+1)
	for i := range e.heads {
		e.heads[i] = 0
	}
	if cap(e.isStart) < n {
		e.isStart = make([]bool, n)
	}
	e.isStart = e.isStart[:n]
	for i := range e.isStart {
		e.isStart[i] = true
	}
	e.buildLast = growInt32(e.buildLast, e.c.NumQubits())
	last := e.buildLast
	for i := range last {
		last[i] = -1
	}
	// First pass: per-source out-degrees (into heads, shifted by one for
	// the prefix sum) and start flags.
	for id := int32(0); id < int32(n); id++ {
		p0 := last[e.qa[id]]
		p1 := int32(-1)
		if e.qb[id] >= 0 {
			p1 = last[e.qb[id]]
		}
		if p0 >= 0 {
			e.heads[p0+1]++
			e.isStart[id] = false
		}
		if p1 >= 0 && p1 != p0 {
			e.heads[p1+1]++
			e.isStart[id] = false
		}
		last[e.qa[id]] = id
		if e.qb[id] >= 0 {
			last[e.qb[id]] = id
		}
	}
	for u := 0; u < n; u++ {
		e.heads[u+1] += e.heads[u]
	}
	e.targets = growInt32(e.targets, int(e.heads[n]))
	// Second pass: fill targets. Iterating gates in program order appends
	// ascending targets to each source's slot range, the order dag.Delta
	// and the DOT view rely on.
	e.buildCursor = growInt32(e.buildCursor, n)
	cursor := e.buildCursor
	for i := range cursor {
		cursor[i] = 0
	}
	for i := range last {
		last[i] = -1
	}
	for id := int32(0); id < int32(n); id++ {
		p0 := last[e.qa[id]]
		p1 := int32(-1)
		if e.qb[id] >= 0 {
			p1 = last[e.qb[id]]
		}
		if p0 >= 0 {
			e.targets[e.heads[p0]+cursor[p0]] = id
			cursor[p0]++
		}
		if p1 >= 0 && p1 != p0 {
			e.targets[e.heads[p1]+cursor[p1]] = id
			cursor[p1]++
		}
		last[e.qa[id]] = id
		if e.qb[id] >= 0 {
			last[e.qb[id]] = id
		}
	}
}

// Circuit returns the circuit this evaluator was built for.
func (e *Evaluator) Circuit() *circuit.Circuit { return e.c }

// NumEdges returns the number of dependency edges in the cached graph.
func (e *Evaluator) NumEdges() int {
	e.ensureCSR()
	return len(e.targets)
}

// gateLatencies fills dst[i] with gate i's latency under (l, lat).
func (e *Evaluator) gateLatencies(dst []float64, l *ti.Layout, lat Latencies) {
	weakLat := lat.WeakPenalty * lat.TwoQubit
	for i := 0; i < e.n; i++ {
		switch {
		case !e.twoQ[i]:
			dst[i] = lat.OneQubit
		case l.SameChain(int(e.qa[i]), int(e.qb[i])):
			dst[i] = lat.TwoQubit
		default:
			dst[i] = weakLat
		}
	}
}

// fillWeights fills dst with §IV-C's edge weights over the cached CSR: an
// edge u→v weighs latency[v], plus latency[u] when u is a start node.
func (e *Evaluator) fillWeights(dst, latency []float64) {
	for u := int32(0); u < int32(e.n); u++ {
		for i := e.heads[u]; i < e.heads[u+1]; i++ {
			dst[i] = e.edgeWeight(u, e.targets[i], latency)
		}
	}
}

// edgeWeight is the weight of the dependency edge u→v under per-gate
// latencies.
func (e *Evaluator) edgeWeight(u, v int32, latency []float64) float64 {
	w := latency[v]
	if e.isStart[u] {
		w += latency[u]
	}
	return w
}

// LongestPath computes the maximum-weight path of §IV-C's gate graph
// (GateGraph) with internal/dag's forward kernel. It equals
// ParallelTime(c, l, lat) — a property the tests pin — and is the oracle of
// incremental repricing (DeltaEval.Cost).
func (e *Evaluator) LongestPath(l *ti.Layout, lat Latencies) float64 {
	g := e.GateGraph(l, lat)
	return g.LongestPath(nil)
}

// GateGraph returns §IV-C's gate graph of the circuit under (l, lat): the
// dependency CSR in program order, each edge u→v weighted by v's latency
// plus u's when u is a start node. Its
// Heads and Targets alias the evaluator and must not be modified.
func (e *Evaluator) GateGraph(l *ti.Layout, lat Latencies) dag.CSR {
	e.ensureCSR()
	latency := make([]float64, e.n)
	e.gateLatencies(latency, l, lat)
	weights := make([]float64, len(e.targets))
	e.fillWeights(weights, latency)
	return dag.CSR{Heads: e.heads, Targets: e.targets, Weights: weights}
}

// Labels returns the circuit's SSA gate labels, computed once and cached.
func (e *Evaluator) Labels() []string {
	e.once.labels.Do(func() { e.labels = e.c.Labels() })
	return e.labels
}
