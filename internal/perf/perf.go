// Package perf implements VelociTI's trapped-ion performance models (§IV of
// the paper).
//
// Two models are provided over a placed circuit (a gate list plus a
// ti.Layout):
//
//   - The serial baseline (Eq. 1–2): t_serial = q·δ + Γ with
//     Γ = w·α·γ + (p−w)·γ, where q and p are the 1- and 2-qubit gate
//     counts, w is Table I's "number of weak links used" during placement,
//     δ and γ the 1- and 2-qubit gate latencies, and α the weak-link
//     penalty factor. No parallelism is exploited; this is the
//     normalization baseline. (SerialTimePerGate additionally provides the
//     per-gate-charged worst case, which upper-bounds the parallel model.)
//
//   - The parallel model (§IV-C/D): gates become nodes of a directed graph
//     whose edges order consecutive gates sharing a qubit. An edge's weight
//     is the destination gate's latency, plus the source gate's latency when
//     the source is a start node (a gate with no predecessors). The
//     circuit's parallel execution time is the maximum-weight path — chains
//     whose gate sequences never meet at a weak link proceed concurrently.
//     Equivalently, every gate finishes at the latest finish of the gates
//     before it on its qubits plus its own latency. Evaluate's walk is the
//     plain reference form of that recurrence; the fold (fold.go) is the
//     production form, with a materialized and a streaming driver.
//
// All times are microseconds, matching the paper's Table III units.
package perf

import (
	"fmt"
	"strconv"
	"strings"

	"velociti/internal/circuit"
	"velociti/internal/ti"
	"velociti/internal/verr"
)

// Latencies is the timing configuration of Table III.
type Latencies struct {
	// OneQubit is δ, the latency of a 1-qubit gate in µs (paper: 1).
	OneQubit float64 `json:"one_qubit_us"`
	// TwoQubit is γ, the latency of an intra-chain 2-qubit gate in µs
	// (paper: 100).
	TwoQubit float64 `json:"two_qubit_us"`
	// WeakPenalty is α, the multiplicative penalty of a weak-link 2-qubit
	// gate (paper sweeps 2.0 down to 1.0).
	WeakPenalty float64 `json:"weak_penalty"`
}

// DefaultLatencies returns the paper's evaluation configuration
// (Table III): δ = 1 µs, γ = 100 µs, α = 2.
func DefaultLatencies() Latencies {
	return Latencies{OneQubit: 1, TwoQubit: 100, WeakPenalty: 2}
}

// Validate reports an error when the latency configuration is not
// physically meaningful. α < 1 would make weak links faster than local
// gates and is rejected (α = 1 means no penalty).
func (l Latencies) Validate() error {
	if l.OneQubit < 0 {
		return verr.Inputf("perf: 1-qubit latency must be non-negative, got %g", l.OneQubit)
	}
	if l.TwoQubit <= 0 {
		return verr.Inputf("perf: 2-qubit latency must be positive, got %g", l.TwoQubit)
	}
	if l.WeakPenalty < 1 {
		return verr.Inputf("perf: weak-link penalty must be ≥ 1, got %g", l.WeakPenalty)
	}
	return nil
}

// CacheKey implements internal/cache.Keyer (structurally): a canonical
// fingerprint of the timing model. Floats are rendered with the shortest
// round-tripping decimal form, so models with equal field bit patterns —
// and only those — share a key.
func (l Latencies) CacheKey() string {
	return "δ=" + strconv.FormatFloat(l.OneQubit, 'g', -1, 64) +
		",γ=" + strconv.FormatFloat(l.TwoQubit, 'g', -1, 64) +
		",α=" + strconv.FormatFloat(l.WeakPenalty, 'g', -1, 64)
}

// GateLatency returns the execution latency in µs of gate g under layout l:
// δ for 1-qubit gates, γ for intra-chain 2-qubit gates, and α·γ for any
// cross-chain (weak-link) 2-qubit gate. The penalty is flat — Eq. 2 charges
// every weak gate exactly α·γ regardless of how many chains apart its
// operands sit, which is what makes the paper's reported chain-length and
// α sensitivities come out (a per-hop charge would triple Figure 7's
// short-chain effect).
func (lat Latencies) GateLatency(g circuit.Gate, l *ti.Layout) float64 {
	if !g.IsTwoQubit() {
		return lat.OneQubit
	}
	if l.SameChain(g.Qubits[0], g.Qubits[1]) {
		return lat.TwoQubit
	}
	return lat.WeakPenalty * lat.TwoQubit
}

// WeakGates counts the number of 2-qubit gates in c whose operands sit on
// different chains under layout l — the gates the parallel model charges
// at α·γ.
func WeakGates(c *circuit.Circuit, l *ti.Layout) int {
	w := 0
	for _, g := range c.Gates() {
		if g.IsTwoQubit() && !l.SameChain(g.Qubits[0], g.Qubits[1]) {
			w++
		}
	}
	return w
}

// LinksUsed computes Table I's parameter w: the number of distinct weak
// links used during gate placement. Each cross-chain gate between
// directly linked chains uses exactly one link (the lowest-numbered link
// joining the pair, for determinism); gates between non-adjacent chains
// mark none. This keeps w ≤ min(#cross-chain gates, w_max), so Eq. 1–2's
// serial time never exceeds the per-gate worst case — and it is the
// calibration that reproduces the paper's serial times: the 64-qubit QFT
// on 16-ion chains (4 chains, all 4 links used) gives
// 4·α·γ + 4028·γ = 403.6 ms, the paper's exact Figure 6 value, and the
// six-application geometric mean lands on the paper's 69.3 ms.
func LinksUsed(c *circuit.Circuit, l *ti.Layout) int {
	used := make(map[int]bool)
	d := l.Device()
	for _, g := range c.Gates() {
		if !g.IsTwoQubit() {
			continue
		}
		ca, cb := l.ChainOf(g.Qubits[0]), l.ChainOf(g.Qubits[1])
		if ca == cb {
			continue
		}
		for _, wl := range d.WeakLinks() {
			if (wl.A.Chain == ca && wl.B.Chain == cb) || (wl.A.Chain == cb && wl.B.Chain == ca) {
				used[wl.ID] = true
				break
			}
		}
	}
	return len(used)
}

// SerialTime evaluates the serial baseline model (Eq. 1–2) for a placed
// circuit: t = q·δ + w·α·γ + (p−w)·γ with w = LinksUsed — the number of
// weak links used, per Table I. w is clamped to p so the degenerate case
// of fewer gates than touched links stays well-formed.
//
// Note that Eq. 1–2 is NOT an upper bound on the parallel model, so a
// reported serial/parallel "speedup" below 1× is legitimate model
// behavior, not a bug. The Γ term charges the α·γ weak-link penalty only
// w times — once per distinct link — while the parallel model charges
// every cross-chain gate individually at α·γ. A workload with many
// cross-chain gates but little intrinsic parallelism (Bernstein–Vazirani
// is the canonical case: its oracle CXs all target one ancilla, so its
// dependency chain is as long as the gate list) pays ~p·α·γ on the
// critical path against a serial estimate of only w·α·γ + (p−w)·γ, and
// the ratio drops below 1. SerialTimePerGate is the variant that charges
// every gate physically and therefore IS a true upper bound on the
// parallel time (a property test pins this).
func SerialTime(c *circuit.Circuit, l *ti.Layout, lat Latencies) float64 {
	q := c.NumOneQubitGates()
	p := c.NumTwoQubitGates()
	w := LinksUsed(c, l)
	if w > p {
		w = p
	}
	return SerialTimeFromCounts(q, p, w, lat)
}

// SerialTimePerGate is the physical worst case: every gate back to back
// with each cross-chain gate individually charged α·γ. Unlike Eq. 1–2 it
// is a true upper bound on the parallel model (a property test pins this).
func SerialTimePerGate(c *circuit.Circuit, l *ti.Layout, lat Latencies) float64 {
	var total float64
	for _, g := range c.Gates() {
		total += lat.GateLatency(g, l)
	}
	return total
}

// SerialTimeFromCounts evaluates Eq. 1–2 directly from the abstract
// parameters of Table I, without a concrete circuit: q 1-qubit gates, p
// 2-qubit gates of which w cross weak links.
func SerialTimeFromCounts(q, p, w int, lat Latencies) float64 {
	gamma := float64(w)*lat.WeakPenalty*lat.TwoQubit + float64(p-w)*lat.TwoQubit
	return float64(q)*lat.OneQubit + gamma
}

// asap is the ASAP schedule the reference walk computes.
type asap struct {
	start, finish []float64
	// prev[i] is the gate that gate i waited on, -1 for none; on a tie
	// the first operand's gate wins.
	prev []int
	// makespan is the latest finish; last is the first gate to reach it.
	makespan float64
	last     int
}

// walk is the reference walk of the parallel model (§IV-C/D): every gate
// starts when the last gate on each of its qubits has finished (at 0 when
// none has) and finishes latencyOf(g) later. Gates are in program order and
// dependencies only point backwards, so one left-to-right pass is a
// topological traversal. It is deliberately the plainest form of the
// recurrence: the fold (fold.go) and every other driver are tested against
// it bit for bit.
func walk(c *circuit.Circuit, latencyOf func(circuit.Gate) float64) asap {
	n := c.NumGates()
	w := asap{start: make([]float64, n), finish: make([]float64, n), prev: make([]int, n)}
	lastOn := make([]int, c.NumQubits())
	for q := range lastOn {
		lastOn[q] = -1
	}
	for _, g := range c.Gates() {
		ready, from := 0.0, -1
		for _, q := range g.Qubits {
			if p := lastOn[q]; p >= 0 && w.finish[p] > ready {
				ready, from = w.finish[p], p
			}
		}
		w.start[g.ID], w.finish[g.ID], w.prev[g.ID] = ready, ready+latencyOf(g), from
		for _, q := range g.Qubits {
			lastOn[q] = g.ID
		}
		if w.finish[g.ID] > w.makespan {
			w.makespan = w.finish[g.ID]
		}
		if w.finish[g.ID] > w.finish[w.last] {
			w.last = g.ID
		}
	}
	return w
}

// path returns the labels of the gates on the critical path ending at the
// walk's last gate, in execution order; nil for an empty circuit.
func (w asap) path(labels []string) []string {
	if len(w.finish) == 0 {
		return nil
	}
	depth := 0
	for at := w.last; at != -1; at = w.prev[at] {
		depth++
	}
	out := make([]string, depth)
	for at := w.last; at != -1; at = w.prev[at] {
		depth--
		out[depth] = labels[at]
	}
	return out
}

// under returns lat's per-gate latency rule under layout l.
func (lat Latencies) under(l *ti.Layout) func(circuit.Gate) float64 {
	return func(g circuit.Gate) float64 { return lat.GateLatency(g, l) }
}

// ParallelTime evaluates the parallel model: the finish time of the last
// gate when every gate starts as soon as all gates it depends on have
// finished. An empty circuit takes zero time.
func ParallelTime(c *circuit.Circuit, l *ti.Layout, lat Latencies) float64 {
	return walk(c, lat.under(l)).makespan
}

// Result bundles the outcome of evaluating both models on one placed
// circuit.
type Result struct {
	// SerialMicros is the Eq. 1–2 baseline time in µs (w = links used).
	SerialMicros float64 `json:"serial_us"`
	// SerialPerGateMicros is the per-gate-charged serial worst case in µs.
	SerialPerGateMicros float64 `json:"serial_per_gate_us"`
	// ParallelMicros is the parallel-model time in µs.
	ParallelMicros float64 `json:"parallel_us"`
	// WeakGates is the number of cross-chain 2-qubit gates.
	WeakGates int `json:"weak_gates"`
	// LinksUsed is Table I's w: distinct weak links used by placement.
	LinksUsed int `json:"links_used"`
	// CriticalPath is the SSA labels of the gates on one longest path,
	// in execution order.
	CriticalPath []string `json:"critical_path,omitempty"`
}

// Speedup returns serial time over parallel time.
func (r Result) Speedup() float64 {
	if r.ParallelMicros == 0 {
		if r.SerialMicros == 0 {
			return 1
		}
		return 0
	}
	return r.SerialMicros / r.ParallelMicros
}

// Evaluate runs both performance models on a placed circuit and extracts
// the critical path. It is the reference every pricing driver is tested
// against.
func Evaluate(c *circuit.Circuit, l *ti.Layout, lat Latencies) (Result, error) {
	if err := lat.Validate(); err != nil {
		return Result{}, err
	}
	if c.NumQubits() > l.NumQubits() {
		return Result{}, fmt.Errorf("perf: circuit has %d qubits but layout places only %d", c.NumQubits(), l.NumQubits())
	}
	w := walk(c, lat.under(l))
	return Result{
		SerialMicros:        SerialTime(c, l, lat),
		SerialPerGateMicros: SerialTimePerGate(c, l, lat),
		ParallelMicros:      w.makespan,
		WeakGates:           WeakGates(c, l),
		LinksUsed:           LinksUsed(c, l),
		CriticalPath:        w.path(c.Labels()),
	}, nil
}

// CriticalPath returns the SSA labels of the gates along one
// maximum-latency dependency chain, in execution order. Returns nil for an
// empty circuit.
func CriticalPath(c *circuit.Circuit, l *ti.Layout, lat Latencies) []string {
	return walk(c, lat.under(l)).path(c.Labels())
}

// GateGraphDOT renders §IV-C's gate graph of c under (l, lat) in Graphviz
// DOT format: one node per gate, labelled with its SSA label, and one edge
// per circuit.DependencyEdges pair u→v, labelled with its weight — v's
// latency, plus u's when u is a start node (a gate no edge enters). Start
// nodes are drawn with a double circle, the paper's Figure 3 convention.
// The graph's longest path is ParallelTime, except that a gate with no
// edge at all counts its own latency there.
func GateGraphDOT(name string, c *circuit.Circuit, l *ti.Layout, lat Latencies) string {
	gs := c.Gates()
	edges := c.DependencyEdges()
	start := make([]bool, len(gs))
	for i := range start {
		start[i] = true
	}
	for _, e := range edges {
		start[e[1]] = false
	}
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	for id, label := range c.Labels() {
		shape := "circle"
		if start[id] {
			shape = "doublecircle"
		}
		fmt.Fprintf(&b, "  n%d [label=%q shape=%s];\n", id, label, shape)
	}
	for _, e := range edges {
		u, v := e[0], e[1]
		w := lat.GateLatency(gs[v], l)
		if start[u] {
			w += lat.GateLatency(gs[u], l)
		}
		fmt.Fprintf(&b, "  n%d -> n%d [label=%q];\n", u, v, fmt.Sprintf("%g", w))
	}
	b.WriteString("}\n")
	return b.String()
}
