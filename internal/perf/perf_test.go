package perf

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"velociti/internal/circuit"
	"velociti/internal/ti"
	"velociti/internal/verr"
	"velociti/internal/workload"
)

// fig3 builds the paper's Figure 3 example: 7 qubits across two chains
// (q1–q4 on chain A, q5–q7 on chain B, 0-indexed here as q0–q6), six
// 2-qubit gates, one weak link joining q4 (0-indexed q3) and q5 (q4).
func fig3(t *testing.T) (*circuit.Circuit, *ti.Layout) {
	t.Helper()
	c := circuit.New("fig3", 7)
	c.CX(0, 1) // q1q2 (start node)
	c.CX(2, 3) // q3q4 (start node)
	c.CX(5, 6) // q6q7 (start node)
	c.CX(3, 4) // q4q5 — crosses the weak link
	c.CX(4, 5) // q5q6
	c.CX(1, 2) // q2q3
	d, err := ti.NewDevice(4, 2, ti.Line)
	if err != nil {
		t.Fatal(err)
	}
	l, err := ti.NewLayout(d, [][]int{{0, 1, 2, 3}, {4, 5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	return c, l
}

func TestDefaultLatenciesMatchTableIII(t *testing.T) {
	lat := DefaultLatencies()
	if lat.OneQubit != 1 || lat.TwoQubit != 100 || lat.WeakPenalty != 2 {
		t.Fatalf("defaults = %+v, want Table III values", lat)
	}
	if err := lat.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLatenciesValidate(t *testing.T) {
	bad := []Latencies{
		{OneQubit: -1, TwoQubit: 100, WeakPenalty: 2},
		{OneQubit: 1, TwoQubit: 0, WeakPenalty: 2},
		{OneQubit: 1, TwoQubit: 100, WeakPenalty: 0.5},
		{OneQubit: math.NaN(), TwoQubit: 100, WeakPenalty: 2},
		{OneQubit: 1, TwoQubit: math.NaN(), WeakPenalty: 2},
		{OneQubit: 1, TwoQubit: 100, WeakPenalty: math.NaN()},
		{OneQubit: math.Inf(1), TwoQubit: 100, WeakPenalty: 2},
		{OneQubit: 1, TwoQubit: math.Inf(1), WeakPenalty: 2},
		{OneQubit: 1, TwoQubit: 100, WeakPenalty: math.Inf(1)},
		{OneQubit: 1, TwoQubit: math.Inf(-1), WeakPenalty: 2},
	}
	for i, l := range bad {
		err := l.Validate()
		if err == nil {
			t.Errorf("case %d should be invalid: %+v", i, l)
			continue
		}
		if !verr.IsInput(err) {
			t.Errorf("case %d: error should be input-kind, got %v", i, err)
		}
	}
	ok := Latencies{OneQubit: 0, TwoQubit: 50, WeakPenalty: 1}
	if err := ok.Validate(); err != nil {
		t.Errorf("α=1 (no penalty) should be valid: %v", err)
	}
	// Finite out-of-range values keep their diagnostics word for word.
	for _, tc := range []struct {
		lat  Latencies
		want string
	}{
		{Latencies{OneQubit: -1, TwoQubit: 100, WeakPenalty: 2}, "perf: 1-qubit latency must be non-negative, got -1"},
		{Latencies{OneQubit: 1, TwoQubit: 0, WeakPenalty: 2}, "perf: 2-qubit latency must be positive, got 0"},
		{Latencies{OneQubit: 1, TwoQubit: 100, WeakPenalty: 0.5}, "perf: weak-link penalty must be ≥ 1, got 0.5"},
		{Latencies{OneQubit: 1, TwoQubit: 100, WeakPenalty: math.NaN()}, "perf: weak-link penalty must be ≥ 1, got NaN"},
		{Latencies{OneQubit: 1, TwoQubit: 100, WeakPenalty: math.Inf(1)}, "perf: weak-link penalty must be finite, got +Inf"},
	} {
		if err := tc.lat.Validate(); err == nil || err.Error() != tc.want {
			t.Errorf("%+v: error = %v, want %q", tc.lat, err, tc.want)
		}
	}
}

func TestGateLatencyClasses(t *testing.T) {
	c, l := fig3(t)
	lat := DefaultLatencies()
	// Intra-chain 2q gate.
	if got := lat.GateLatency(c.Gate(0), l); got != 100 {
		t.Errorf("intra-chain 2q latency = %v, want 100", got)
	}
	// Weak-link gate: α·γ.
	if got := lat.GateLatency(c.Gate(3), l); got != 200 {
		t.Errorf("weak-link latency = %v, want 200", got)
	}
	// 1-qubit gate.
	c2 := circuit.New("t", 7)
	c2.H(0)
	if got := lat.GateLatency(c2.Gate(0), l); got != 1 {
		t.Errorf("1q latency = %v, want 1", got)
	}
}

func TestSerialTimeFig3(t *testing.T) {
	c, l := fig3(t)
	lat := DefaultLatencies()
	// q=0, p=6, w=1: Γ = 1·2·100 + 5·100 = 700.
	if got := SerialTime(c, l, lat); got != 700 {
		t.Fatalf("serial = %v, want 700", got)
	}
}

func TestSerialTimeFromCountsMatchesEquation(t *testing.T) {
	lat := Latencies{OneQubit: 1, TwoQubit: 100, WeakPenalty: 1.5}
	// t = q·δ + w·α·γ + (p−w)·γ = 10 + 3·150 + 7·100 = 1160.
	if got := SerialTimeFromCounts(10, 10, 3, lat); got != 1160 {
		t.Fatalf("serial from counts = %v, want 1160", got)
	}
}

// The paper's worked example: the parallel latency of Figure 3 is
// (1+α)γ + γ (§IV-D).
func TestParallelTimeFig3MatchesPaper(t *testing.T) {
	c, l := fig3(t)
	for _, alpha := range []float64{2.0, 1.8, 1.4, 1.0} {
		lat := Latencies{OneQubit: 1, TwoQubit: 100, WeakPenalty: alpha}
		want := (1+alpha)*100 + 100
		if got := ParallelTime(c, l, lat); math.Abs(got-want) > 1e-9 {
			t.Errorf("α=%v: parallel = %v, want %v", alpha, got, want)
		}
	}
}

// paperGraph is §IV-C's edge-weighted gate graph, kept in test code as
// the paper states it: the circuit.DependencyEdges pairs, each edge u→v
// weighing v's latency plus u's when u is a start node (a gate no edge
// enters).
type paperGraph struct {
	edges   [][2]int
	weights []float64
	start   []bool
}

func newPaperGraph(c *circuit.Circuit, l *ti.Layout, lat Latencies) paperGraph {
	gs := c.Gates()
	g := paperGraph{edges: c.DependencyEdges(), start: make([]bool, len(gs))}
	for i := range g.start {
		g.start[i] = true
	}
	for _, e := range g.edges {
		g.start[e[1]] = false
	}
	for _, e := range g.edges {
		w := lat.GateLatency(gs[e[1]], l)
		if g.start[e[0]] {
			w += lat.GateLatency(gs[e[0]], l)
		}
		g.weights = append(g.weights, w)
	}
	return g
}

// weight returns the weight of edge u→v and whether it exists.
func (g paperGraph) weight(u, v int) (float64, bool) {
	for k, e := range g.edges {
		if e == [2]int{u, v} {
			return g.weights[k], true
		}
	}
	return 0, false
}

// longestPath relaxes the edges in (u, v) order, a topological order
// because every edge points forward.
func (g paperGraph) longestPath() float64 {
	dist := make([]float64, len(g.start))
	best := 0.0
	for k, e := range g.edges {
		if d := dist[e[0]] + g.weights[k]; d > dist[e[1]] {
			dist[e[1]] = d
		}
		if dist[e[1]] > best {
			best = dist[e[1]]
		}
	}
	return best
}

// TestBuildGateGraphFig3Structure pins the gate graph of §IV-C on the
// paper's Figure 3.
func TestBuildGateGraphFig3Structure(t *testing.T) {
	c, l := fig3(t)
	g := newPaperGraph(c, l, DefaultLatencies())
	// Three start nodes, exactly the gates acting on fresh qubits.
	if !reflect.DeepEqual(g.start, []bool{true, true, true, false, false, false}) {
		t.Fatalf("start nodes = %v, want the first three", g.start)
	}
	// Edge q3q4 -> q4q5 weighs (1+α)γ = 300: destination is a weak-link
	// gate (αγ) and the source is a start node (+γ).
	if w, ok := g.weight(1, 3); !ok || w != 300 {
		t.Fatalf("weight(q3q4→q4q5) = %v,%v, want 300", w, ok)
	}
	// Edge q4q5 -> q5q6 weighs γ = 100: source is not a start node.
	if w, ok := g.weight(3, 4); !ok || w != 100 {
		t.Fatalf("weight(q4q5→q5q6) = %v,%v, want 100", w, ok)
	}
	// Longest path through the graph equals the paper's (1+α)γ + γ = 400.
	if got := g.longestPath(); got != 400 {
		t.Fatalf("longest path = %v, want 400", got)
	}
	// SSA labels on nodes (paper's Figure 3 labels, 0-indexed qubits).
	if c.Labels()[3] != "q3q4" {
		t.Fatalf("node 3 label = %q", c.Labels()[3])
	}
}

// paperTime is the parallel time the paper's graph gives: its longest
// path, or the latency of an isolated gate (one no edge touches) when
// that is longer. It also returns how many gates were isolated.
func paperTime(c *circuit.Circuit, l *ti.Layout, lat Latencies) (float64, int) {
	g := newPaperGraph(c, l, lat)
	best := g.longestPath()
	touched := make([]bool, c.NumGates())
	for _, e := range g.edges {
		touched[e[0]], touched[e[1]] = true, true
	}
	isolated := 0
	for _, gate := range c.Gates() {
		if !touched[gate.ID] {
			isolated++
			if lt := lat.GateLatency(gate, l); lt > best {
				best = lt
			}
		}
	}
	return best, isolated
}

func TestParallelMatchesGraphLongestPath(t *testing.T) {
	// Property: the finish-time recurrence equals the paper's
	// edge-weighted longest path bit for bit, except that a gate with no
	// dependency edge at all (an isolated gate) counts its own latency.
	// Small circuits over legal pairs, then larger random circuits over
	// any pairs on a shuffled layout, each at a random α.
	r := rand.New(rand.NewSource(77))
	isolated := 0
	check := func(tag string, c *circuit.Circuit, l *ti.Layout) {
		t.Helper()
		lat := DefaultLatencies()
		lat.WeakPenalty = 1 + float64(r.Intn(9))*0.125
		want, iso := paperTime(c, l, lat)
		isolated += iso
		if got := ParallelTime(c, l, lat); got != want {
			t.Fatalf("%s: recurrence %v, graph %v", tag, got, want)
		}
	}
	for trial := 0; trial < 100; trial++ {
		n := 4 + r.Intn(12)
		d, err := ti.NewDevice(4, (n+3)/4, ti.Ring)
		if err != nil {
			t.Fatal(err)
		}
		chains := make([][]int, d.NumChains())
		for q := 0; q < n; q++ {
			chains[q/4] = append(chains[q/4], q)
		}
		l, err := ti.NewLayout(d, chains)
		if err != nil {
			t.Fatal(err)
		}
		c := circuit.New("rand", n)
		pairs := l.LegalPairs()
		for k := 0; k < r.Intn(30); k++ {
			if r.Intn(4) == 0 {
				c.X(r.Intn(n))
			} else {
				p := pairs[r.Intn(len(pairs))]
				c.CX(p[0], p[1])
			}
		}
		check(fmt.Sprintf("legal trial %d", trial), c, l)
	}
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(40)
		c, err := workload.RandomCircuit(n, r.Intn(300), r.Float64(), int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		d, err := ti.DeviceFor(n, 4+r.Intn(13), ti.Ring)
		if err != nil {
			t.Fatal(err)
		}
		chains := make([][]int, d.NumChains())
		for k, q := range r.Perm(n) {
			chains[k/d.ChainLength()] = append(chains[k/d.ChainLength()], q)
		}
		l, err := ti.NewLayout(d, chains)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("random trial %d", trial), c, l)
	}
	if isolated == 0 {
		t.Fatal("no trial had an isolated gate")
	}
}

func TestParallelNeverExceedsSerial(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	lat := DefaultLatencies()
	for trial := 0; trial < 100; trial++ {
		n := 4 + r.Intn(20)
		d, _ := ti.NewDevice(8, (n+7)/8, ti.Ring)
		chains := make([][]int, d.NumChains())
		for q := 0; q < n; q++ {
			chains[q/8] = append(chains[q/8], q)
		}
		l, _ := ti.NewLayout(d, chains)
		c := circuit.New("rand", n)
		pairs := l.LegalPairs()
		for k := 0; k < 1+r.Intn(40); k++ {
			if r.Intn(3) == 0 {
				c.X(r.Intn(n))
			} else {
				p := pairs[r.Intn(len(pairs))]
				c.CX(p[0], p[1])
			}
		}
		s := SerialTimePerGate(c, l, lat)
		p := ParallelTime(c, l, lat)
		if p > s+1e-9 {
			t.Fatalf("trial %d: parallel %v > per-gate serial %v", trial, p, s)
		}
		// Eq. 1–2's serial time uses w = links used, so it can fall below
		// the per-gate worst case but never above it.
		if eq := SerialTime(c, l, lat); eq > s+1e-9 {
			t.Fatalf("trial %d: Eq.1-2 serial %v exceeds per-gate serial %v", trial, eq, s)
		}
		if c.NumGates() > 0 && p <= 0 {
			t.Fatalf("trial %d: non-empty circuit has parallel time %v", trial, p)
		}
	}
}

func TestFullySerialChainEqualsSerialModel(t *testing.T) {
	// A circuit where every gate depends on the previous one (all gates on
	// the same pair) has no parallelism: parallel == serial.
	d, _ := ti.NewDevice(4, 1, ti.Ring)
	l, _ := ti.NewLayout(d, [][]int{{0, 1}})
	c := circuit.New("serial", 2)
	for i := 0; i < 10; i++ {
		c.CX(0, 1)
	}
	lat := DefaultLatencies()
	s, p := SerialTime(c, l, lat), ParallelTime(c, l, lat)
	if s != p || s != 1000 {
		t.Fatalf("serial=%v parallel=%v, want both 1000", s, p)
	}
}

func TestSerialModelsDivergeOnRepeatedWeakGates(t *testing.T) {
	// Ten gates across the same weak link: Eq. 1–2 charges α·γ once
	// (w = 1 link used), the per-gate model charges every crossing, and
	// the parallel model — fully serialized on the shared qubits —
	// matches the per-gate time.
	d, _ := ti.NewDevice(2, 2, ti.Line)
	l, _ := ti.NewLayout(d, [][]int{{0, 1}, {2, 3}})
	c := circuit.New("weak-chain", 4)
	for i := 0; i < 10; i++ {
		c.CX(1, 2)
	}
	lat := DefaultLatencies()
	if eq := SerialTime(c, l, lat); eq != 1*200+9*100 {
		t.Fatalf("Eq.1-2 serial = %v, want 1100 (w = 1 link)", eq)
	}
	if pg := SerialTimePerGate(c, l, lat); pg != 2000 {
		t.Fatalf("per-gate serial = %v, want 2000", pg)
	}
	if p := ParallelTime(c, l, lat); p != 2000 {
		t.Fatalf("parallel = %v, want 2000 (no parallelism available)", p)
	}
}

func TestLinksUsedAdjacencyOnly(t *testing.T) {
	// Four single-qubit chains in a line. A gate between the end chains
	// is multi-hop: it marks no link (w counts direct link usage only,
	// keeping Eq. 1-2 below the per-gate bound); an adjacent-chain gate
	// marks exactly one.
	d, _ := ti.NewDevice(1, 4, ti.Line)
	l, _ := ti.NewLayout(d, [][]int{{0}, {1}, {2}, {3}})
	c := circuit.New("far", 4)
	c.CX(0, 3)
	if got := LinksUsed(c, l); got != 0 {
		t.Fatalf("LinksUsed = %d, want 0 for a non-adjacent pair", got)
	}
	lat := DefaultLatencies()
	if eq := SerialTime(c, l, lat); eq != 100 {
		t.Fatalf("serial = %v, want 100 (w = 0)", eq)
	}
	// The per-gate model still charges the cross-chain penalty.
	if pg := SerialTimePerGate(c, l, lat); pg != 200 {
		t.Fatalf("per-gate serial = %v, want 200", pg)
	}
	c.CX(1, 2) // adjacent chains: marks the single joining link
	if got := LinksUsed(c, l); got != 1 {
		t.Fatalf("LinksUsed = %d, want 1 after adjacent gate", got)
	}
	// Two-chain ring: both links join the same pair, but one gate marks
	// only one link, keeping w below the cross-gate count.
	d2, _ := ti.NewDevice(1, 2, ti.Ring)
	l2, _ := ti.NewLayout(d2, [][]int{{0}, {1}})
	c2 := circuit.New("pair", 2)
	c2.CX(0, 1)
	if got := LinksUsed(c2, l2); got != 1 {
		t.Fatalf("2-chain ring LinksUsed = %d, want 1", got)
	}
}

func TestWeakGatesAndLinksUsed(t *testing.T) {
	c, l := fig3(t)
	if w := WeakGates(c, l); w != 1 {
		t.Errorf("WeakGates = %d, want 1", w)
	}
	if u := LinksUsed(c, l); u != 1 {
		t.Errorf("LinksUsed = %d, want 1", u)
	}
	// Repeat the weak-link gate: w counts gates, links used stays 1.
	c.CX(3, 4)
	if w := WeakGates(c, l); w != 2 {
		t.Errorf("WeakGates after repeat = %d, want 2", w)
	}
	if u := LinksUsed(c, l); u != 1 {
		t.Errorf("LinksUsed after repeat = %d, want 1", u)
	}
}

func TestEvaluateFig3(t *testing.T) {
	c, l := fig3(t)
	res, err := Evaluate(c, l, DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	if res.SerialMicros != 700 || res.ParallelMicros != 400 {
		t.Fatalf("result = %+v", res)
	}
	if math.Abs(res.Speedup()-1.75) > 1e-9 {
		t.Fatalf("speedup = %v, want 1.75", res.Speedup())
	}
	if res.WeakGates != 1 || res.LinksUsed != 1 {
		t.Fatalf("weak stats = %d/%d", res.WeakGates, res.LinksUsed)
	}
	want := []string{"q2q3", "q3q4", "q4q5"}
	// Critical path is q3q4 → q4q5 → q5q6 (0-indexed labels).
	if len(res.CriticalPath) != 3 || res.CriticalPath[0] != "q2q3" {
		// q3q4 in 1-indexed naming is "q2q3" in 0-indexed labels.
		t.Fatalf("critical path = %v, want %v", res.CriticalPath, want)
	}
}

func TestEvaluateValidates(t *testing.T) {
	c, l := fig3(t)
	if _, err := Evaluate(c, l, Latencies{OneQubit: 1, TwoQubit: 100, WeakPenalty: 0}); err == nil {
		t.Fatalf("invalid latencies should fail")
	}
	big := circuit.New("big", 50)
	if _, err := Evaluate(big, l, DefaultLatencies()); err == nil {
		t.Fatalf("circuit wider than layout should fail")
	}
}

func TestEvaluateEmptyCircuit(t *testing.T) {
	d, _ := ti.NewDevice(4, 1, ti.Ring)
	l, _ := ti.NewLayout(d, [][]int{{0}})
	c := circuit.New("empty", 1)
	res, err := Evaluate(c, l, DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	if res.SerialMicros != 0 || res.ParallelMicros != 0 || res.Speedup() != 1 {
		t.Fatalf("empty result = %+v", res)
	}
	if res.CriticalPath != nil {
		t.Fatalf("empty circuit should have nil critical path")
	}
}

func TestCriticalPathOrderingAndMembership(t *testing.T) {
	c, l := fig3(t)
	lat := DefaultLatencies()
	path := CriticalPath(c, l, lat)
	// Path must be q3q4 (label "q2q3"), q4q5 ("q3q4"), q5q6 ("q4q5").
	want := []string{"q2q3", "q3q4", "q4q5"}
	if !reflect.DeepEqual(path, want) {
		t.Fatalf("critical path = %v, want %v", path, want)
	}
}

func TestAlphaOneRemovesWeakPenalty(t *testing.T) {
	c, l := fig3(t)
	lat := Latencies{OneQubit: 1, TwoQubit: 100, WeakPenalty: 1}
	// With α=1 every 2q gate costs γ; serial = 6γ = 600.
	if got := SerialTime(c, l, lat); got != 600 {
		t.Fatalf("serial @α=1 = %v, want 600", got)
	}
	if got := ParallelTime(c, l, lat); got != 300 {
		t.Fatalf("parallel @α=1 = %v, want 300 ((1+1)γ+γ)", got)
	}
}

func TestSpeedupZeroParallel(t *testing.T) {
	r := Result{SerialMicros: 10, ParallelMicros: 0}
	if r.Speedup() != 0 {
		t.Fatalf("degenerate speedup = %v", r.Speedup())
	}
}

func TestGraphDOTHasStartNodes(t *testing.T) {
	c, l := fig3(t)
	dot := GateGraphDOT("fig3", c, l, DefaultLatencies())
	if n := strings.Count(dot, "doublecircle"); n != 3 {
		t.Fatalf("DOT should mark 3 start nodes, got %d", n)
	}
	// Every edge of the paper's graph appears once, weighted as §IV-C
	// weighs it.
	g := newPaperGraph(c, l, DefaultLatencies())
	if n := strings.Count(dot, " -> "); n != len(g.edges) {
		t.Fatalf("DOT has %d edges, the gate graph %d", n, len(g.edges))
	}
	if !strings.Contains(dot, `n1 -> n3 [label="300"];`) {
		t.Fatalf("DOT lacks the weak edge q3q4→q4q5 at 300:\n%s", dot)
	}
}
