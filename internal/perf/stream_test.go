package perf

// Internal tests: the window-boundary adversarial cases drive the stream
// driver at tiny windows, and the shuttle streaming path is driven through
// TransportCosts directly (importing internal/shuttle here would cycle).
// The cross-package equivalence suite — every workload generator, both
// named backends, the core wiring — lives in the core and e2e test
// packages.

import (
	"math/rand"
	"reflect"
	"testing"

	"velociti/internal/apps"
	"velociti/internal/circuit"
	"velociti/internal/stats"
	"velociti/internal/ti"
	"velociti/internal/workload"
)

// placeShuffled builds a layout directly through ti.NewLayout (this
// internal test cannot import internal/placement: its annealer imports
// perf): a seeded permutation dealt round-robin across the device's
// chains, so cross-chain gates land on varied weak links.
func placeShuffled(t *testing.T, d *ti.Device, n int, r *rand.Rand) *ti.Layout {
	t.Helper()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	if r != nil {
		r.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	}
	chains := make([][]int, d.NumChains())
	for i, q := range perm {
		c := i % len(chains)
		chains[c] = append(chains[c], q)
	}
	l, err := ti.NewLayout(d, chains)
	if err != nil {
		t.Fatalf("NewLayout: %v", err)
	}
	return l
}

// streamPrograms returns every streaming-capable workload generator the
// equivalence property is pinned on: the six Table II applications, GHZ,
// the gate-level random workload, and the adversarial tiny programs
// (zero-gate, single-gate, single-qubit-register).
func streamPrograms(t *testing.T) []circuit.Program {
	t.Helper()
	var out []circuit.Program
	for _, a := range apps.Catalog() {
		p, err := a.Program()
		if err != nil {
			t.Fatalf("%s: Program: %v", a.Name(), err)
		}
		out = append(out, p)
	}
	ghz, err := apps.GHZProgram(9)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := workload.RandomCircuitProgram(17, 400, 0.4, 7)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, ghz, rnd,
		circuit.Program{Name: "empty", Qubits: 3, Body: func(circuit.Builder) {}},
		circuit.Program{Name: "one1q", Qubits: 2, Body: func(b circuit.Builder) { b.H(1) }},
		circuit.Program{Name: "one2q", Qubits: 2, Body: func(b circuit.Builder) { b.CX(0, 1) }},
		circuit.Program{Name: "narrow", Qubits: 1, Body: func(b circuit.Builder) { b.H(0); b.T(0); b.X(0) }},
	)
	return out
}

func streamLats(alphas ...float64) []Latencies {
	lats := make([]Latencies, len(alphas))
	for i, a := range alphas {
		lats[i] = DefaultLatencies()
		lats[i].WeakPenalty = a
	}
	return lats
}

// stripPaths clears the critical paths of materialized results: the one
// documented divergence of the streaming path (perf/stream.go).
func stripPaths(rs []Result) []Result {
	out := append([]Result(nil), rs...)
	for i := range out {
		out[i].CriticalPath = nil
	}
	return out
}

// streamAt prices src through the stream driver with the given window;
// window 0 goes through the public entry points (and their window).
func streamAt(src circuit.Source, l *ti.Layout, costs *TransportCosts, lats []Latencies, window int) ([]Result, StreamStats, error) {
	switch {
	case window > 0:
		return streamPrice(src, l, lats, costs, window)
	case costs != nil:
		return StreamTransportAll(src, l, *costs, lats)
	default:
		return StreamTimeAll(src, l, lats)
	}
}

// checkStream pins both streaming paths against their materialized twins
// for one program and layout, folding window gates at a time (0: the
// production window).
func checkStream(t *testing.T, tag string, p circuit.Program, l *ti.Layout, lats []Latencies, window int) {
	t.Helper()
	c, err := p.Circuit()
	if err != nil {
		t.Fatalf("%s: Circuit: %v", tag, err)
	}
	e := NewEvaluator(c)
	b, err := e.Bind(l)
	if err != nil {
		t.Fatalf("%s: Bind: %v", tag, err)
	}

	want, err := b.TimeAll(lats)
	if err != nil {
		t.Fatalf("%s: TimeAll: %v", tag, err)
	}
	got, st, err := streamAt(p.Source(), l, nil, lats, window)
	if err != nil {
		t.Fatalf("%s: StreamTimeAll: %v", tag, err)
	}
	if !reflect.DeepEqual(got, stripPaths(want)) {
		t.Fatalf("%s: streaming weak-link results diverge\n got %+v\nwant %+v", tag, got, stripPaths(want))
	}
	checkStreamStats(t, tag, st, c)

	costs := TransportCosts{SplitMicros: 80, MovePerHopMicros: 12.5, MergeMicros: 80, RecoolMicros: 360}
	if err := b.AttachTransport(l, costs); err != nil {
		t.Fatalf("%s: AttachTransport: %v", tag, err)
	}
	wantT, err := b.TimeAll(lats)
	if err != nil {
		t.Fatalf("%s: TimeAll under transport: %v", tag, err)
	}
	gotT, stT, err := streamAt(p.Source(), l, &costs, lats, window)
	if err != nil {
		t.Fatalf("%s: StreamTransportAll: %v", tag, err)
	}
	if !reflect.DeepEqual(gotT, stripPaths(wantT)) {
		t.Fatalf("%s: streaming shuttle results diverge\n got %+v\nwant %+v", tag, gotT, stripPaths(wantT))
	}
	checkStreamStats(t, tag, stT, c)

	// The materialized adapter must stream identically to the generator.
	gotC, stC, err := streamAt(c.Source(), l, nil, lats, window)
	if err != nil {
		t.Fatalf("%s: StreamTimeAll(circuit): %v", tag, err)
	}
	if !reflect.DeepEqual(gotC, got) || stC != st {
		t.Fatalf("%s: circuit-adapter stream diverges from generator stream", tag)
	}
}

func checkStreamStats(t *testing.T, tag string, st StreamStats, c *circuit.Circuit) {
	t.Helper()
	if st.Gates != c.NumGates() || st.OneQubitGates != c.NumOneQubitGates() || st.TwoQubitGates != c.NumTwoQubitGates() {
		t.Fatalf("%s: stream counts (%d, %d, %d) != circuit (%d, %d, %d)",
			tag, st.Gates, st.OneQubitGates, st.TwoQubitGates,
			c.NumGates(), c.NumOneQubitGates(), c.NumTwoQubitGates())
	}
}

// TestStreamMatchesMaterialized is the central property: for every
// workload generator, both timing kernels, and lane counts 1 and 4, the
// streaming path equals the materialized path bit for bit (critical path
// excepted) and counts the circuit's gates.
func TestStreamMatchesMaterialized(t *testing.T) {
	for _, p := range streamPrograms(t) {
		r := stats.NewRand(42)
		chains := 6
		if p.Qubits < 6 {
			chains = p.Qubits
		}
		d, err := ti.DeviceFor(p.Qubits, (p.Qubits+chains-1)/chains, ti.Ring)
		if err != nil {
			t.Fatalf("%s: DeviceFor: %v", p.Name, err)
		}
		l := placeShuffled(t, d, p.Qubits, r)
		checkStream(t, p.Name+"/lanes=1", p, l, streamLats(2.0), 0)
		checkStream(t, p.Name+"/lanes=4", p, l, streamLats(2.0, 1.5, 1.2, 1.0), 0)
	}
}

// TestStreamChunkBoundaries is the adversarial window test: with the
// window shrunk to a handful of gates, dependencies straddle every window
// edge and the frontier hand-off is exercised constantly; results must
// not move. Window size 1 degenerates to gate-at-a-time evaluation.
func TestStreamChunkBoundaries(t *testing.T) {
	rnd, err := workload.RandomCircuitProgram(11, 257, 0.35, 3)
	if err != nil {
		t.Fatal(err)
	}
	qft, err := apps.QFTProgram(10)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []circuit.Program{
		rnd, qft,
		{Name: "empty", Qubits: 2, Body: func(circuit.Builder) {}},
		{Name: "single", Qubits: 2, Body: func(b circuit.Builder) { b.CX(1, 0) }},
	} {
		r := stats.NewRand(5)
		d, err := ti.DeviceFor(p.Qubits, 3, ti.Line)
		if err != nil {
			t.Fatalf("%s: DeviceFor: %v", p.Name, err)
		}
		l := placeShuffled(t, d, p.Qubits, r)
		for _, window := range []int{1, 2, 3, 7, 64, streamWindow} {
			checkStream(t, p.Name, p, l, streamLats(1.9, 1.0), window)
		}
	}
}

// TestStreamRejectsOversizedRegister pins the qubit-count check against
// Bind's diagnostic.
func TestStreamRejectsOversizedRegister(t *testing.T) {
	d, err := ti.DeviceFor(4, 4, ti.Ring)
	if err != nil {
		t.Fatal(err)
	}
	l := placeShuffled(t, d, 4, nil)
	p := circuit.Program{Name: "wide", Qubits: 9, Body: func(b circuit.Builder) { b.H(8) }}
	if _, _, err := StreamTimeAll(p.Source(), l, streamLats(1.5)); err == nil {
		t.Fatal("oversized register accepted")
	}
}
