package circuit_test

// The streamed-fingerprint contract: a Program's gates folded through
// FingerprintAccum as its Source emits them must sum to the materialized
// circuit's Fingerprint. core keys a streamed Program's cache entries on
// that sum, so stream pricing need not hash at all.

import (
	"testing"

	"velociti/internal/apps"
	"velociti/internal/circuit"
	"velociti/internal/workload"
)

// fingerprintPrograms returns every Program generator — the six Table II
// applications, GHZ and the gate-level random workload — plus the edge
// shapes: no gates, one gate of each arity, and a one-qubit register.
func fingerprintPrograms(t *testing.T) []circuit.Program {
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
	return append(out, ghz, rnd,
		circuit.Program{Name: "empty", Qubits: 3, Body: func(circuit.Builder) {}},
		circuit.Program{Name: "one1q", Qubits: 2, Body: func(b circuit.Builder) { b.H(1) }},
		circuit.Program{Name: "one2q", Qubits: 2, Body: func(b circuit.Builder) { b.CX(0, 1) }},
		circuit.Program{Name: "narrow", Qubits: 1, Body: func(b circuit.Builder) { b.H(0); b.T(0); b.X(0) }},
	)
}

// streamFingerprint hashes src gate by gate as it is emitted.
func streamFingerprint(t *testing.T, src circuit.Source) uint64 {
	t.Helper()
	acc := circuit.NewFingerprintAccum(src.Name, src.Qubits)
	if err := src.Emit(func(g *circuit.Gate) error { acc.AddGate(g); return nil }); err != nil {
		t.Fatalf("%s: Emit: %v", src.Name, err)
	}
	return acc.Sum()
}

// TestStreamedFingerprintMatchesCircuit: for every generator, the
// accumulator over Program.Source() equals Program.Circuit().Fingerprint(),
// and so does the accumulator over the materialized circuit's Source.
// Distinct programs hash apart.
func TestStreamedFingerprintMatchesCircuit(t *testing.T) {
	seen := map[uint64]string{}
	for _, p := range fingerprintPrograms(t) {
		c, err := p.Circuit()
		if err != nil {
			t.Fatalf("%s: Circuit: %v", p.Name, err)
		}
		want := c.Fingerprint()
		if got := streamFingerprint(t, p.Source()); got != want {
			t.Fatalf("%s: streamed fingerprint %016x != materialized %016x", p.Name, got, want)
		}
		if got := streamFingerprint(t, c.Source()); got != want {
			t.Fatalf("%s: circuit-source fingerprint %016x != materialized %016x", p.Name, got, want)
		}
		if other, dup := seen[want]; dup {
			t.Fatalf("%s and %s share fingerprint %016x", p.Name, other, want)
		}
		seen[want] = p.Name
	}
}
