// Corpus tests: realistic OpenQASM files parsed end to end, with
// functional checks through the state-vector simulator where the program's
// semantics are known. External test package so statevec can be imported.
package qasm_test

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"velociti/internal/qasm"
	"velociti/internal/statevec"
)

func parseCorpus(t *testing.T, name string) *qasm.Result {
	t.Helper()
	res, err := qasm.ParseFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

func TestCorpusBell(t *testing.T) {
	res := parseCorpus(t, "bell.qasm")
	c := res.Circuit
	if c.NumQubits() != 2 || c.NumGates() != 2 || res.Measurements != 2 {
		t.Fatalf("bell shape: %v, %d measurements", c.Spec(), res.Measurements)
	}
	s, err := statevec.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Probability(0)-0.5) > 1e-9 || math.Abs(s.Probability(3)-0.5) > 1e-9 {
		t.Fatalf("bell state wrong: %v %v", s.Probability(0), s.Probability(3))
	}
}

func TestCorpusGrover3(t *testing.T) {
	res := parseCorpus(t, "grover3.qasm")
	c := res.Circuit
	if c.NumQubits() != 3 {
		t.Fatalf("width = %d", c.NumQubits())
	}
	// Two ccz = 2 ccx expansions → 12 CX.
	if got := c.NumTwoQubitGates(); got != 12 {
		t.Fatalf("2q gates = %d, want 12", got)
	}
	s, err := statevec.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	// One Grover iteration over 8 items: success probability 25/32.
	if p := s.Probability(0b111); math.Abs(p-25.0/32.0) > 1e-9 {
		t.Fatalf("P(|111>) = %v, want %v", p, 25.0/32.0)
	}
}

func TestCorpusVariational(t *testing.T) {
	res := parseCorpus(t, "variational.qasm")
	c := res.Circuit
	if c.NumQubits() != 4 || res.Barriers != 2 || res.Measurements != 4 {
		t.Fatalf("shape: %v, barriers %d, measurements %d", c.Spec(), res.Barriers, res.Measurements)
	}
	// 4 layer applications × 2 CX each.
	if got := c.NumTwoQubitGates(); got != 8 {
		t.Fatalf("2q gates = %d, want 8", got)
	}
	s, err := statevec.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Norm()-1) > 1e-9 {
		t.Fatalf("norm = %v", s.Norm())
	}
}

func TestCorpusAdder4ComputesSum(t *testing.T) {
	res := parseCorpus(t, "adder4.qasm")
	c := res.Circuit
	// Registers flatten as cin[1], a[4], b[4], cout[1] → 10 qubits.
	if c.NumQubits() != 10 {
		t.Fatalf("width = %d", c.NumQubits())
	}
	if res.Measurements != 5 {
		t.Fatalf("measurements = %d", res.Measurements)
	}
	s, err := statevec.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	// a=0001 (1), b=1111 (15): sum 16 → b register 0000, carry-out 1.
	// Qubit layout: cin=0, a=1..4, b=5..8, cout=9.
	var want uint64
	want |= 1 << 1 // a[0] preserved
	want |= 1 << 9 // carry out
	if p := s.Probability(want); math.Abs(p-1) > 1e-6 {
		t.Fatalf("P(expected adder state) = %v", p)
	}
}

func TestCorpusRoundTripsThroughSerializer(t *testing.T) {
	for _, name := range []string{"bell.qasm", "grover3.qasm", "variational.qasm", "adder4.qasm"} {
		res := parseCorpus(t, name)
		text := qasm.Serialize(res.Circuit)
		again, err := qasm.ParseCircuit(name, text)
		if err != nil {
			t.Fatalf("%s: reserialize failed: %v", name, err)
		}
		if again.NumGates() != res.Circuit.NumGates() {
			t.Fatalf("%s: gate count changed %d → %d", name, res.Circuit.NumGates(), again.NumGates())
		}
	}
}

func TestIncludeResolution(t *testing.T) {
	res := parseCorpus(t, "uses_include.qasm")
	c := res.Circuit
	// triple = bellpair (h + cx) + cx → 3 gates.
	if c.NumGates() != 3 || c.NumTwoQubitGates() != 2 {
		t.Fatalf("included gates expanded wrong: %v", c.Spec())
	}
	s, err := statevec.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	// GHZ-like state over 3 qubits.
	if math.Abs(s.Probability(0)-0.5) > 1e-9 || math.Abs(s.Probability(7)-0.5) > 1e-9 {
		t.Fatalf("included circuit state wrong")
	}
}

func TestIncludeErrors(t *testing.T) {
	// Missing include file.
	if _, err := qasm.ParseReaderWithIncludes("t", strings.NewReader(`include "nope.inc"; qreg q[1];`),
		func(string) (string, error) { return "", os.ErrNotExist }); err == nil {
		t.Fatalf("missing include should fail")
	}
	// Include cycle.
	loader := func(name string) (string, error) {
		return `include "self.inc";`, nil
	}
	if _, err := qasm.ParseReaderWithIncludes("t", strings.NewReader(`include "self.inc"; qreg q[1];`), loader); err == nil {
		t.Fatalf("include cycle should fail")
	}
	// Nil resolver rejects non-qelib includes (Parse path).
	if _, err := qasm.Parse("t", `include "other.inc"; qreg q[1];`); err == nil {
		t.Fatalf("nil resolver should reject includes")
	}
}

// The built-in qelib1 composite definitions must implement the unitaries
// they claim. Each case prepares basis or superposition inputs and checks
// the state the composite produces against first principles.
func TestQelibCompositeSemantics(t *testing.T) {
	run := func(src string) *statevec.State {
		t.Helper()
		res, err := qasm.Parse("t", src)
		if err != nil {
			t.Fatal(err)
		}
		s, err := statevec.Run(res.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// cswap: |1⟩⊗|10⟩ → |1⟩⊗|01⟩ (control q0, swap q1 and q2).
	s := run(`qreg q[3]; x q[0]; x q[1]; cswap q[0],q[1],q[2];`)
	if p := s.Probability(0b101); math.Abs(p-1) > 1e-9 {
		t.Fatalf("cswap: P(|101>) = %v", p)
	}
	// cswap without control set: no swap.
	s = run(`qreg q[3]; x q[1]; cswap q[0],q[1],q[2];`)
	if p := s.Probability(0b010); math.Abs(p-1) > 1e-9 {
		t.Fatalf("cswap (control off): P(|010>) = %v", p)
	}

	// cy: control on → Y on target: |11⟩ with amplitude i.
	s = run(`qreg q[2]; x q[0]; cy q[0],q[1];`)
	a := s.Amplitude(0b11)
	if math.Abs(real(a)) > 1e-9 || math.Abs(imag(a)-1) > 1e-9 {
		t.Fatalf("cy: amplitude = %v, want i", a)
	}

	// ch: control off → identity.
	s = run(`qreg q[2]; ch q[0],q[1];`)
	if p := s.Probability(0); math.Abs(p-1) > 1e-9 {
		t.Fatalf("ch (control off): P(|00>) = %v", p)
	}
	// ch: control on → H on target: equal probabilities.
	s = run(`qreg q[2]; x q[0]; ch q[0],q[1];`)
	if p1, p3 := s.Probability(0b01), s.Probability(0b11); math.Abs(p1-0.5) > 1e-9 || math.Abs(p3-0.5) > 1e-9 {
		t.Fatalf("ch (control on): P = %v, %v", p1, p3)
	}

	// crz: phases e^{∓iλ/2} on the target conditioned on control=1.
	// Prepare control=1, target in |+>, apply crz(pi), expect |-> up to
	// global phase: probability of target=0 stays 1/2 and interference
	// with an H reveals the phase flip.
	s = run(`qreg q[2]; x q[0]; h q[1]; crz(pi) q[0],q[1]; h q[1];`)
	if p := s.Probability(0b11); math.Abs(p-1) > 1e-9 {
		t.Fatalf("crz(pi) should flip |+> to |->: P(|11>) = %v", p)
	}

	// cu1(λ) equals the native cp(λ): compare state fidelity.
	res1, err := qasm.Parse("a", `qreg q[2]; h q[0]; h q[1]; cu1(pi/3) q[0],q[1];`)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := qasm.Parse("b", `qreg q[2]; h q[0]; h q[1]; cp(pi/3) q[0],q[1];`)
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := statevec.Run(res1.Circuit)
	s2, _ := statevec.Run(res2.Circuit)
	fid, err := s1.Fidelity(s2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fid-1) > 1e-9 {
		t.Fatalf("cu1 vs cp fidelity = %v", fid)
	}

	// cu3(θ,0,0) with control on acts as RY(θ): P(target=1) = sin²(θ/2).
	s = run(`qreg q[2]; x q[0]; cu3(pi/3,0,0) q[0],q[1];`)
	want := math.Pow(math.Sin(math.Pi/6), 2)
	got := s.MarginalProbability(0b10, 0b10)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("cu3: P(target=1) = %v, want %v", got, want)
	}
	// cu3 with control off: identity.
	s = run(`qreg q[2]; cu3(pi/3,0.4,0.9) q[0],q[1];`)
	if p := s.Probability(0); math.Abs(p-1) > 1e-9 {
		t.Fatalf("cu3 (control off): P(|00>) = %v", p)
	}

	// u(θ,φ,λ) is u3; p(λ) is u1.
	res1, _ = qasm.Parse("a", `qreg q[1]; u(1.1,0.2,0.3) q[0];`)
	res2, _ = qasm.Parse("b", `qreg q[1]; u3(1.1,0.2,0.3) q[0];`)
	s1, _ = statevec.Run(res1.Circuit)
	s2, _ = statevec.Run(res2.Circuit)
	if fid, _ := s1.Fidelity(s2); math.Abs(fid-1) > 1e-9 {
		t.Fatalf("u vs u3 fidelity = %v", fid)
	}
}
