package qasm

import (
	"strings"
	"testing"

	"velociti/internal/verr"
)

// FuzzParse drives the lexer and parser with arbitrary source text. The
// contract under fuzz is the input boundary's: no input may panic, and
// every rejection must be an input-kind diagnostic (verr.ErrInput), never
// a bare internal error. Accepted programs must additionally round-trip
// through Serialize — the emitted QASM reparses to the same circuit shape.
func FuzzParse(f *testing.F) {
	f.Add("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0], q[1];\n")
	f.Add("OPENQASM 2.0;\nqreg q[3];\ncreg c[3];\nrz(pi/2) q[1];\nmeasure q -> c;\n")
	f.Add("OPENQASM 2.0;\nqreg q[2];\ngate foo(t) a, b { rx(t) a; cx a, b; }\nfoo(0.5) q[0], q[1];\n")
	f.Add("OPENQASM 2.0;\nqreg q[1];\nbarrier q;\nreset q[0];\n")
	f.Add("OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[0];\n") // duplicate operand: must be rejected
	f.Add("OPENQASM 2.0;\nqreg q[1];\nh q[7];\n")        // out-of-range index: must be rejected
	f.Add("qreg q[2];\nh q[0];\n")                       // missing version header
	f.Add("")
	f.Add("OPENQASM 2.0;\n\x00\xff")
	f.Add("OPENQASM 2.0;\nqreg q[99999999999999999999];\n")
	f.Add("OPENQASM 2.0;\nqreg q[1];\nrx(" + strings.Repeat("-", maxExprTokens) + "1) q[0];\n") // one token past the expression bound

	f.Fuzz(func(t *testing.T, src string) {
		res, err := Parse("fuzz", src)
		if err != nil {
			if !verr.IsInput(err) {
				t.Fatalf("rejection is not an input-kind error: %v", err)
			}
			return
		}
		emitted := Serialize(res.Circuit)
		back, err := Parse("roundtrip", emitted)
		if err != nil {
			t.Fatalf("accepted program fails to reparse after Serialize: %v\n--- emitted ---\n%s", err, emitted)
		}
		if got, want := back.Circuit.NumGates(), res.Circuit.NumGates(); got != want {
			t.Fatalf("round-trip gate count = %d, want %d\n--- emitted ---\n%s", got, want, emitted)
		}
		if got, want := back.Circuit.NumQubits(), res.Circuit.NumQubits(); got != want {
			t.Fatalf("round-trip qubit count = %d, want %d\n--- emitted ---\n%s", got, want, emitted)
		}
	})
}
