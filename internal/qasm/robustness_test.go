package qasm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"velociti/internal/verr"
)

// The parser must never panic: any input yields a circuit or an error.
// These tests throw random byte soup and mutated valid programs at it.

func parseNeverPanics(t *testing.T, src string) {
	t.Helper()
	defer func() {
		if rec := recover(); rec != nil {
			t.Fatalf("parser panicked: %v\ninput: %q", rec, src)
		}
	}()
	_, _ = Parse("fuzz", src)
}

func TestParserSurvivesRandomBytes(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		n := r.Intn(200)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.Intn(128))
		}
		parseNeverPanics(t, string(b))
	}
}

func TestParserSurvivesTokenSoup(t *testing.T) {
	tokens := []string{
		"OPENQASM", "2.0", "include", "\"qelib1.inc\"", "qreg", "creg",
		"gate", "measure", "barrier", "reset", "opaque", "if", "pi",
		"q", "c", "h", "cx", "rz", "ccx", "u1", "[", "]", "(", ")", "{",
		"}", ";", ",", "->", "==", "+", "-", "*", "/", "^", "0", "1",
		"5", "0.5", "1e3",
	}
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 500; trial++ {
		var b strings.Builder
		for i := 0; i < r.Intn(60); i++ {
			b.WriteString(tokens[r.Intn(len(tokens))])
			b.WriteByte(' ')
		}
		parseNeverPanics(t, b.String())
	}
}

func TestParserSurvivesMutatedValidPrograms(t *testing.T) {
	base := `OPENQASM 2.0;
include "qelib1.inc";
gate pair(theta) a,b { cx a,b; rz(theta) b; cx a,b; }
qreg q[4];
creg c[4];
h q;
pair(pi/2) q[0],q[1];
ccx q[0],q[1],q[2];
barrier q;
measure q -> c;
`
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 500; trial++ {
		b := []byte(base)
		for k := 0; k < 1+r.Intn(6); k++ {
			switch r.Intn(3) {
			case 0: // flip a byte
				b[r.Intn(len(b))] = byte(r.Intn(128))
			case 1: // delete a byte
				i := r.Intn(len(b))
				b = append(b[:i], b[i+1:]...)
			default: // duplicate a span
				i := r.Intn(len(b))
				j := i + r.Intn(len(b)-i)
				b = append(b[:j], append([]byte(string(b[i:j])), b[j:]...)...)
			}
			if len(b) == 0 {
				b = []byte(";")
			}
		}
		parseNeverPanics(t, string(b))
	}
}

func TestParserDeepNestingBounded(t *testing.T) {
	// Deeply nested parenthesized expressions must not blow the stack
	// unreasonably and must parse or fail cleanly.
	depth := 500
	src := "qreg q[1]; rz(" + strings.Repeat("(", depth) + "1" + strings.Repeat(")", depth) + ") q[0];"
	parseNeverPanics(t, src)
}

func TestParserRecursiveGateDefRejected(t *testing.T) {
	// Mutual recursion through expansion must hit the depth guard, not
	// recurse forever. (Self-reference is use-before-def in OpenQASM, but
	// a definition can name itself textually; the expander must cope.)
	src := `qreg q[2];
gate loop a,b { loop a,b; }
loop q[0],q[1];`
	if _, err := Parse("rec", src); err == nil {
		t.Fatalf("recursive definition should be rejected")
	}
	parseNeverPanics(t, src)
}

func TestParserHugeRegisterRejectedGracefully(t *testing.T) {
	// A preposterous register size must not attempt the allocation path
	// blindly — the circuit is only materialized at finish, and gate
	// references bound-check against the declared size.
	parseNeverPanics(t, "qreg q[999999999999999999999];")
	parseNeverPanics(t, "qreg q[1000000]; x q[999999];")
}

// doublingQASM is a program of levels nested definitions, each applying
// the one below twice, applied once: it expands to 2^levels gates.
func doublingQASM(levels int) string {
	var b strings.Builder
	b.WriteString("OPENQASM 2.0;\nqreg q[1];\ngate g1 a { h a; h a; }\n")
	for i := 2; i <= levels; i++ {
		fmt.Fprintf(&b, "gate g%d a { g%d a; g%d a; }\n", i, i-1, i-1)
	}
	fmt.Fprintf(&b, "g%d q[0];\n", levels)
	return b.String()
}

// parseRejectedUnexpanded asserts src is rejected with the expansion-budget
// error, on the given line, having allocated far less than any expansion
// of the budget's size would.
func parseRejectedUnexpanded(t *testing.T, src string, line int) {
	t.Helper()
	var err error
	allocs := testing.AllocsPerRun(1, func() { _, err = Parse("budget", src) })
	if err == nil || !verr.IsInput(err) {
		t.Fatalf("want an input error, got %v", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, fmt.Sprintf("line %d: gate ", line)) || !strings.Contains(msg, fmt.Sprintf("past %d gates", maxExpandedGates)) {
		t.Fatalf("error %q does not name line %d, the gate and the budget", msg, line)
	}
	if allocs > 10000 {
		t.Fatalf("rejection allocated %.0f times: the program was expanded", allocs)
	}
}

func TestParserExpansionBudget(t *testing.T) {
	// 30 doubling levels ask for 2^30 gates from under a kilobyte.
	parseRejectedUnexpanded(t, doublingQASM(30), 33)
	// So does a broadcast over a register of 2^30 qubits.
	parseRejectedUnexpanded(t, "OPENQASM 2.0;\nqreg q[1073741824];\nh q;\n", 3)
	// An empty definition counts one gate, so broadcasting it is bounded.
	parseRejectedUnexpanded(t, "OPENQASM 2.0;\ngate e a { }\nqreg q[1073741824];\ne q;\n", 4)

	// 18 levels, 262,144 gates, stay well inside the budget.
	res, err := Parse("doubling", doublingQASM(18))
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Circuit.NumGates(); n != 1<<18 {
		t.Fatalf("18 doubling levels expanded to %d gates, want %d", n, 1<<18)
	}
}
