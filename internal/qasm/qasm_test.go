package qasm

import (
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"velociti/internal/apps"
	"velociti/internal/circuit"
	"velociti/internal/verr"
	"velociti/internal/workload"
)

func parse(t *testing.T, src string) *Result {
	t.Helper()
	res, err := Parse("test", src)
	if err != nil {
		t.Fatalf("parse failed: %v\nsource:\n%s", err, src)
	}
	return res
}

func parseErr(t *testing.T, name, src string) {
	t.Helper()
	if _, err := Parse("test", src); err == nil {
		t.Errorf("%s: expected parse error\nsource:\n%s", name, src)
	}
}

func TestParseMinimalProgram(t *testing.T) {
	res := parse(t, `
		OPENQASM 2.0;
		include "qelib1.inc";
		qreg q[2];
		h q[0];
		cx q[0],q[1];
	`)
	c := res.Circuit
	if c.NumQubits() != 2 || c.NumGates() != 2 {
		t.Fatalf("circuit = %v", c.Spec())
	}
	if c.Gate(0).Kind != circuit.H || c.Gate(1).Kind != circuit.CX {
		t.Fatalf("gates = %v", c.Gates())
	}
}

func TestHeaderOptional(t *testing.T) {
	res := parse(t, `qreg q[1]; x q[0];`)
	if res.Circuit.NumGates() != 1 {
		t.Fatalf("gates = %d", res.Circuit.NumGates())
	}
}

func TestVersionRejected(t *testing.T) {
	parseErr(t, "qasm3", `OPENQASM 3.0; qreg q[1];`)
}

func TestMultipleRegistersFlattened(t *testing.T) {
	res := parse(t, `
		qreg a[2];
		qreg b[3];
		cx a[1],b[0];
	`)
	c := res.Circuit
	if c.NumQubits() != 5 {
		t.Fatalf("width = %d", c.NumQubits())
	}
	g := c.Gate(0)
	if g.Qubits[0] != 1 || g.Qubits[1] != 2 {
		t.Fatalf("flattened operands = %v (a[1]→1, b[0]→2)", g.Qubits)
	}
}

func TestBroadcastWholeRegister(t *testing.T) {
	res := parse(t, `
		qreg q[4];
		h q;
	`)
	if res.Circuit.NumGates() != 4 {
		t.Fatalf("broadcast should apply per qubit: %d gates", res.Circuit.NumGates())
	}
}

func TestBroadcastTwoQubit(t *testing.T) {
	res := parse(t, `
		qreg a[3];
		qreg b[3];
		cx a,b;
	`)
	c := res.Circuit
	if c.NumGates() != 3 {
		t.Fatalf("pairwise broadcast: %d gates", c.NumGates())
	}
	for i := 0; i < 3; i++ {
		g := c.Gate(i)
		if g.Qubits[0] != i || g.Qubits[1] != 3+i {
			t.Fatalf("gate %d operands = %v", i, g.Qubits)
		}
	}
}

func TestBroadcastMixedRegAndIndex(t *testing.T) {
	res := parse(t, `
		qreg a[3];
		qreg b[1];
		cx a,b[0];
	`)
	if res.Circuit.NumGates() != 3 {
		t.Fatalf("mixed broadcast: %d gates", res.Circuit.NumGates())
	}
}

func TestBroadcastSizeMismatch(t *testing.T) {
	parseErr(t, "mismatch", `qreg a[2]; qreg b[3]; cx a,b;`)
}

func TestParameterExpressions(t *testing.T) {
	res := parse(t, `
		qreg q[1];
		rz(pi/2) q[0];
		rz(-pi/4) q[0];
		rz(2*pi) q[0];
		rz(pi^2) q[0];
		rz((1+2)*3) q[0];
		rz(1.5e2) q[0];
		rz(cos(0)) q[0];
		rz(sqrt(4)) q[0];
	`)
	want := []float64{math.Pi / 2, -math.Pi / 4, 2 * math.Pi, math.Pi * math.Pi, 9, 150, 1, 2}
	for i, w := range want {
		got := res.Circuit.Gate(i).Params[0]
		if math.Abs(got-w) > 1e-12 {
			t.Errorf("param %d = %v, want %v", i, got, w)
		}
	}
}

func TestExpressionErrors(t *testing.T) {
	parseErr(t, "division by zero", `qreg q[1]; rz(1/0) q[0];`)
	parseErr(t, "unknown identifier", `qreg q[1]; rz(theta) q[0];`)
	parseErr(t, "ln negative", `qreg q[1]; rz(ln(-1)) q[0];`)
}

// TestParamListCommas: OpenQASM 2.0 parameter lists are
// "expr (, expr)*", so a missing or trailing comma is rejected in gate
// applications, gate-definition formals and definition bodies, while an
// empty list, one item and three items parse.
func TestParamListCommas(t *testing.T) {
	for _, src := range []string{
		`qreg q[1]; u3(1 2 3) q[0];`,
		`qreg q[1]; u3(1,2,3,) q[0];`,
		`gate g(a b) x { rx(a) x; } qreg q[1];`,
		`gate g(a,) x { rx(a) x; } qreg q[1];`,
		`gate g(a) x { u3(a a a) x; } qreg q[1];`,
		`gate g(a) x { u3(a,a,a,) x; } qreg q[1];`,
	} {
		parseErr(t, "comma", src)
	}
	for _, src := range []string{
		`gate g() x { h x; } qreg q[1]; g() q[0];`,
		`gate g(a) x { rx(a) x; } qreg q[1]; g(0.5) q[0];`,
		`gate g(a,b,c) x { u3(a,b,c) x; } qreg q[1]; g(1, 2, 3) q[0];`,
	} {
		if got := parse(t, src).Circuit.NumGates(); got != 1 {
			t.Errorf("%s: %d gates, want 1", src, got)
		}
	}
}

// TestExpressionBound: one parameter expression may span maxExprTokens
// tokens. Each shape that recurses in the parser or the evaluator parses
// to the right value at the largest size within the bound, and is
// rejected, naming the line, one token past it.
func TestExpressionBound(t *testing.T) {
	rep := strings.Repeat
	for _, tc := range []struct {
		name      string
		at, past  string // within the bound, and one token past it
		atTokens  int
		wantValue float64
	}{
		// (^k 1 )^k is 2k+1 tokens.
		{"parentheses", rep("(", 511) + "1" + rep(")", 511), rep("(", 512) + "1" + rep(")", 512), 1023, 1},
		// -^k 1 is k+1 tokens.
		{"unary minus", rep("-", 1023) + "1", rep("-", 1024) + "1", 1024, -1},
		// 2 (^1)^n is 2n+1 tokens.
		{"power chain", "2" + rep("^1", 511), "2" + rep("^1", 512), 1023, 2},
		// 1 (+1)^n is 2n+1 tokens.
		{"sum chain", "1" + rep("+1", 511), "1" + rep("+1", 512), 1023, 512},
	} {
		if n := len(lexTexts(t, tc.at)); n != tc.atTokens || n > maxExprTokens {
			t.Fatalf("%s: at-bound expression has %d tokens, want %d", tc.name, n, tc.atTokens)
		}
		if n := len(lexTexts(t, tc.past)); n != maxExprTokens+1 {
			t.Fatalf("%s: past-bound expression has %d tokens, want %d", tc.name, n, maxExprTokens+1)
		}
		res := parse(t, "OPENQASM 2.0;\nqreg q[1];\nrx("+tc.at+") q[0];\n")
		if got := res.Circuit.Gate(0).Params[0]; got != tc.wantValue {
			t.Errorf("%s: value %v, want %v", tc.name, got, tc.wantValue)
		}
		_, err := Parse("test", "OPENQASM 2.0;\nqreg q[1];\nrx("+tc.past+") q[0];\n")
		if err == nil || !verr.IsInput(err) || !strings.Contains(err.Error(), "line 3") {
			t.Errorf("%s: past-bound err = %v, want an input-kind error naming line 3", tc.name, err)
		}
	}
}

func TestQelibCompositeGates(t *testing.T) {
	res := parse(t, `
		qreg q[3];
		ccx q[0],q[1],q[2];
	`)
	c := res.Circuit
	// Standard decomposition: 6 CX + 9 one-qubit gates.
	if c.NumTwoQubitGates() != 6 || c.NumOneQubitGates() != 9 {
		t.Fatalf("ccx expansion: %d 1q, %d 2q", c.NumOneQubitGates(), c.NumTwoQubitGates())
	}
}

func TestUserGateDefinition(t *testing.T) {
	res := parse(t, `
		qreg q[2];
		gate bell a,b { h a; cx a,b; }
		bell q[0],q[1];
		bell q[1],q[0];
	`)
	c := res.Circuit
	if c.NumGates() != 4 {
		t.Fatalf("gates = %d, want 4", c.NumGates())
	}
	if c.Gate(2).Kind != circuit.H || c.Gate(2).Qubits[0] != 1 {
		t.Fatalf("second expansion wrong: %v", c.Gate(2))
	}
}

func TestParameterizedUserGate(t *testing.T) {
	res := parse(t, `
		qreg q[1];
		gate shift(a,b) q { rz(a+b) q; rz(a*b) q; }
		shift(2,3) q[0];
	`)
	c := res.Circuit
	if c.Gate(0).Params[0] != 5 || c.Gate(1).Params[0] != 6 {
		t.Fatalf("substitution wrong: %v %v", c.Gate(0), c.Gate(1))
	}
}

func TestNestedUserGates(t *testing.T) {
	res := parse(t, `
		qreg q[3];
		gate pair a,b { cx a,b; }
		gate chaing a,b,c { pair a,b; pair b,c; }
		chaing q[0],q[1],q[2];
	`)
	if res.Circuit.NumGates() != 2 {
		t.Fatalf("nested expansion: %d gates", res.Circuit.NumGates())
	}
}

func TestUPrimitives(t *testing.T) {
	res := parse(t, `
		qreg q[2];
		U(pi/2,0,pi) q[0];
		CX q[0],q[1];
	`)
	c := res.Circuit
	if c.Gate(0).Kind != circuit.U3 || c.Gate(1).Kind != circuit.CX {
		t.Fatalf("primitives = %v", c.Gates())
	}
}

func TestMeasureBarrierReset(t *testing.T) {
	res := parse(t, `
		qreg q[3];
		creg c[3];
		h q;
		barrier q;
		measure q -> c;
		measure q[0] -> c[0];
		reset q[1];
		reset q;
	`)
	if res.Measurements != 4 {
		t.Errorf("measurements = %d, want 4", res.Measurements)
	}
	if res.Barriers != 1 {
		t.Errorf("barriers = %d, want 1", res.Barriers)
	}
	if res.Resets != 4 {
		t.Errorf("resets = %d, want 4", res.Resets)
	}
	if res.Circuit.NumGates() != 3 {
		t.Errorf("only the h broadcast should produce gates, got %d", res.Circuit.NumGates())
	}
}

func TestMeasureValidation(t *testing.T) {
	parseErr(t, "unknown creg", `qreg q[1]; measure q[0] -> c[0];`)
	parseErr(t, "size mismatch", `qreg q[2]; creg c[3]; measure q -> c;`)
	parseErr(t, "reg to bit", `qreg q[2]; creg c[2]; measure q -> c[0];`)
	parseErr(t, "bit index range", `qreg q[1]; creg c[1]; measure q[0] -> c[5];`)
}

func TestIfRejected(t *testing.T) {
	parseErr(t, "if", `qreg q[1]; creg c[1]; if (c==1) x q[0];`)
}

func TestOpaqueDeclarationAndUse(t *testing.T) {
	res := parse(t, `qreg q[1]; opaque mystery(a,b) x,y; x q[0];`)
	if res.Circuit.NumGates() != 1 {
		t.Fatalf("opaque decl should be skipped")
	}
	parseErr(t, "opaque use", `qreg q[2]; opaque mystery x,y; mystery q[0],q[1];`)
}

func TestCommentsIgnored(t *testing.T) {
	res := parse(t, `
		// leading comment
		qreg q[1]; // trailing comment
		// h q[0]; (commented out)
		x q[0];
	`)
	if res.Circuit.NumGates() != 1 || res.Circuit.Gate(0).Kind != circuit.X {
		t.Fatalf("comments mishandled: %v", res.Circuit.Gates())
	}
}

func TestParseErrorsCatalog(t *testing.T) {
	cases := map[string]string{
		"no registers":        `OPENQASM 2.0;`,
		"unknown register":    `qreg q[1]; x r[0];`,
		"index out of range":  `qreg q[2]; x q[5];`,
		"unknown gate":        `qreg q[1]; warp q[0];`,
		"duplicate operand":   `qreg q[2]; cx q[1],q[1];`,
		"bad include":         `include "other.inc"; qreg q[1];`,
		"redeclared register": `qreg q[1]; qreg q[2];`,
		"zero-size register":  `qreg q[0];`,
		"wrong gate arity":    `qreg q[2]; h q[0],q[1];`,
		"wrong param count":   `qreg q[1]; rz q[0];`,
		"extra params":        `qreg q[1]; x(0.5) q[0];`,
		"missing semicolon":   `qreg q[1] x q[0];`,
		"stray token":         `qreg q[1]; x q[0]; )`,
		"name collision":      `qreg q[1]; creg q[1];`,
		"unterminated string": "include \"qelib1.inc\n; qreg q[1];",
	}
	for name, src := range cases {
		parseErr(t, name, src)
	}
}

func TestSerializeRoundTripGenerated(t *testing.T) {
	circuits := []*circuit.Circuit{
		genc(t)(apps.GHZ(6)),
		genc(t)(apps.QFT(5)),
		genc(t)(apps.BernsteinVazirani(5, nil)),
		genc(t)(apps.CuccaroAdder(2)),
		genc(t)(workload.RandomCircuit(8, 60, 0.4, 3)),
	}
	for _, orig := range circuits {
		text := Serialize(orig)
		got, err := ParseCircuit(orig.Name, text)
		if err != nil {
			t.Fatalf("%s: reparse failed: %v\n%s", orig.Name, err, text)
		}
		if got.NumQubits() != orig.NumQubits() || got.NumGates() != orig.NumGates() {
			t.Fatalf("%s: round trip changed shape: %v vs %v", orig.Name, got.Spec(), orig.Spec())
		}
		for i := range orig.Gates() {
			a, b := orig.Gate(i), got.Gate(i)
			if a.Kind != b.Kind {
				t.Fatalf("%s gate %d: kind %v vs %v", orig.Name, i, a.Kind.Name(), b.Kind.Name())
			}
			for j := range a.Qubits {
				if a.Qubits[j] != b.Qubits[j] {
					t.Fatalf("%s gate %d: qubits %v vs %v", orig.Name, i, a.Qubits, b.Qubits)
				}
			}
			for j := range a.Params {
				if math.Abs(a.Params[j]-b.Params[j]) > 1e-12 {
					t.Fatalf("%s gate %d: params %v vs %v", orig.Name, i, a.Params, b.Params)
				}
			}
		}
	}
}

func TestSerializeEmitsPortableDefs(t *testing.T) {
	c := circuit.New("s", 2)
	c.SWAP(0, 1)
	c.CP(0.5, 0, 1)
	text := Serialize(c)
	for _, want := range []string{"gate swap", "gate cp"} {
		if !strings.Contains(text, want) {
			t.Errorf("serialized output missing %q:\n%s", want, text)
		}
	}
	// Each def exactly once even with repeated gates.
	c.SWAP(1, 0)
	text = Serialize(c)
	if strings.Count(text, "gate swap") != 1 {
		t.Errorf("swap def duplicated:\n%s", text)
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ghz.qasm")
	orig := genc(t)(apps.GHZ(4))
	if err := WriteFile(path, orig); err != nil {
		t.Fatal(err)
	}
	res, err := ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Circuit.NumGates() != orig.NumGates() {
		t.Fatalf("file round trip: %d gates", res.Circuit.NumGates())
	}
	if _, err := ParseFile(filepath.Join(dir, "missing.qasm")); err == nil {
		t.Fatalf("missing file should error")
	}
}

// lexTexts drains the lexer over src and returns the token texts.
func lexTexts(t *testing.T, src string) []string {
	t.Helper()
	toks, err := newLexer(strings.NewReader(src)).drain()
	if err != nil {
		t.Fatalf("lex %q: %v", src, err)
	}
	texts := make([]string, len(toks))
	for i, tk := range toks {
		texts[i] = tk.text
	}
	return texts
}

func TestLexerTokens(t *testing.T) {
	for src, want := range map[string][]string{
		`rz(-1.5e-3) q[0]; // c`: {"rz", "(", "-", "1.5e-3", ")", "q", "[", "0", "]", ";"},
		// An exponent belongs to the number only when a digit follows
		// e[+-]?; otherwise the e and the sign lex on their own.
		"1e":    {"1", "e"},
		"1e+":   {"1", "e", "+"},
		"1.e5":  {"1.e5"},
		".5E-3": {".5E-3"},
		"1e5.3": {"1e5", ".3"},
	} {
		if got := lexTexts(t, src); !reflect.DeepEqual(got, want) {
			t.Errorf("lex %q = %q, want %q", src, got, want)
		}
	}
}

func TestLexerErrors(t *testing.T) {
	for name, src := range map[string]string{
		"bad char":  `qreg q[1]; x q[0]; #`,
		"stray dot": `qreg q[1]; rz(.) q[0];`,
		"single eq": `qreg q[1]; x = q[0];`,
	} {
		if _, err := Parse("t", src); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestArrowToken(t *testing.T) {
	res := parse(t, `qreg q[1]; creg c[1]; measure q[0] -> c[0];`)
	if res.Measurements != 1 {
		t.Fatalf("measurements = %d", res.Measurements)
	}
}

func TestBigGeneratedCircuitParses(t *testing.T) {
	// QFT(16): 16 + 3·120 = 376 one-qubit gates, 240 CX.
	orig := genc(t)(apps.QFT(16))
	got, err := ParseCircuit("qft16", Serialize(orig))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTwoQubitGates() != orig.NumTwoQubitGates() {
		t.Fatalf("2q count = %d, want %d", got.NumTwoQubitGates(), orig.NumTwoQubitGates())
	}
}

// genc unwraps a circuit-generator result, failing the test on error.
func genc(t testing.TB) func(*circuit.Circuit, error) *circuit.Circuit {
	return func(c *circuit.Circuit, err error) *circuit.Circuit {
		t.Helper()
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		return c
	}
}
