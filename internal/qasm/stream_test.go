package qasm

import (
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"velociti/internal/circuit"
	"velociti/internal/verr"
)

// FuzzParseStream checks that the way bytes arrive does not matter:
// ParseReader over the whole text, one byte per Read
// (iotest.OneByteReader) and half of each Read (iotest.HalfReader) must
// agree on acceptance, Result and error text, and reject only with
// input-kind diagnostics. The lexer's lookahead reads across window
// refills, the one place it could depend on read boundaries. The seeds
// are FuzzParse's plus exponent edge cases.
func FuzzParseStream(f *testing.F) {
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
	f.Add("OPENQASM 2.0;\nqreg q[1];\nrx(1e) q[0];\n")   // dangling exponent: peeked, not consumed
	f.Add("OPENQASM 2.0;\nqreg q[1];\nrx(1e-4) q[0];\n") // real exponent
	f.Add("OPENQASM 2.0;\nqreg q[1];\nrx(1.e5) q[0];\n")
	f.Add("OPENQASM 2.0;\nqreg q[1];\nrx(.5E+3) q[0];\n")
	f.Add("OPENQASM 2.0;\nqreg q[1];\nrx(1e+) q[0];\n") // sign without digits: the 1 stands alone

	f.Fuzz(func(t *testing.T, src string) {
		want, werr := ParseReader("fuzz", strings.NewReader(src))
		if werr != nil && !verr.IsInput(werr) {
			t.Fatalf("rejection is not an input-kind error: %v", werr)
		}
		for _, r := range []io.Reader{
			iotest.OneByteReader(strings.NewReader(src)),
			iotest.HalfReader(strings.NewReader(src)),
		} {
			got, err := ParseReader("fuzz", r)
			if (err == nil) != (werr == nil) {
				t.Fatalf("acceptance depends on read sizes: whole-text err=%v, chunked err=%v", werr, err)
			}
			if err != nil {
				if err.Error() != werr.Error() {
					t.Fatalf("error text depends on read sizes: whole-text %q, chunked %q", werr, err)
				}
				continue
			}
			checkSameResult(t, want, got)
		}
	})
}

func checkSameResult(t *testing.T, want, got *Result) {
	t.Helper()
	if got.Circuit.Fingerprint() != want.Circuit.Fingerprint() {
		t.Fatalf("circuit fingerprint %016x, want %016x",
			got.Circuit.Fingerprint(), want.Circuit.Fingerprint())
	}
	if !reflect.DeepEqual(got.Circuit.Gates(), want.Circuit.Gates()) {
		t.Fatalf("gates diverge")
	}
	if got.Measurements != want.Measurements || got.Barriers != want.Barriers || got.Resets != want.Resets {
		t.Fatalf("side counts (%d, %d, %d), want (%d, %d, %d)",
			got.Measurements, got.Barriers, got.Resets,
			want.Measurements, want.Barriers, want.Resets)
	}
}

// TestParseReaderOneByte drives the incremental lexer through a reader
// that yields one byte per Read, so every token and every lookahead
// crosses a buffer refill.
func TestParseReaderOneByte(t *testing.T) {
	src := `// leading comment
OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
creg c[4];
gate foo(t) a, b { rx(t/2) a; cx a, b; }
h q;
foo(pi/8) q[0], q[2];
rx(1.5e-3) q[3];
swap q[1], q[2];
barrier q;
measure q -> c;
`
	want, err := Parse("t", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	got, err := ParseReader("t", iotest.OneByteReader(strings.NewReader(src)))
	if err != nil {
		t.Fatalf("ParseReader: %v", err)
	}
	checkSameResult(t, want, got)
}

// TestParseReaderIncludes exercises include splicing through the
// streaming token source, including the resolver-error and cycle paths.
func TestParseReaderIncludes(t *testing.T) {
	lib := "gate bar a, b { cx a, b; cx b, a; }\n"
	resolve := func(name string) (string, error) {
		if name == "lib.inc" {
			return lib, nil
		}
		return "", verr.Inputf("no such include %q", name)
	}
	src := "OPENQASM 2.0;\ninclude \"lib.inc\";\nqreg q[2];\nbar q[0], q[1];\n"
	want, err := ParseReaderWithIncludes("t", strings.NewReader(src), resolve)
	if err != nil {
		t.Fatalf("ParseReaderWithIncludes: %v", err)
	}
	got, err := ParseReaderWithIncludes("t", iotest.OneByteReader(strings.NewReader(src)), resolve)
	if err != nil {
		t.Fatalf("ParseReaderWithIncludes: %v", err)
	}
	checkSameResult(t, want, got)

	if _, err := ParseReaderWithIncludes("t", strings.NewReader("include \"nope.inc\";\nqreg q[1];\n"), resolve); err == nil {
		t.Fatal("unresolvable include accepted")
	}
	cyclic := func(string) (string, error) { return "include \"self.inc\";\n", nil }
	if _, err := ParseReaderWithIncludes("t", strings.NewReader("include \"self.inc\";\nqreg q[1];\n"), cyclic); err == nil {
		t.Fatal("include cycle accepted")
	}
}

// TestParseReaderLexError: errors are reported in program order, so a
// lexical error behind the parser's failure point does not pre-empt it,
// and a lexical error after valid statements still rejects. Parse and
// ParseReader give the same input-kind diagnostic.
func TestParseReaderLexError(t *testing.T) {
	for src, want := range map[string]string{
		"OPENQASM 2.0;\nqreg q[1];\nh q[0];\n\x01":   `line 4: unexpected character "\x01"`,
		"OPENQASM 2.0;\nqreg q[1];\nbogus q[0];\n =": `line 3: unknown gate "bogus"`,
		"OPENQASM 2.0;\nqreg q[1];\nh q[0]":          `line 3: expected ";", found end of input`,
	} {
		_, err := Parse("t", src)
		_, serr := ParseReader("t", strings.NewReader(src))
		if err == nil || serr == nil {
			t.Fatalf("%q: Parse err=%v, ParseReader err=%v; want both non-nil", src, err, serr)
		}
		if !verr.IsInput(serr) {
			t.Fatalf("%q: rejection is not input-kind: %v", src, serr)
		}
		if err.Error() != serr.Error() || !strings.Contains(serr.Error(), want) {
			t.Fatalf("%q: Parse err=%q, ParseReader err=%q; want both to contain %q", src, err, serr, want)
		}
	}
}

// TestParseReaderReadError: a read failure is reported like a lexical
// error, at the line being lexed, and is input-kind. When the error comes
// in the same Read as the program's last bytes, those bytes are lexed
// first, so it names the line they end on.
func TestParseReaderReadError(t *testing.T) {
	gone := errors.New("device gone")
	for _, tc := range []struct {
		r    io.Reader
		line string
	}{
		{io.MultiReader(strings.NewReader("OPENQASM 2.0;\nqreg q[1];\nh"), iotest.ErrReader(gone)), "line 3"},
		{&dataErrReader{"OPENQASM 2.0;\nqreg q[1];\nh q[0];\n\nh", gone}, "line 5"},
	} {
		_, err := ParseReaderWithIncludes("t", tc.r, nil)
		if err == nil || !verr.IsInput(err) {
			t.Fatalf("err = %v, want an input-kind error", err)
		}
		for _, want := range []string{tc.line, "read: device gone"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("err = %q, want it to mention %q", err, want)
			}
		}
	}
}

// TestWriteMatchesSerialize pins the streaming writer to the in-memory
// serializer byte for byte, covering the non-qelib definition pre-pass.
func TestWriteMatchesSerialize(t *testing.T) {
	c := circuit.New("writer-test", 5)
	c.H(0)
	c.SWAP(1, 2)
	c.CP(0.25, 0, 3)
	c.RZ(1e-9, 4)
	c.CX(3, 4)
	c.SWAP(0, 4)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := Write(&b, c); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if got, want := b.String(), Serialize(c); got != want {
		t.Fatalf("Write output diverges from Serialize\n got:\n%s\nwant:\n%s", got, want)
	}
	// And the streamed output round-trips through the streaming reader.
	back, err := ParseReader("roundtrip", strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if back.Circuit.NumGates() != c.NumGates() {
		t.Fatalf("round-trip gate count %d, want %d", back.Circuit.NumGates(), c.NumGates())
	}
}
