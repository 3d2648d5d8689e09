package qasm

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/iotest"

	"velociti/internal/apps"
	"velociti/internal/circuit"
)

// chunkReader returns at most n bytes per Read.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(p []byte) (int, error) { return c.r.Read(p[:min(len(p), c.n)]) }

// dataErrReader returns all of data and err from its first Read, and err
// from every Read after that.
type dataErrReader struct {
	data string
	err  error
}

func (d *dataErrReader) Read(p []byte) (int, error) {
	n := copy(p, d.data)
	d.data = d.data[n:]
	return n, d.err
}

// lexAll drains a lexer and returns its tokens, or the error text.
func lexAll(l *lexer) ([]token, string) {
	toks, err := l.drain()
	if err != nil {
		return nil, err.Error()
	}
	return toks, ""
}

// TestWindowRefills checks that how bytes reach the window does not change
// the token stream: every token class that can straddle a refill lexes to
// the same kinds, texts and lines as from one window holding the whole
// text, whether it is read 1, 2 or 3 bytes at a time or whole, with the
// sample starting just before, at and just after the initial window size.
func TestWindowRefills(t *testing.T) {
	samples := []string{
		"ident_with_digits_123 next",
		"rx(1.5e-3);",
		"1e",
		"1e+",
		"1E-",
		".5E+3 1.e5 7",
		`include "qelib1.inc";`,
		"measure q -> c;",
		"if (c==1)",
		"h q; // a comment at the end of input",
		"a\r\nb\r\n\r\nc",
		"x / y",
		`"unterminated`,
		"x #",
	}
	for _, sample := range samples {
		for pad := windowSize - 6; pad <= windowSize+1; pad++ {
			// A token and a line break before the sample, so that it
			// starts pad bytes in, on line 2.
			src := "x" + strings.Repeat(" ", pad-2) + "\n" + sample
			whole := newLexer(strings.NewReader(src))
			whole.buf = make([]byte, 2*len(src))
			want, wantErr := lexAll(whole)
			readers := map[string]io.Reader{
				"whole text": strings.NewReader(src),
				"1 byte":     iotest.OneByteReader(strings.NewReader(src)),
				"2 bytes":    chunkReader{strings.NewReader(src), 2},
				"3 bytes":    chunkReader{strings.NewReader(src), 3},
				"half":       iotest.HalfReader(strings.NewReader(src)),
			}
			for name, r := range readers {
				got, gotErr := lexAll(newLexer(r))
				if gotErr != wantErr || !reflect.DeepEqual(got, want) {
					t.Fatalf("%q at offset %d, %s: tokens %v (err %q), want %v (err %q)",
						sample, pad, name, got, gotErr, want, wantErr)
				}
			}
		}
	}
}

// TestReadErrorAfterData: a read error that arrives together with data is
// reported only once those bytes are lexed, at the line they end on; the
// lookahead that runs into it does not pre-empt them.
func TestReadErrorAfterData(t *testing.T) {
	gone := errors.New("device gone")
	for _, tc := range []struct {
		data  string
		texts []string
		line  int
	}{
		{"a\nb\n1e", []string{"a", "b", "1", "e"}, 3},
		{"a\n1e+", []string{"a", "1", "e", "+"}, 2},
		{"a\nx /", []string{"a", "x", "/"}, 2},
		{"a\n-", []string{"a", "-"}, 2},
		{"a\n\n", []string{"a"}, 3},
	} {
		l := newLexer(&dataErrReader{tc.data, gone})
		var texts []string
		for {
			tok, err := l.next()
			if err != nil {
				if want := fmt.Sprintf("qasm: line %d: read: device gone", tc.line); err.Error() != want {
					t.Fatalf("%q: err %q, want %q", tc.data, err, want)
				}
				break
			}
			if tok.kind == tokEOF {
				t.Fatalf("%q: end of input instead of the read error", tc.data)
			}
			texts = append(texts, tok.text)
		}
		if !reflect.DeepEqual(texts, tc.texts) {
			t.Fatalf("%q: lexed %q before the error, want %q", tc.data, texts, tc.texts)
		}
	}
}

// TestWindowMemory pins the lexer's memory contract: text memory is
// O(longest token), not O(file).
func TestWindowMemory(t *testing.T) {
	var b strings.Builder
	b.WriteString("OPENQASM 2.0;\nqreg q[64];\n")
	for i := 0; b.Len() < 1<<20; i++ {
		fmt.Fprintf(&b, "rz(%d.%d) q[%d]; // gate %d\ncx q[%d],q[%d];\n", i, i%97, i%64, i, i%64, (i+1)%64)
	}
	l := newLexer(strings.NewReader(b.String()))
	if _, err := l.drain(); err != nil {
		t.Fatal(err)
	}
	if len(l.buf) != windowSize {
		t.Fatalf("lexing %d bytes grew the window to %d bytes, want %d", b.Len(), len(l.buf), windowSize)
	}

	long := strings.Repeat("n", 100_000)
	l = newLexer(strings.NewReader("x " + long + " y"))
	toks, err := l.drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 || toks[1].text != long {
		t.Fatalf("the 100 KB identifier did not lex whole")
	}
	if len(l.buf) > 2*len(long) {
		t.Fatalf("a %d-byte token grew the window to %d bytes", len(long), len(l.buf))
	}
}

// TestInternTables: a program with more distinct angles than the tables
// hold parses every angle to strconv.ParseFloat of its literal, and
// neither the lexer's text table nor the parser's value table grows past
// maxInterned.
func TestInternTables(t *testing.T) {
	const n = 10_000
	var b strings.Builder
	b.WriteString("OPENQASM 2.0;\nqreg q[1];\n")
	lits := make([]string, n)
	for i := range lits {
		lits[i] = fmt.Sprintf("%d.%de-%d", i, i*7919%1000, i%7)
		fmt.Fprintf(&b, "rz(%s) q[0];\n", lits[i])
	}
	src := b.String()

	res, err := Parse("angles", src)
	if err != nil {
		t.Fatal(err)
	}
	for i, lit := range lits {
		want, err := strconv.ParseFloat(lit, 64)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Circuit.Gate(i).Params[0]; got != want {
			t.Fatalf("angle %d (%s) = %v, want %v", i, lit, got, want)
		}
	}

	gates, err := prelude()
	if err != nil {
		t.Fatal(err)
	}
	p := newParser("angles", strings.NewReader(src), maps.Clone(gates))
	if err := p.parseProgram(); err != nil {
		t.Fatal(err)
	}
	if got := len(p.ts.lx.interned); got != maxInterned {
		t.Fatalf("the lexer interned %d texts, want the cap %d", got, maxInterned)
	}
	if got := len(p.nums); got != maxInterned {
		t.Fatalf("the parser holds %d number values, want the cap %d", got, maxInterned)
	}
}

// TestConcurrentParses: parses running at once share the op-buffer pool
// and the compiled prelude, and each still returns what it returns alone.
func TestConcurrentParses(t *testing.T) {
	var srcs []string
	for i := 0; i < 8; i++ {
		c := genc(t)(apps.QFT(8 + 4*i))
		srcs = append(srcs, Serialize(c)+fmt.Sprintf("ccx q[0],q[1],q[2];\ncu1(pi/%d) q[1],q[3];\n", i+1))
	}
	want := make([]*Result, len(srcs))
	for i, src := range srcs {
		res, err := Parse("p", src)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	got := make([]*Result, len(srcs))
	errs := make([]error, len(srcs))
	var wg sync.WaitGroup
	for i, src := range srcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = ParseReader("p", strings.NewReader(src))
		}()
	}
	wg.Wait()
	for i := range srcs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		checkSameResult(t, want[i], got[i])
	}
}

// TestResolvedOpFitsEveryKind: a resolvedOp stores a built-in gate's
// qubits and parameters in fixed arrays, which every circuit kind fits.
func TestResolvedOpFitsEveryKind(t *testing.T) {
	var op resolvedOp
	for _, k := range circuit.Kinds() {
		if k.Arity() > len(op.qubits) || k.NumParams() > len(op.params) {
			t.Errorf("kind %s takes %d qubits and %d parameters; a resolvedOp holds %d and %d",
				k.Name(), k.Arity(), k.NumParams(), len(op.qubits), len(op.params))
		}
	}
}
