// Package qasm implements an OpenQASM 2.0 front end and serializer for
// VelociTI.
//
// The Go ecosystem has no quantum-circuit interchange tooling, so this
// package provides the subset of OpenQASM 2.0 needed to import real
// workloads into the framework's circuit IR and export generated circuits
// for use with other toolchains:
//
//   - OPENQASM 2.0 header and include directives (qelib1.inc's standard
//     gates are built in; other includes are rejected),
//   - qreg/creg declarations (multiple quantum registers are flattened
//     into one index space in declaration order),
//   - the U and CX primitives and the qelib1 standard gate set,
//   - user gate definitions with parameter and qubit substitution,
//     expanded at application time,
//   - parameter expressions over numbers and pi with + - * / ^ and unary
//     minus,
//   - whole-register broadcast (h q; cx a,b;),
//   - measure and barrier statements (parsed and counted, but not part of
//     the timing IR), and reset.
//
// Classically controlled operations (if (c==n) ...) are rejected: VelociTI
// is a timing model without classical control flow (§III-C).
package qasm

import (
	"bytes"
	"fmt"
	"io"
	"strings"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // one of ; , ( ) { } [ ] + - * / ^ == ->
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokNumber:
		return "number"
	case tokString:
		return "string"
	case tokSymbol:
		return "symbol"
	default:
		return "token"
	}
}

// token is one lexical unit with its source line for diagnostics.
type token struct {
	kind tokenKind
	text string
	line int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.text)
}

// windowSize is the lexer's initial window. It grows only when one token
// outgrows it.
const windowSize = 4096

// Interned token texts: a lexer shares one string per distinct identifier
// or number of at most maxInternLen bytes, for its first maxInterned
// distinct texts. Compiled circuits repeat their names and angles (QFT-64
// has 6,048 angles but 126 distinct values), so most tokens cost no
// allocation; past either bound a text is allocated per token.
const (
	maxInterned  = 4096
	maxInternLen = 64
)

// lexer splits OpenQASM source into tokens, reading from an io.Reader into
// a byte window, so the text side holds O(longest token) bytes, not
// O(file). buf[pos:end] is read but not lexed yet; a refill keeps only
// buf[start:end], the token being scanned, so lookahead (two bytes for a
// comment, three for an exponent) never consumes input.
type lexer struct {
	r               io.Reader
	buf             []byte
	start, pos, end int
	err             error // first read error, io.EOF included: reported once the window drains
	line            int
	interned        map[string]string
}

func newLexer(r io.Reader) *lexer {
	return &lexer{r: r, buf: make([]byte, windowSize), line: 1, interned: make(map[string]string)}
}

// errorf builds a positioned lexical error.
func (l *lexer) errorf(format string, args ...any) error {
	return fmt.Errorf("qasm: line %d: %s", l.line, fmt.Sprintf(format, args...))
}

// fill reads more input into the window, keeping buf[start:end]: those
// bytes move to the front, and the window doubles only when they fill it.
// It reports whether any byte was added. The first read error, io.EOF
// included, is kept in err and ends the reading; bytes that arrived with
// it are lexed first.
func (l *lexer) fill() bool {
	if l.err != nil {
		return false
	}
	if l.start > 0 {
		l.end = copy(l.buf, l.buf[l.start:l.end])
		l.pos -= l.start
		l.start = 0
	}
	if l.end == len(l.buf) {
		l.buf = append(l.buf, make([]byte, len(l.buf))...)
	}
	// Like bufio, give up on a reader that keeps returning nothing.
	for range 100 {
		n, err := l.r.Read(l.buf[l.end:])
		l.end += n
		if err != nil {
			l.err = err
		}
		if n > 0 || err != nil {
			return n > 0
		}
	}
	l.err = io.ErrNoProgress
	return false
}

// more reports whether a byte is left to lex, reading if the window is
// drained.
func (l *lexer) more() bool { return l.pos < l.end || l.fill() }

// at returns the byte i places past pos, or 0 past the end of input, which
// no token class treats as significant.
func (l *lexer) at(i int) byte {
	for l.pos+i >= l.end {
		if !l.fill() {
			return 0
		}
	}
	return l.buf[l.pos+i]
}

// skip advances past a run of bytes for which in reports true.
func (l *lexer) skip(in *[256]bool) {
	for {
		for l.pos < l.end && in[l.buf[l.pos]] {
			l.pos++
		}
		if l.pos < l.end || !l.fill() {
			return
		}
	}
}

// skipSpaceAndComments consumes whitespace and // line comments. Nothing
// skipped is kept across a refill.
func (l *lexer) skipSpaceAndComments() {
	for {
		l.start = l.pos
		if !l.more() {
			return
		}
		switch b := l.buf[l.pos]; {
		case b == '\n':
			l.line++
			l.pos++
		case b == ' ' || b == '\t' || b == '\r':
			l.pos++
		case b == '/' && l.at(1) == '/':
			for {
				if i := bytes.IndexByte(l.buf[l.pos:l.end], '\n'); i >= 0 {
					l.pos += i
					break
				}
				l.pos, l.start = l.end, l.end
				if !l.fill() {
					return
				}
			}
		default:
			return
		}
	}
}

// text returns the scanned token buf[start:pos] as a string, interned
// while the table has room.
func (l *lexer) text() string {
	b := l.buf[l.start:l.pos]
	if len(b) == 1 {
		return bytesText[b[0] : b[0]+1]
	}
	if s, ok := l.interned[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(s) <= maxInternLen && len(l.interned) < maxInterned {
		l.interned[s] = s
	}
	return s
}

// next returns the next token. A read failure is reported like a
// lexical error, at the line being lexed, once the bytes read before it
// are lexed.
func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	if l.pos == l.end {
		if l.err != io.EOF {
			return token{}, l.errorf("read: %v", l.err)
		}
		return token{kind: tokEOF, line: l.line}, nil
	}
	line := l.line
	b := l.buf[l.pos]
	l.pos++
	switch {
	case isIdentStart(b):
		l.skip(&identPart)
		return token{kind: tokIdent, text: l.text(), line: line}, nil
	case isDigit(b) || b == '.':
		// digits [. digits] [e[+-]digits]; the exponent is taken only
		// when a digit follows, so nothing is consumed otherwise.
		if b != '.' {
			l.skip(&digit)
			if l.at(0) == '.' {
				l.pos++
			}
		}
		l.skip(&digit)
		if c := l.at(0); c == 'e' || c == 'E' {
			n := 1
			if s := l.at(1); s == '+' || s == '-' {
				n = 2
			}
			if isDigit(l.at(n)) {
				l.pos += n
				l.skip(&digit)
			}
		}
		if l.pos-l.start == 1 && b == '.' {
			return token{}, l.errorf("stray '.'")
		}
		return token{kind: tokNumber, text: l.text(), line: line}, nil
	case b == '"':
		for {
			if !l.more() || l.buf[l.pos] == '\n' {
				return token{}, l.errorf("unterminated string")
			}
			if l.buf[l.pos] == '"' {
				break
			}
			l.pos++
		}
		text := string(l.buf[l.start+1 : l.pos])
		l.pos++ // closing quote
		return token{kind: tokString, text: text, line: line}, nil
	case b == '-':
		if l.at(0) == '>' {
			l.pos++
			return token{kind: tokSymbol, text: "->", line: line}, nil
		}
		return token{kind: tokSymbol, text: "-", line: line}, nil
	case b == '=':
		if l.at(0) == '=' {
			l.pos++
			return token{kind: tokSymbol, text: "==", line: line}, nil
		}
		return token{}, l.errorf("unexpected '='")
	default:
		if symbol[b] {
			return token{kind: tokSymbol, text: bytesText[b : b+1], line: line}, nil
		}
		return token{}, l.errorf("unexpected character %q", string(b))
	}
}

// drain lexes the rest of the input and returns its tokens, without the
// final EOF.
func (l *lexer) drain() ([]token, error) {
	var out []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		if t.kind == tokEOF {
			return out, nil
		}
		out = append(out, t)
	}
}

// digit and identPart are the byte classes skip scans; symbol marks the
// one-byte symbols.
var digit, identPart, symbol [256]bool

// bytesText holds every byte value in order, so a one-byte token's text is
// a slice of it.
var bytesText = func() string {
	b := make([]byte, 256)
	for i := range b {
		b[i] = byte(i)
	}
	return string(b)
}()

func init() {
	for c := 0; c < 256; c++ {
		digit[c] = isDigit(byte(c))
		identPart[c] = isIdentStart(byte(c)) || digit[c]
		symbol[c] = strings.IndexByte(";,(){}[]+*/^", byte(c)) >= 0
	}
}

func isIdentStart(b byte) bool {
	return b == '_' || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z')
}

func isDigit(b byte) bool { return b >= '0' && b <= '9' }
