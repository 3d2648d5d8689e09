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
	"bufio"
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

// lexer splits OpenQASM source into tokens, pulling bytes from an
// io.Reader on demand, so the text side holds O(longest token) bytes, not
// O(file). Lookahead (two bytes for a comment, three for an exponent) is
// bufio.Reader.Peek, which consumes nothing, so the reader only moves
// forward.
type lexer struct {
	r    *bufio.Reader
	err  error // first read error, io.EOF included: the input ends there
	line int
	text []byte // scratch for the token being collected
}

func newLexer(r io.Reader) *lexer {
	return &lexer{r: bufio.NewReader(r), line: 1}
}

// errorf builds a positioned lexical error.
func (l *lexer) errorf(format string, args ...any) error {
	return fmt.Errorf("qasm: line %d: %s", l.line, fmt.Sprintf(format, args...))
}

// peek returns up to n bytes of lookahead, fewer at the end of input.
// Once a read has failed, only bytes already buffered are returned.
func (l *lexer) peek(n int) []byte {
	if l.err != nil {
		n = min(n, l.r.Buffered())
	}
	b, err := l.r.Peek(n)
	if err != nil {
		l.err = err
	}
	return b
}

// peekByte returns the next byte, or 0 at the end of input, which no
// token class treats as significant.
func (l *lexer) peekByte() byte {
	if b := l.peek(1); len(b) == 1 {
		return b[0]
	}
	return 0
}

// advance consumes the next byte, counting lines. Callers peek first, so
// the read cannot fail; if it does, the input ends there all the same.
func (l *lexer) advance() byte {
	b, err := l.r.ReadByte()
	if err != nil {
		l.err = err
	}
	if b == '\n' {
		l.line++
	}
	return b
}

// collect consumes the next byte into the token text.
func (l *lexer) collect() { l.text = append(l.text, l.advance()) }

func (l *lexer) collectDigits() {
	for isDigit(l.peekByte()) {
		l.collect()
	}
}

// skipSpaceAndComments consumes whitespace and // line comments.
func (l *lexer) skipSpaceAndComments() {
	for {
		b := l.peek(1)
		switch {
		case len(b) == 0:
			return
		case b[0] == ' ' || b[0] == '\t' || b[0] == '\r' || b[0] == '\n':
			l.advance()
		case b[0] == '/' && string(l.peek(2)) == "//":
			for b := l.peek(1); len(b) == 1 && b[0] != '\n'; b = l.peek(1) {
				l.advance()
			}
		default:
			return
		}
	}
}

// next returns the next token. A read failure is reported like a
// lexical error, at the line being lexed.
func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	if l.err != nil && l.err != io.EOF {
		return token{}, l.errorf("read: %v", l.err)
	}
	if len(l.peek(1)) == 0 {
		return token{kind: tokEOF, line: l.line}, nil
	}
	line := l.line
	l.text = l.text[:0]
	b := l.peekByte()
	switch {
	case isIdentStart(b):
		for isIdentPart(l.peekByte()) {
			l.collect()
		}
		return token{kind: tokIdent, text: string(l.text), line: line}, nil
	case isDigit(b) || b == '.':
		// digits [. digits] [e[+-]digits]; the exponent is taken only
		// when a digit follows, so nothing is consumed otherwise.
		l.collectDigits()
		if l.peekByte() == '.' {
			l.collect()
			l.collectDigits()
		}
		if c := l.peekByte(); c == 'e' || c == 'E' {
			n := 2
			if s := l.peek(2); len(s) == 2 && (s[1] == '+' || s[1] == '-') {
				n = 3
			}
			if s := l.peek(n); len(s) == n && isDigit(s[n-1]) {
				for ; n > 0; n-- {
					l.collect()
				}
				l.collectDigits()
			}
		}
		if string(l.text) == "." {
			return token{}, l.errorf("stray '.'")
		}
		return token{kind: tokNumber, text: string(l.text), line: line}, nil
	case b == '"':
		l.advance()
		for c := l.peek(1); string(c) != `"`; c = l.peek(1) {
			if len(c) == 0 || c[0] == '\n' {
				return token{}, l.errorf("unterminated string")
			}
			l.collect()
		}
		l.advance() // closing quote
		return token{kind: tokString, text: string(l.text), line: line}, nil
	case b == '-':
		l.advance()
		if l.peekByte() == '>' {
			l.advance()
			return token{kind: tokSymbol, text: "->", line: line}, nil
		}
		return token{kind: tokSymbol, text: "-", line: line}, nil
	case b == '=':
		l.advance()
		if l.peekByte() == '=' {
			l.advance()
			return token{kind: tokSymbol, text: "==", line: line}, nil
		}
		return token{}, l.errorf("unexpected '='")
	case strings.ContainsRune(";,(){}[]+*/^", rune(b)):
		l.advance()
		return token{kind: tokSymbol, text: string(b), line: line}, nil
	default:
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

func isIdentStart(b byte) bool {
	return b == '_' || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z')
}

func isIdentPart(b byte) bool {
	return isIdentStart(b) || isDigit(b)
}

func isDigit(b byte) bool { return b >= '0' && b <= '9' }
