package qasm

// This file is the parser's input side: ParseReader and the token
// stream it reads. Parse is ParseReader over a string, and the qelib1
// prelude and include bodies go through the same lexer, so every path
// reports errors in program order.

import (
	"fmt"
	"io"
	"maps"
	"sync"

	"velociti/internal/verr"
)

// streamSource is the parser's view of its input: one token of lookahead
// plus include splicing. EOF is sticky — peek and advance return tokEOF
// forever once the input is exhausted. A lexical error is recorded once
// and surfaces as a synthesized EOF so the parser winds down normally;
// the caller reports the recorded error as the root cause.
type streamSource struct {
	lx      *lexer
	pending []token // spliced include tokens, drained before lexing resumes
	cur     token
	haveCur bool
	err     error
}

func (s *streamSource) fetch() {
	if s.haveCur {
		return
	}
	if len(s.pending) > 0 {
		s.cur, s.pending = s.pending[0], s.pending[1:]
		s.haveCur = true
		return
	}
	if s.err == nil {
		t, err := s.lx.next()
		if err == nil {
			s.cur, s.haveCur = t, true
			return
		}
		s.err = err
	}
	s.cur, s.haveCur = token{kind: tokEOF, line: s.lx.line}, true
}

func (s *streamSource) peek() token { s.fetch(); return s.cur }

func (s *streamSource) advance() token {
	s.fetch()
	if s.cur.kind != tokEOF {
		s.haveCur = false
	}
	return s.cur
}

// splice inserts body (an include's tokens, already lexed) ahead of the
// current position.
func (s *streamSource) splice(body []token) {
	if s.haveCur && s.cur.kind != tokEOF {
		body = append(body, s.cur)
	}
	// A held EOF is dropped: it is re-fetched from the lexer (sticky)
	// once the spliced body drains.
	s.haveCur = false
	s.pending = append(body, s.pending...)
}

// ParseReader parses OpenQASM 2.0 from r into a Result, lexing
// incrementally instead of slurping the input. The name is attached to
// the produced circuit. Includes other than qelib1.inc are rejected; use
// ParseReaderWithIncludes to resolve them.
func ParseReader(name string, r io.Reader) (*Result, error) {
	return ParseReaderWithIncludes(name, r, nil)
}

// ParseReaderWithIncludes is ParseReader resolving include directives
// other than qelib1.inc through the given loader, which maps an include
// name to source text; a nil loader rejects such includes. Read failures
// from r are reported like lexical errors, positioned at the line being
// lexed.
//
// All parse failures are input-kind errors (verr.ErrInput): QASM source is
// untrusted input, so every rejection is a diagnostic, never a panic.
func ParseReaderWithIncludes(name string, r io.Reader, resolve func(string) (string, error)) (*Result, error) {
	gates, err := prelude()
	if err != nil {
		// The prelude is compiled in; failing to parse it is a bug, not
		// bad input, so it stays unmarked.
		return nil, fmt.Errorf("qasm: internal prelude: %w", err)
	}
	p := newParser(name, r, maps.Clone(gates))
	p.resolve = resolve
	ops, _ := opsPool.Get().(*[]resolvedOp)
	if ops == nil {
		ops = new([]resolvedOp)
	}
	p.ops = (*ops)[:0]
	defer func() {
		*ops = p.ops[:0]
		opsPool.Put(ops)
	}()
	err = p.parseProgram()
	if p.ts.err != nil {
		// Any parse error after a lexical error is downstream of the
		// synthesized EOF; the lexical error is the root cause.
		err = p.ts.err
	}
	if err != nil {
		return nil, verr.Mark(err)
	}
	return p.finish()
}

// opsPool recycles the parser's resolved-op buffer. finish copies the ops
// into the circuit, so the buffer is free once a parse returns. Growing a
// fresh buffer per parse and dropping it leaves large transient objects in
// the page heap, which raises peak RSS across repeated parses.
var opsPool sync.Pool
