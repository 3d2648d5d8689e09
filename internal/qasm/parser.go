package qasm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"velociti/internal/circuit"
	"velociti/internal/verr"
)

// Result is the outcome of parsing an OpenQASM program: the timing-relevant
// circuit plus counts of the statements VelociTI models as free
// (measurement, barrier, reset — see §III-C: the tool predicts gate timing,
// not algorithm results).
type Result struct {
	Circuit      *circuit.Circuit
	Measurements int
	Barriers     int
	Resets       int
}

// Parse parses OpenQASM 2.0 source into a Result; it is ParseReader over
// the string. The name is attached to the produced circuit. Includes
// other than qelib1.inc are rejected; use ParseReaderWithIncludes or
// ParseFile to resolve them.
func Parse(name, src string) (*Result, error) {
	return ParseReader(name, strings.NewReader(src))
}

// ParseCircuit is Parse returning only the circuit.
func ParseCircuit(name, src string) (*circuit.Circuit, error) {
	res, err := Parse(name, src)
	if err != nil {
		return nil, err
	}
	return res.Circuit, nil
}

// qelibComposites defines, in OpenQASM itself, the qelib1.inc composite
// gates that do not map 1:1 onto circuit kinds. They are parsed once per
// Parse call and expand like user definitions.
const qelibComposites = `
gate ccx a,b,c { h c; cx b,c; tdg c; cx a,c; t c; cx b,c; tdg c; cx a,c; t b; t c; h c; cx a,b; t a; tdg b; cx a,b; }
gate cu1(lambda) a,b { u1(lambda/2) a; cx a,b; u1(-lambda/2) b; cx a,b; u1(lambda/2) b; }
gate crz(lambda) a,b { u1(lambda/2) b; cx a,b; u1(-lambda/2) b; cx a,b; }
gate cy a,b { sdg b; cx a,b; s b; }
gate ch a,b { h b; sdg b; cx a,b; h b; t b; cx a,b; t b; h b; s b; x b; s a; }
gate cswap a,b,c { cx c,b; ccx a,b,c; cx c,b; }
gate u0(gamma) q { id q; }
gate u(theta,phi,lambda) q { u3(theta,phi,lambda) q; }
gate p(lambda) q { u1(lambda) q; }
gate cu3(theta,phi,lambda) c,t { u1((lambda+phi)/2) c; u1((lambda-phi)/2) t; cx c,t; u3(-theta/2,0,-(phi+lambda)/2) t; cx c,t; u3(theta/2,phi,0) t; }
`

// qreg is a declared quantum register: its flattened offset and size.
type qreg struct {
	offset, size int
}

// resolvedOp is a fully expanded primitive gate application.
type resolvedOp struct {
	kind   circuit.Kind
	qubits []int
	params []float64
}

// gateDef is a user (or built-in composite) gate definition.
type gateDef struct {
	name   string
	params []string
	qargs  []string
	body   []bodyStmt
}

// bodyStmt is one gate application inside a definition, with formal
// arguments still unresolved.
type bodyStmt struct {
	name  string
	exprs []expr
	args  []string
	line  int
}

// maxExpandDepth bounds gate-definition expansion to catch recursive
// definitions (illegal in OpenQASM 2.0 anyway).
const maxExpandDepth = 64

// maxExprTokens bounds the tokens in one parameter expression. The
// descent recurses, and eval walks the tree, at most once per token, so
// the bound keeps both stacks shallow on adversarial input.
const maxExprTokens = 1024

type parser struct {
	ts         *streamSource
	exprTokens int // tokens taken since the current parameter expression began

	name      string
	regs      map[string]qreg
	regOrder  []string
	numQubits int
	cregs     map[string]int
	gates     map[string]*gateDef
	opaque    map[string]bool

	ops          []resolvedOp
	measurements int
	barriers     int
	resets       int

	resolve  func(string) (string, error)
	included map[string]bool
}

// loadPrelude registers the qelib1 composite definitions.
func (p *parser) loadPrelude() error {
	src := &streamSource{lx: newLexer(strings.NewReader(qelibComposites))}
	sub := &parser{ts: src, gates: p.gates, regs: map[string]qreg{}, cregs: map[string]int{}}
	for sub.peek().kind != tokEOF {
		if err := sub.parseGateDef(); err != nil {
			return err
		}
	}
	return src.err
}

func (p *parser) peek() token { return p.ts.peek() }

func (p *parser) advance() token {
	p.exprTokens++
	return p.ts.advance()
}

func (p *parser) errorf(t token, format string, args ...any) error {
	return fmt.Errorf("qasm: line %d: %s", t.line, fmt.Sprintf(format, args...))
}

// expectSymbol consumes the given symbol or fails.
func (p *parser) expectSymbol(sym string) error {
	t := p.advance()
	if t.kind != tokSymbol || t.text != sym {
		return p.errorf(t, "expected %q, found %s", sym, t)
	}
	return nil
}

// expectIdent consumes an identifier or fails.
func (p *parser) expectIdent() (token, error) {
	t := p.advance()
	if t.kind != tokIdent {
		return t, p.errorf(t, "expected identifier, found %s", t)
	}
	return t, nil
}

// atSymbol reports whether the next token is the given symbol.
func (p *parser) atSymbol(sym string) bool {
	t := p.peek()
	return t.kind == tokSymbol && t.text == sym
}

// parseProgram parses the top-level statement list.
func (p *parser) parseProgram() error {
	// Optional OPENQASM 2.0; header.
	if t := p.peek(); t.kind == tokIdent && t.text == "OPENQASM" {
		p.advance()
		v := p.advance()
		if v.kind != tokNumber {
			return p.errorf(v, "expected version number after OPENQASM")
		}
		if v.text != "2.0" && v.text != "2" {
			return p.errorf(v, "unsupported OPENQASM version %s (only 2.0)", v.text)
		}
		if err := p.expectSymbol(";"); err != nil {
			return err
		}
	}
	for {
		t := p.peek()
		if t.kind == tokEOF {
			return nil
		}
		if err := p.parseStatement(); err != nil {
			return err
		}
	}
}

func (p *parser) parseStatement() error {
	t := p.peek()
	if t.kind != tokIdent {
		return p.errorf(t, "expected statement, found %s", t)
	}
	switch t.text {
	case "include":
		return p.parseInclude()
	case "qreg":
		return p.parseQreg()
	case "creg":
		return p.parseCreg()
	case "gate":
		return p.parseGateDef()
	case "opaque":
		return p.parseOpaque()
	case "measure":
		return p.parseMeasure()
	case "barrier":
		return p.parseBarrier()
	case "reset":
		return p.parseReset()
	case "if":
		return p.errorf(t, "classically controlled operations are not supported by the timing model")
	default:
		return p.parseGateApplication()
	}
}

func (p *parser) parseInclude() error {
	p.advance() // include
	t := p.advance()
	if t.kind != tokString {
		return p.errorf(t, "expected file name string after include")
	}
	if t.text == "qelib1.inc" {
		return p.expectSymbol(";")
	}
	if p.resolve == nil {
		return p.errorf(t, "unsupported include %q (only qelib1.inc, whose gates are built in; use ParseFile to resolve local includes)", t.text)
	}
	if p.included[t.text] {
		return p.errorf(t, "include cycle through %q", t.text)
	}
	if len(p.included) >= 16 {
		return p.errorf(t, "too many includes (max 16)")
	}
	if err := p.expectSymbol(";"); err != nil {
		return err
	}
	src, err := p.resolve(t.text)
	if err != nil {
		return p.errorf(t, "include %q: %v", t.text, err)
	}
	// The body is lexed whole before it is spliced in, so a lexical
	// error inside it is reported at this directive.
	body, err := newLexer(strings.NewReader(src)).drain()
	if err != nil {
		return p.errorf(t, "include %q: %v", t.text, err)
	}
	if p.included == nil {
		p.included = make(map[string]bool)
	}
	p.included[t.text] = true
	p.ts.splice(body)
	return nil
}

func (p *parser) parseQreg() error {
	p.advance() // qreg
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if _, dup := p.regs[name.text]; dup {
		return p.errorf(name, "quantum register %q redeclared", name.text)
	}
	if _, dup := p.cregs[name.text]; dup {
		return p.errorf(name, "register name %q already used", name.text)
	}
	size, err := p.parseBracketInt()
	if err != nil {
		return err
	}
	if size <= 0 {
		return p.errorf(name, "register %q must have positive size", name.text)
	}
	p.regs[name.text] = qreg{offset: p.numQubits, size: size}
	p.regOrder = append(p.regOrder, name.text)
	p.numQubits += size
	return p.expectSymbol(";")
}

func (p *parser) parseCreg() error {
	p.advance() // creg
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if _, dup := p.cregs[name.text]; dup {
		return p.errorf(name, "classical register %q redeclared", name.text)
	}
	if _, dup := p.regs[name.text]; dup {
		return p.errorf(name, "register name %q already used", name.text)
	}
	size, err := p.parseBracketInt()
	if err != nil {
		return err
	}
	if size <= 0 {
		return p.errorf(name, "register %q must have positive size", name.text)
	}
	p.cregs[name.text] = size
	return p.expectSymbol(";")
}

// parseBracketInt parses "[n]" and returns n.
func (p *parser) parseBracketInt() (int, error) {
	if err := p.expectSymbol("["); err != nil {
		return 0, err
	}
	t := p.advance()
	if t.kind != tokNumber {
		return 0, p.errorf(t, "expected integer, found %s", t)
	}
	const maxIndex = 1 << 30 // caps register sizes and indexes sanely
	n := 0
	for _, c := range t.text {
		if c < '0' || c > '9' {
			return 0, p.errorf(t, "expected integer, found %s", t)
		}
		n = n*10 + int(c-'0')
		if n > maxIndex {
			return 0, p.errorf(t, "integer %s too large", t)
		}
	}
	if err := p.expectSymbol("]"); err != nil {
		return 0, err
	}
	return n, nil
}

func (p *parser) parseOpaque() error {
	p.advance() // opaque
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if p.opaque == nil {
		p.opaque = make(map[string]bool)
	}
	p.opaque[name.text] = true
	// Skip to the terminating semicolon.
	for !p.atSymbol(";") {
		if p.peek().kind == tokEOF {
			return p.errorf(p.peek(), "unterminated opaque declaration %q", name.text)
		}
		p.advance()
	}
	return p.expectSymbol(";")
}

// parseParamList parses an optional parenthesized list, calling item
// once per element. OpenQASM 2.0 lists are empty or "item (, item)*". An
// item's own error comes first; an item missing its comma is rejected
// once it parses, and after a trailing comma item rejects the ")".
func (p *parser) parseParamList(item func() error) error {
	if !p.atSymbol("(") {
		return nil
	}
	p.advance()
	for n, comma := 0, false; comma || !p.atSymbol(")"); n++ {
		t := p.peek()
		if err := item(); err != nil {
			return err
		}
		if n > 0 && !comma {
			return p.errorf(t, "missing comma before %s in parameter list", t)
		}
		if comma = p.atSymbol(","); comma {
			p.advance()
		}
	}
	p.advance() // )
	return nil
}

// parseGateDef parses "gate name(params) qargs { body }".
func (p *parser) parseGateDef() error {
	gateTok := p.advance() // gate
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	def := &gateDef{name: name.text}
	err = p.parseParamList(func() error {
		id, err := p.expectIdent()
		def.params = append(def.params, id.text)
		return err
	})
	if err != nil {
		return err
	}
	for {
		id, err := p.expectIdent()
		if err != nil {
			return err
		}
		def.qargs = append(def.qargs, id.text)
		if !p.atSymbol(",") {
			break
		}
		p.advance()
	}
	if len(def.qargs) == 0 {
		return p.errorf(gateTok, "gate %q has no qubit arguments", def.name)
	}
	if err := p.expectSymbol("{"); err != nil {
		return err
	}
	formalQ := make(map[string]bool, len(def.qargs))
	for _, q := range def.qargs {
		formalQ[q] = true
	}
	formalP := make(map[string]bool, len(def.params))
	for _, q := range def.params {
		formalP[q] = true
	}
	for !p.atSymbol("}") {
		t := p.peek()
		if t.kind == tokEOF {
			return p.errorf(t, "unterminated body of gate %q", def.name)
		}
		if t.kind == tokIdent && t.text == "barrier" {
			// Barriers inside definitions are timing no-ops; skip them.
			for !p.atSymbol(";") {
				if p.peek().kind == tokEOF {
					return p.errorf(t, "unterminated barrier in gate %q", def.name)
				}
				p.advance()
			}
			p.advance()
			continue
		}
		stmt, err := p.parseBodyStmt(def, formalQ, formalP)
		if err != nil {
			return err
		}
		def.body = append(def.body, stmt)
	}
	p.advance() // }
	p.gates[def.name] = def
	return nil
}

// parseBodyStmt parses one gate application inside a definition.
func (p *parser) parseBodyStmt(def *gateDef, formalQ, formalP map[string]bool) (bodyStmt, error) {
	name, err := p.expectIdent()
	if err != nil {
		return bodyStmt{}, err
	}
	stmt := bodyStmt{name: name.text, line: name.line}
	err = p.parseParamList(func() error {
		e, err := p.parseParam(formalP)
		stmt.exprs = append(stmt.exprs, e)
		return err
	})
	if err != nil {
		return bodyStmt{}, err
	}
	for {
		arg, err := p.expectIdent()
		if err != nil {
			return bodyStmt{}, err
		}
		if !formalQ[arg.text] {
			return bodyStmt{}, p.errorf(arg, "gate %q body references unknown qubit %q", def.name, arg.text)
		}
		stmt.args = append(stmt.args, arg.text)
		if !p.atSymbol(",") {
			break
		}
		p.advance()
	}
	if err := p.expectSymbol(";"); err != nil {
		return bodyStmt{}, err
	}
	return stmt, nil
}

// operand is a top-level qubit argument: a whole register or one element.
type operand struct {
	reg     qreg
	indexed bool
	index   int
	tok     token
}

// parseOperand parses "reg" or "reg[i]" against the declared registers.
func (p *parser) parseOperand() (operand, error) {
	name, err := p.expectIdent()
	if err != nil {
		return operand{}, err
	}
	r, ok := p.regs[name.text]
	if !ok {
		return operand{}, p.errorf(name, "unknown quantum register %q", name.text)
	}
	op := operand{reg: r, tok: name}
	if p.atSymbol("[") {
		idx, err := p.parseBracketInt()
		if err != nil {
			return operand{}, err
		}
		if idx >= r.size {
			return operand{}, p.errorf(name, "index %d out of range for register %q of size %d", idx, name.text, r.size)
		}
		op.indexed = true
		op.index = idx
	}
	return op, nil
}

// parseGateApplication parses a top-level gate application with optional
// parameters and broadcast semantics, then expands it into primitive ops.
func (p *parser) parseGateApplication() error {
	name := p.advance()
	if p.opaque[name.text] {
		return p.errorf(name, "cannot apply opaque gate %q (no definition)", name.text)
	}
	var vals []float64
	err := p.parseParamList(func() error {
		e, err := p.parseParam(nil)
		if err != nil {
			return err
		}
		v, err := e.eval(nil)
		if err != nil {
			return p.errorf(name, "%v", err)
		}
		vals = append(vals, v)
		return nil
	})
	if err != nil {
		return err
	}
	var operands []operand
	for {
		op, err := p.parseOperand()
		if err != nil {
			return err
		}
		operands = append(operands, op)
		if !p.atSymbol(",") {
			break
		}
		p.advance()
	}
	if err := p.expectSymbol(";"); err != nil {
		return err
	}
	// Broadcast: every whole-register operand must share one size.
	bcast := 1
	for _, op := range operands {
		if !op.indexed {
			if bcast == 1 {
				bcast = op.reg.size
			} else if op.reg.size != bcast {
				return p.errorf(op.tok, "broadcast register sizes differ (%d vs %d)", op.reg.size, bcast)
			}
		}
	}
	for i := 0; i < bcast; i++ {
		qubits := make([]int, len(operands))
		for j, op := range operands {
			if op.indexed {
				qubits[j] = op.reg.offset + op.index
			} else {
				qubits[j] = op.reg.offset + i
			}
		}
		if err := p.apply(name, name.text, vals, qubits, 0); err != nil {
			return err
		}
	}
	return nil
}

// builtinKind maps OpenQASM gate names onto circuit kinds, including the
// U/CX primitives and common aliases.
func builtinKind(name string) (circuit.Kind, bool) {
	switch name {
	case "U":
		return circuit.U3, true
	case "CX":
		return circuit.CX, true
	case "cp":
		return circuit.CP, true
	}
	return circuit.KindByName(name)
}

// apply expands one gate application into primitive resolvedOps, resolving
// user definitions recursively.
func (p *parser) apply(at token, name string, vals []float64, qubits []int, depth int) error {
	if depth > maxExpandDepth {
		return p.errorf(at, "gate %q expansion exceeds depth %d (recursive definition?)", name, maxExpandDepth)
	}
	// Built-in kinds take precedence over definitions: a textual
	// definition of a standard gate (e.g. a portable "swap" emitted by
	// Serialize) must still map onto the native kind so that circuits
	// round-trip gate for gate.
	if kind, ok := builtinKind(name); ok {
		if kind.Arity() != len(qubits) {
			return p.errorf(at, "gate %q wants %d qubits, got %d", name, kind.Arity(), len(qubits))
		}
		if kind.NumParams() != len(vals) {
			return p.errorf(at, "gate %q wants %d parameters, got %d", name, kind.NumParams(), len(vals))
		}
		if err := distinctQubits(qubits); err != nil {
			return p.errorf(at, "gate %q: %v", name, err)
		}
		p.ops = append(p.ops, resolvedOp{kind: kind, qubits: qubits, params: vals})
		return nil
	}
	if def, ok := p.gates[name]; ok {
		if len(vals) != len(def.params) {
			return p.errorf(at, "gate %q wants %d parameters, got %d", name, len(def.params), len(vals))
		}
		if len(qubits) != len(def.qargs) {
			return p.errorf(at, "gate %q wants %d qubits, got %d", name, len(def.qargs), len(qubits))
		}
		if err := distinctQubits(qubits); err != nil {
			return p.errorf(at, "gate %q: %v", name, err)
		}
		env := make(map[string]float64, len(def.params))
		for i, formal := range def.params {
			env[formal] = vals[i]
		}
		qbind := make(map[string]int, len(def.qargs))
		for i, formal := range def.qargs {
			qbind[formal] = qubits[i]
		}
		for _, stmt := range def.body {
			args := make([]int, len(stmt.args))
			for i, formal := range stmt.args {
				args[i] = qbind[formal]
			}
			sub := make([]float64, len(stmt.exprs))
			for i, e := range stmt.exprs {
				v, err := e.eval(env)
				if err != nil {
					return p.errorf(at, "gate %q: %v", name, err)
				}
				sub[i] = v
			}
			if err := p.apply(at, stmt.name, sub, args, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return p.errorf(at, "unknown gate %q", name)
}

func distinctQubits(qs []int) error {
	for i := 0; i < len(qs); i++ {
		for j := i + 1; j < len(qs); j++ {
			if qs[i] == qs[j] {
				return fmt.Errorf("duplicate qubit operand q%d", qs[i])
			}
		}
	}
	return nil
}

func (p *parser) parseMeasure() error {
	p.advance() // measure
	src, err := p.parseOperand()
	if err != nil {
		return err
	}
	if err := p.expectSymbol("->"); err != nil {
		return err
	}
	dst, err := p.expectIdent()
	if err != nil {
		return err
	}
	size, ok := p.cregs[dst.text]
	if !ok {
		return p.errorf(dst, "unknown classical register %q", dst.text)
	}
	if p.atSymbol("[") {
		idx, err := p.parseBracketInt()
		if err != nil {
			return err
		}
		if idx >= size {
			return p.errorf(dst, "index %d out of range for register %q of size %d", idx, dst.text, size)
		}
		if !src.indexed {
			return p.errorf(dst, "cannot measure a whole register into one bit")
		}
		p.measurements++
	} else {
		if src.indexed {
			p.measurements++
		} else {
			if src.reg.size != size {
				return p.errorf(dst, "measure sizes differ (%d qubits -> %d bits)", src.reg.size, size)
			}
			p.measurements += src.reg.size
		}
	}
	return p.expectSymbol(";")
}

func (p *parser) parseBarrier() error {
	p.advance() // barrier
	for {
		if _, err := p.parseOperand(); err != nil {
			return err
		}
		if !p.atSymbol(",") {
			break
		}
		p.advance()
	}
	p.barriers++
	return p.expectSymbol(";")
}

func (p *parser) parseReset() error {
	p.advance() // reset
	op, err := p.parseOperand()
	if err != nil {
		return err
	}
	if op.indexed {
		p.resets++
	} else {
		p.resets += op.reg.size
	}
	return p.expectSymbol(";")
}

// finish materializes the parsed operations into a circuit.
func (p *parser) finish() (*Result, error) {
	if p.numQubits == 0 {
		return nil, verr.Inputf("qasm: program declares no quantum registers")
	}
	c := circuit.New(p.name, p.numQubits)
	for _, op := range p.ops {
		c.Append(op.kind, op.qubits, op.params...)
	}
	// The parser validates arity, ranges, and operand distinctness before
	// ops reach the builder, but the builder's sticky error is re-checked
	// so no gap between the two validators can leak a malformed circuit.
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("qasm: %w", err)
	}
	return &Result{
		Circuit:      c,
		Measurements: p.measurements,
		Barriers:     p.barriers,
		Resets:       p.resets,
	}, nil
}

// ---- expressions ----

// expr is a parameter expression evaluated against a formal-parameter
// environment.
type expr interface {
	eval(env map[string]float64) (float64, error)
}

type numLit float64

func (n numLit) eval(map[string]float64) (float64, error) { return float64(n), nil }

type piLit struct{}

func (piLit) eval(map[string]float64) (float64, error) { return math.Pi, nil }

type paramRef string

func (p paramRef) eval(env map[string]float64) (float64, error) {
	v, ok := env[string(p)]
	if !ok {
		return 0, fmt.Errorf("unbound parameter %q", string(p))
	}
	return v, nil
}

type unaryNeg struct{ x expr }

func (u unaryNeg) eval(env map[string]float64) (float64, error) {
	v, err := u.x.eval(env)
	return -v, err
}

type binaryOp struct {
	op   byte
	l, r expr
}

func (b binaryOp) eval(env map[string]float64) (float64, error) {
	l, err := b.l.eval(env)
	if err != nil {
		return 0, err
	}
	r, err := b.r.eval(env)
	if err != nil {
		return 0, err
	}
	switch b.op {
	case '+':
		return l + r, nil
	case '-':
		return l - r, nil
	case '*':
		return l * r, nil
	case '/':
		if r == 0 {
			return 0, fmt.Errorf("division by zero in parameter expression")
		}
		return l / r, nil
	case '^':
		return math.Pow(l, r), nil
	default:
		return 0, fmt.Errorf("unknown operator %q", string(b.op))
	}
}

type funcCall struct {
	name string
	arg  expr
}

func (f funcCall) eval(env map[string]float64) (float64, error) {
	v, err := f.arg.eval(env)
	if err != nil {
		return 0, err
	}
	switch f.name {
	case "sin":
		return math.Sin(v), nil
	case "cos":
		return math.Cos(v), nil
	case "tan":
		return math.Tan(v), nil
	case "exp":
		return math.Exp(v), nil
	case "ln":
		if v <= 0 {
			return 0, fmt.Errorf("ln of non-positive value %g", v)
		}
		return math.Log(v), nil
	case "sqrt":
		if v < 0 {
			return 0, fmt.Errorf("sqrt of negative value %g", v)
		}
		return math.Sqrt(v), nil
	default:
		return 0, fmt.Errorf("unknown function %q", f.name)
	}
}

// parseParam parses one parameter expression of at most maxExprTokens
// tokens. formals, when non-nil, names the identifiers allowed as
// parameter references.
func (p *parser) parseParam(formals map[string]bool) (expr, error) {
	p.exprTokens = 0
	e, err := p.parseExpr(formals)
	// parseUnary stops the descent at the bound; closing parentheses
	// taken after the last operand are caught here.
	if err == nil && p.exprTokens > maxExprTokens {
		err = p.errorf(p.peek(), "parameter expression longer than %d tokens", maxExprTokens)
	}
	return e, err
}

// parseExpr parses an additive expression.
func (p *parser) parseExpr(formals map[string]bool) (expr, error) {
	left, err := p.parseTerm(formals)
	if err != nil {
		return nil, err
	}
	for p.atSymbol("+") || p.atSymbol("-") {
		op := p.advance().text[0]
		right, err := p.parseTerm(formals)
		if err != nil {
			return nil, err
		}
		left = binaryOp{op: op, l: left, r: right}
	}
	return left, nil
}

func (p *parser) parseTerm(formals map[string]bool) (expr, error) {
	left, err := p.parseFactor(formals)
	if err != nil {
		return nil, err
	}
	for p.atSymbol("*") || p.atSymbol("/") {
		op := p.advance().text[0]
		right, err := p.parseFactor(formals)
		if err != nil {
			return nil, err
		}
		left = binaryOp{op: op, l: left, r: right}
	}
	return left, nil
}

// parseFactor handles right-associative exponentiation.
func (p *parser) parseFactor(formals map[string]bool) (expr, error) {
	base, err := p.parseUnary(formals)
	if err != nil {
		return nil, err
	}
	if p.atSymbol("^") {
		p.advance()
		exp, err := p.parseFactor(formals)
		if err != nil {
			return nil, err
		}
		return binaryOp{op: '^', l: base, r: exp}, nil
	}
	return base, nil
}

func (p *parser) parseUnary(formals map[string]bool) (expr, error) {
	// Every step of the descent passes here and then takes a token.
	if p.exprTokens >= maxExprTokens {
		return nil, p.errorf(p.peek(), "parameter expression longer than %d tokens", maxExprTokens)
	}
	if p.atSymbol("-") {
		p.advance()
		x, err := p.parseUnary(formals)
		if err != nil {
			return nil, err
		}
		return unaryNeg{x: x}, nil
	}
	return p.parsePrimary(formals)
}

func (p *parser) parsePrimary(formals map[string]bool) (expr, error) {
	t := p.advance()
	switch t.kind {
	case tokNumber:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errorf(t, "malformed number %q", t.text)
		}
		return numLit(v), nil
	case tokIdent:
		if t.text == "pi" {
			return piLit{}, nil
		}
		switch t.text {
		case "sin", "cos", "tan", "exp", "ln", "sqrt":
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			arg, err := p.parseExpr(formals)
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return funcCall{name: t.text, arg: arg}, nil
		}
		if formals != nil && formals[t.text] {
			return paramRef(t.text), nil
		}
		return nil, p.errorf(t, "unknown identifier %q in expression", t.text)
	case tokSymbol:
		if t.text == "(" {
			e, err := p.parseExpr(formals)
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errorf(t, "expected expression, found %s", t)
}
