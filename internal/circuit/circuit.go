// Package circuit defines VelociTI's quantum-circuit intermediate
// representation.
//
// VelociTI is a timing and performance tool, not a functional simulator
// (§III-C of the paper): for performance purposes a gate is characterized by
// the number of qubits it touches, not by its unitary. The IR nevertheless
// records the concrete gate kind and parameters so that the same circuit
// objects can be pretty-printed, serialized to OpenQASM, functionally
// validated on small systems by internal/statevec, and abstracted to the
// paper's (qubits, #1-qubit gates, #2-qubit gates) boundary conditions.
//
// Gates are identified SSA-style: each gate instance acting on a given qubit
// set receives an incrementing instance number, so the gate label "q3q4.2"
// names the second gate operating on qubits 3 and 4 — the labeling scheme of
// the paper's Figure 3 (§IV-C).
package circuit

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"velociti/internal/verr"
)

// Kind identifies the logical operation a gate performs.
type Kind int

// Supported gate kinds. One-qubit kinds come first, then two-qubit kinds.
const (
	// One-qubit gates.
	I   Kind = iota // identity
	H               // Hadamard
	X               // Pauli-X
	Y               // Pauli-Y
	Z               // Pauli-Z
	S               // phase sqrt(Z)
	Sdg             // S-dagger
	T               // pi/8
	Tdg             // T-dagger
	RX              // rotation about X (1 param)
	RY              // rotation about Y (1 param)
	RZ              // rotation about Z (1 param)
	U1              // diagonal phase (1 param)
	U2              // generic single-qubit (2 params)
	U3              // generic single-qubit (3 params)
	SX              // sqrt(X)

	// Two-qubit gates.
	CX   // controlled-X (CNOT)
	CZ   // controlled-Z
	SWAP // qubit exchange
	XX   // Mølmer–Sørensen XX interaction (1 param), the native TI entangler
	CP   // controlled phase (1 param)
	RZZ  // ZZ interaction (1 param)

	numKinds
)

var kindInfo = [numKinds]struct {
	name   string
	arity  int
	params int
}{
	I:    {"id", 1, 0},
	H:    {"h", 1, 0},
	X:    {"x", 1, 0},
	Y:    {"y", 1, 0},
	Z:    {"z", 1, 0},
	S:    {"s", 1, 0},
	Sdg:  {"sdg", 1, 0},
	T:    {"t", 1, 0},
	Tdg:  {"tdg", 1, 0},
	RX:   {"rx", 1, 1},
	RY:   {"ry", 1, 1},
	RZ:   {"rz", 1, 1},
	U1:   {"u1", 1, 1},
	U2:   {"u2", 1, 2},
	U3:   {"u3", 1, 3},
	SX:   {"sx", 1, 0},
	CX:   {"cx", 2, 0},
	CZ:   {"cz", 2, 0},
	SWAP: {"swap", 2, 0},
	XX:   {"rxx", 2, 1},
	CP:   {"cp", 2, 1},
	RZZ:  {"rzz", 2, 1},
}

// Name returns the OpenQASM-style lowercase mnemonic of the kind.
func (k Kind) Name() string {
	if k < 0 || k >= numKinds {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindInfo[k].name
}

// Arity returns the number of qubits the kind operates on (1 or 2).
func (k Kind) Arity() int {
	if k < 0 || k >= numKinds {
		return 0
	}
	return kindInfo[k].arity
}

// NumParams returns the number of real parameters (rotation angles) the
// kind requires.
func (k Kind) NumParams() int {
	if k < 0 || k >= numKinds {
		return 0
	}
	return kindInfo[k].params
}

// KindByName returns the Kind with the given mnemonic and whether it exists.
func KindByName(name string) (Kind, bool) {
	for k := Kind(0); k < numKinds; k++ {
		if kindInfo[k].name == name {
			return k, true
		}
	}
	return 0, false
}

// Kinds returns all supported gate kinds in declaration order.
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// Gate is a single operation in a circuit.
type Gate struct {
	// ID is the gate's position in the circuit's gate list (0-based). It
	// is unique within a circuit and assigned by the builder.
	ID int
	// Kind is the logical operation.
	Kind Kind
	// Qubits are the operand qubits; len(Qubits) == Kind.Arity(). For
	// controlled gates, Qubits[0] is the control and Qubits[1] the target.
	Qubits []int
	// Params are rotation angles in radians; len == Kind.NumParams().
	Params []float64
}

// IsTwoQubit reports whether the gate touches two qubits.
func (g Gate) IsTwoQubit() bool { return g.Kind.Arity() == 2 }

// Touches reports whether the gate operates on qubit q.
func (g Gate) Touches(q int) bool {
	for _, x := range g.Qubits {
		if x == q {
			return true
		}
	}
	return false
}

// String renders the gate as e.g. "cx q0,q1" or "rz(0.5) q3".
func (g Gate) String() string {
	var b strings.Builder
	b.WriteString(g.Kind.Name())
	if len(g.Params) > 0 {
		b.WriteByte('(')
		for i, p := range g.Params {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%g", p)
		}
		b.WriteByte(')')
	}
	b.WriteByte(' ')
	for i, q := range g.Qubits {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "q%d", q)
	}
	return b.String()
}

// Circuit is an ordered list of gates over a fixed qubit register.
//
// The builder follows a sticky-error contract (like bufio.Writer): invalid
// construction — a non-positive register width, a gate with the wrong
// operand or parameter count, an out-of-range qubit — records the first
// error instead of panicking, the offending gate is dropped, and Err
// returns the diagnostic. Code assembling circuits from untrusted input
// checks Err (or Validate) once at the end instead of guarding every
// append.
type Circuit struct {
	// Name identifies the circuit in reports (e.g. "qft64").
	Name string

	numQubits int
	gates     []Gate
	// arena backs the Qubits slices of appended gates so synthesis loops
	// don't allocate per gate. Gates receive disjoint capacity-clipped
	// windows; when a block fills, a fresh one is started and earlier gates
	// keep referencing the old block.
	//vet:keyexempt arena -- allocation backing store; its contents are exactly the gates' operand slices, which Fingerprint already hashes
	arena []int
	//vet:keyexempt err -- sticky construction error; a poisoned circuit is rejected by Validate before any keyed artifact is built
	err error
}

// New returns an empty circuit over numQubits qubits. A non-positive width
// yields an empty zero-qubit circuit whose Err reports the problem; every
// subsequent Append fails against the empty register, so the poisoned
// circuit stays inert rather than crashing the caller.
func New(name string, numQubits int) *Circuit {
	return (&Circuit{}).init(name, numQubits)
}

// init resets a circuit to the empty state New produces, keeping whatever
// gate and arena capacity the struct already carries.
func (c *Circuit) init(name string, numQubits int) *Circuit {
	c.Name = name
	c.numQubits = 0
	c.gates = c.gates[:0]
	c.arena = c.arena[:0]
	c.err = nil
	if numQubits <= 0 {
		c.fail(verr.Inputf("circuit %q: numQubits must be positive, got %d", name, numQubits))
		return c
	}
	c.numQubits = numQubits
	return c
}

// scratchPool holds retired circuits for hot synthesis loops. It only ever
// contains circuits explicitly handed back through Recycle, so ordinary
// construction is unaffected.
var scratchPool sync.Pool

// NewScratch is New, but reuses a recycled circuit's gate and arena storage
// when one is available. The returned circuit is indistinguishable from a
// fresh New result.
func NewScratch(name string, numQubits int) *Circuit {
	if c, _ := scratchPool.Get().(*Circuit); c != nil {
		return c.init(name, numQubits)
	}
	return New(name, numQubits)
}

// Recycle retires c's storage for reuse by NewScratch. The caller must own
// every live reference into c — the circuit itself, its Gates slice, and
// each gate's Qubits view — because a later NewScratch will overwrite them
// in place. Trial loops that synthesize, price, and discard circuits use
// this to stay allocation-flat; anything cached or returned to a caller
// must never be recycled.
func Recycle(c *Circuit) {
	if c == nil {
		return
	}
	scratchPool.Put(c)
}

// fail records the first construction error.
func (c *Circuit) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Err returns the first construction error recorded by New or Append, or
// nil if the circuit was built cleanly.
func (c *Circuit) Err() error { return c.err }

// NumQubits returns the register width.
func (c *Circuit) NumQubits() int { return c.numQubits }

// NumGates returns the total gate count.
func (c *Circuit) NumGates() int { return len(c.gates) }

// Gates returns the gate list in program order. The returned slice is the
// circuit's backing store and must not be modified.
func (c *Circuit) Gates() []Gate { return c.gates }

// Gate returns the gate with the given id.
//
// Invariant, not input validation: gate ids are produced by this package's
// builder and by the framework's schedulers, never by external input, so an
// out-of-range id is a programmer bug and panics deliberately (the
// errors-not-panics contract applies to input-reachable paths only).
func (c *Circuit) Gate(id int) Gate {
	if id < 0 || id >= len(c.gates) {
		panic(fmt.Sprintf("circuit: gate %d out of range [0,%d)", id, len(c.gates)))
	}
	return c.gates[id]
}

// Append adds a gate of the given kind and returns its id. A malformed gate
// — operand or parameter count not matching the kind, a qubit index out of
// range, or a 2-qubit gate naming the same qubit twice — is dropped: Append
// records the first such error (see Err) and returns -1.
func (c *Circuit) Append(k Kind, qubits []int, params ...float64) int {
	if c.err != nil {
		// Once poisoned, the circuit stays inert so a long builder chain
		// degrades into one Err() check at the end.
		return -1
	}
	if err := checkGate(c.numQubits, k, qubits, params); err != nil {
		c.fail(err)
		return -1
	}
	id := len(c.gates)
	c.gates = append(c.gates, Gate{
		ID:     id,
		Kind:   k,
		Qubits: c.internQubits(qubits),
		Params: append([]float64(nil), params...),
	})
	return id
}

// checkGate validates one gate against the register width: the single
// source of Append's rules and diagnostics, shared by *Circuit and the
// streaming *Emitter so both sinks reject exactly the same gates with
// exactly the same errors, in the same order.
func checkGate(numQubits int, k Kind, qubits []int, params []float64) error {
	if k < 0 || k >= numKinds {
		return verr.Inputf("circuit: unknown gate kind %d", int(k))
	}
	if len(qubits) != k.Arity() {
		return verr.Inputf("circuit: gate %s wants %d qubits, got %d", k.Name(), k.Arity(), len(qubits))
	}
	if len(params) != k.NumParams() {
		return verr.Inputf("circuit: gate %s wants %d params, got %d", k.Name(), k.NumParams(), len(params))
	}
	for _, q := range qubits {
		if q < 0 || q >= numQubits {
			return verr.Inputf("circuit: qubit q%d out of range [0,%d)", q, numQubits)
		}
	}
	if len(qubits) == 2 && qubits[0] == qubits[1] {
		return verr.Inputf("circuit: 2-qubit gate %s on identical qubits q%d", k.Name(), qubits[0])
	}
	return nil
}

// internQubits copies an operand list into the circuit's arena. The window
// is capacity-clipped so growing one gate's slice can never clobber a
// neighbour's operands.
func (c *Circuit) internQubits(qubits []int) []int {
	if len(qubits) == 0 {
		return nil
	}
	c.ensureArena(len(qubits))
	start := len(c.arena)
	c.arena = append(c.arena, qubits...)
	return c.arena[start:len(c.arena):len(c.arena)]
}

// ensureArena makes room for n more arena ints, starting a fresh block when
// the current one is full (earlier gates keep referencing the old block).
func (c *Circuit) ensureArena(n int) {
	if cap(c.arena)-len(c.arena) >= n {
		return
	}
	g := 2 * cap(c.arena)
	if g < 64 {
		g = 64
	}
	if g < n {
		g = n
	}
	c.arena = make([]int, 0, g)
}

// append1 is Append specialized for a parameterless 1-qubit kind: same
// sticky-error contract, same diagnostics, no generic dispatch. Synthesis
// loops emit millions of these, so the rejection paths are outlined to
// keep the common path branch-light.
func (c *Circuit) append1(k Kind, q int) int {
	if c.err != nil || uint(q) >= uint(c.numQubits) {
		return c.append1Err(q)
	}
	c.ensureArena(1)
	start := len(c.arena)
	c.arena = append(c.arena, q)
	id := len(c.gates)
	c.gates = append(c.gates, Gate{ID: id, Kind: k, Qubits: c.arena[start : start+1 : start+1]})
	return id
}

// append1Err records append1's rejection: a no-op on an already-failed
// circuit, an input error otherwise.
func (c *Circuit) append1Err(q int) int {
	if c.err == nil {
		c.fail(verr.Inputf("circuit: qubit q%d out of range [0,%d)", q, c.numQubits))
	}
	return -1
}

// append2 is Append specialized for a parameterless 2-qubit kind.
func (c *Circuit) append2(k Kind, a, b int) int {
	if c.err != nil || uint(a) >= uint(c.numQubits) || uint(b) >= uint(c.numQubits) || a == b {
		return c.append2Err(k, a, b)
	}
	c.ensureArena(2)
	start := len(c.arena)
	c.arena = append(c.arena, a, b)
	id := len(c.gates)
	c.gates = append(c.gates, Gate{ID: id, Kind: k, Qubits: c.arena[start : start+2 : start+2]})
	return id
}

// append2Err records append2's rejection with Append's exact diagnostics,
// checked in Append's order: operand range first, then the identical-qubit
// rule.
func (c *Circuit) append2Err(k Kind, a, b int) int {
	if c.err != nil {
		return -1
	}
	if a < 0 || a >= c.numQubits {
		c.fail(verr.Inputf("circuit: qubit q%d out of range [0,%d)", a, c.numQubits))
		return -1
	}
	if b < 0 || b >= c.numQubits {
		c.fail(verr.Inputf("circuit: qubit q%d out of range [0,%d)", b, c.numQubits))
		return -1
	}
	c.fail(verr.Inputf("circuit: 2-qubit gate %s on identical qubits q%d", k.Name(), a))
	return -1
}

// Grow reserves capacity for n additional gates and their operands, so a
// synthesis loop of n Appends performs no per-gate allocation. It never
// changes the circuit's contents; non-positive n and poisoned circuits are
// no-ops.
func (c *Circuit) Grow(n int) {
	if c.err != nil || n <= 0 {
		return
	}
	if free := cap(c.gates) - len(c.gates); free < n {
		gates := make([]Gate, len(c.gates), len(c.gates)+n)
		copy(gates, c.gates)
		c.gates = gates
	}
	if free := cap(c.arena) - len(c.arena); free < 2*n {
		c.arena = make([]int, 0, 2*n)
	}
}

// Convenience builders for the common gates.

func (c *Circuit) H(q int) int                    { return c.append1(H, q) }
func (c *Circuit) X(q int) int                    { return c.append1(X, q) }
func (c *Circuit) Y(q int) int                    { return c.append1(Y, q) }
func (c *Circuit) Z(q int) int                    { return c.append1(Z, q) }
func (c *Circuit) S(q int) int                    { return c.append1(S, q) }
func (c *Circuit) T(q int) int                    { return c.append1(T, q) }
func (c *Circuit) RX(theta float64, q int) int    { return c.Append(RX, []int{q}, theta) }
func (c *Circuit) RY(theta float64, q int) int    { return c.Append(RY, []int{q}, theta) }
func (c *Circuit) RZ(theta float64, q int) int    { return c.Append(RZ, []int{q}, theta) }
func (c *Circuit) CX(ctrl, tgt int) int           { return c.append2(CX, ctrl, tgt) }
func (c *Circuit) CZ(a, b int) int                { return c.append2(CZ, a, b) }
func (c *Circuit) SWAP(a, b int) int              { return c.append2(SWAP, a, b) }
func (c *Circuit) CP(theta float64, a, b int) int { return c.Append(CP, []int{a, b}, theta) }
func (c *Circuit) XX(theta float64, a, b int) int { return c.Append(XX, []int{a, b}, theta) }

// NumOneQubitGates returns the count of 1-qubit gates (the paper's q).
func (c *Circuit) NumOneQubitGates() int {
	n := 0
	for _, g := range c.gates {
		if g.Kind.Arity() == 1 {
			n++
		}
	}
	return n
}

// NumTwoQubitGates returns the count of 2-qubit gates (the paper's p).
func (c *Circuit) NumTwoQubitGates() int {
	n := 0
	for _, g := range c.gates {
		if g.Kind.Arity() == 2 {
			n++
		}
	}
	return n
}

// Spec abstracts the circuit down to the paper's boundary conditions: the
// register width and the 1- and 2-qubit gate counts (Table I).
func (c *Circuit) Spec() Spec {
	return Spec{
		Name:          c.Name,
		Qubits:        c.numQubits,
		OneQubitGates: c.NumOneQubitGates(),
		TwoQubitGates: c.NumTwoQubitGates(),
	}
}

// Depth returns the logical circuit depth: the length of the longest chain
// of gates linked by shared qubits, counting every gate as one time step.
// An empty circuit has depth 0.
func (c *Circuit) Depth() int {
	frontier := make([]int, c.numQubits)
	depth := 0
	for _, g := range c.gates {
		level := 0
		for _, q := range g.Qubits {
			if frontier[q] > level {
				level = frontier[q]
			}
		}
		level++
		for _, q := range g.Qubits {
			frontier[q] = level
		}
		if level > depth {
			depth = level
		}
	}
	return depth
}

// TwoQubitRatio returns the ratio of 2-qubit gates to qubits, the circuit
// composition metric the paper's scalability analysis turns on (§VI-B).
func (c *Circuit) TwoQubitRatio() float64 {
	return float64(c.NumTwoQubitGates()) / float64(c.numQubits)
}

// Labels returns the SSA-style label of every gate, in program order. The
// i-th instance (1-based) of a gate on a qubit set gets suffix ".i", with
// the suffix omitted for the first instance, e.g. "q3q4", "q3q4.2". This is
// the labeling scheme of the paper's Figure 3. Each label is a substring of
// one LabelText pass.
func (c *Circuit) Labels() []string {
	text, ends := c.LabelText()
	labels := make([]string, len(ends))
	start := int32(0)
	for i, end := range ends {
		labels[i] = text[start:end]
		start = end
	}
	return labels
}

// LabelText returns every gate's Labels entry in one string: gate i's
// label is text[ends[i-1]:ends[i]], with ends[-1] taken as 0. The qubit set
// is named lower qubit first (gate direction is deliberately erased: the
// paper labels nodes by the qubit pair, not by control/target roles), and
// instances are counted on an integer key, lower<<32 | (upper+1) with
// upper = -1 for a 1-qubit gate, so the pass builds no per-gate string.
func (c *Circuit) LabelText() (text string, ends []int32) {
	n := len(c.gates)
	ends = make([]int32, n)
	// A circuit holds at most q 1-qubit and q(q-1)/2 2-qubit sets; sizing
	// the map up front spares the rehashes of growing it gate by gate.
	q := c.numQubits
	sets := q + q*(q-1)/2
	if sets > n {
		sets = n
	}
	counts := make(map[uint64]int32, sets)
	bp, _ := labelBufPool.Get().(*[]byte)
	if bp == nil {
		b := make([]byte, 0, 8*n)
		bp = &b
	}
	buf := (*bp)[:0]
	for i := range c.gates {
		qs := c.gates[i].Qubits
		lo, hi := qs[0], -1
		if len(qs) == 2 {
			hi = qs[1]
			if hi < lo {
				lo, hi = hi, lo
			}
		}
		key := uint64(lo)<<32 | uint64(hi+1)
		k := counts[key] + 1
		counts[key] = k
		buf = append(buf, 'q')
		buf = strconv.AppendInt(buf, int64(lo), 10)
		if hi >= 0 {
			buf = append(buf, 'q')
			buf = strconv.AppendInt(buf, int64(hi), 10)
		}
		if k > 1 {
			buf = append(buf, '.')
			buf = strconv.AppendInt(buf, int64(k), 10)
		}
		ends[i] = int32(len(buf))
	}
	text = string(buf)
	*bp = buf
	labelBufPool.Put(bp)
	return text, ends
}

// labelBufPool recycles LabelText's text buffer. A cold trial labels a
// fresh circuit once, and building each text in a new buffer that grows
// and is then dropped raised a cold sweep's peak RSS by about 15%.
var labelBufPool sync.Pool

// DependencyEdges returns the gate-ordering edges used to build the
// performance-model DAG: an edge (a, b) means gate b is the next gate after
// gate a that touches one of a's qubits. Each gate has at most one
// predecessor per operand qubit, and duplicate (a, b) pairs are emitted
// once. Edges are ordered by (a, b).
func (c *Circuit) DependencyEdges() [][2]int {
	last := make([]int, c.numQubits)
	for i := range last {
		last[i] = -1
	}
	seen := make(map[[2]int]bool)
	var edges [][2]int
	for _, g := range c.gates {
		for _, q := range g.Qubits {
			if p := last[q]; p >= 0 {
				e := [2]int{p, g.ID}
				if !seen[e] {
					seen[e] = true
					edges = append(edges, e)
				}
			}
		}
		for _, q := range g.Qubits {
			last[q] = g.ID
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	return edges
}

// InteractionGraph returns, for each unordered qubit pair that shares at
// least one 2-qubit gate, the number of such gates. Keys are [2]int with
// the smaller qubit first. Placement policies use this to co-locate
// frequently interacting qubits.
func (c *Circuit) InteractionGraph() map[[2]int]int {
	out := make(map[[2]int]int)
	for _, g := range c.gates {
		if !g.IsTwoQubit() {
			continue
		}
		a, b := g.Qubits[0], g.Qubits[1]
		if a > b {
			a, b = b, a
		}
		out[[2]int{a, b}]++
	}
	return out
}

// Clone returns a deep copy of the circuit, including any recorded
// construction error.
func (c *Circuit) Clone() *Circuit {
	out := &Circuit{Name: c.Name, numQubits: c.numQubits, err: c.err}
	out.gates = make([]Gate, len(c.gates))
	for i, g := range c.gates {
		out.gates[i] = Gate{
			ID:     g.ID,
			Kind:   g.Kind,
			Qubits: append([]int(nil), g.Qubits...),
			Params: append([]float64(nil), g.Params...),
		}
	}
	return out
}

// String renders the circuit as a program listing.
func (c *Circuit) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "circuit %s: %d qubits, %d gates\n", c.Name, c.numQubits, len(c.gates))
	for _, g := range c.gates {
		fmt.Fprintf(&b, "  %s\n", g.String())
	}
	return b.String()
}

// Spec is the paper's abstract circuit description (Table I): the boundary
// conditions VelociTI needs to model a workload without its gate-level
// structure.
type Spec struct {
	// Name identifies the workload in reports.
	Name string `json:"name"`
	// Qubits is the register width.
	Qubits int `json:"qubits"`
	// OneQubitGates is q, the number of 1-qubit gate operations.
	OneQubitGates int `json:"one_qubit_gates"`
	// TwoQubitGates is p, the number of 2-qubit gate operations.
	TwoQubitGates int `json:"two_qubit_gates"`
}

// Validate reports an input error if the spec is not physically
// meaningful.
func (s Spec) Validate() error {
	if s.Qubits <= 0 {
		return verr.Inputf("circuit spec %q: qubits must be positive, got %d", s.Name, s.Qubits)
	}
	if s.OneQubitGates < 0 || s.TwoQubitGates < 0 {
		return verr.Inputf("circuit spec %q: gate counts must be non-negative (q=%d, p=%d)",
			s.Name, s.OneQubitGates, s.TwoQubitGates)
	}
	if s.TwoQubitGates > 0 && s.Qubits < 2 {
		return verr.Inputf("circuit spec %q: 2-qubit gates require at least 2 qubits", s.Name)
	}
	return nil
}

// TotalGates returns q + p.
func (s Spec) TotalGates() int { return s.OneQubitGates + s.TwoQubitGates }

// TwoQubitRatio returns p / qubits (§VI-B's circuit-composition metric).
func (s Spec) TwoQubitRatio() float64 {
	return float64(s.TwoQubitGates) / float64(s.Qubits)
}

// String renders the spec in Table II style.
func (s Spec) String() string {
	return fmt.Sprintf("%s: %d qubits, %d 1q gates, %d 2q gates", s.Name, s.Qubits, s.OneQubitGates, s.TwoQubitGates)
}
