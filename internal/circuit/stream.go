package circuit

// This file is the streaming half of the IR: the same generator bodies that
// materialize a Circuit can instead push gates one at a time through a
// Source, so million-gate workloads evaluate in O(frontier) memory instead
// of O(gates). Three pieces cooperate:
//
//   - Builder names the gate-emission surface *Circuit already exposes, so
//     a generator written against Builder runs unchanged on either sink.
//   - Emitter is the streaming Builder: it validates exactly like
//     Circuit.Append (same checks, same order, same diagnostics — the
//     checkGate helper is shared) but forwards each gate to a yield
//     callback instead of storing it.
//   - Source is the package's pull-side handle: a named, re-emittable gate
//     stream in program order. Program couples a generator body with its
//     register width and derives both a Circuit and a Source from the one
//     body, which is what keeps the two paths bit-identical by
//     construction.
//
// Emission must be deterministic: every call to Emit yields the same gate
// sequence (generator bodies re-seed their own RNGs), because multi-trial
// evaluation re-emits the source once per trial.

import "velociti/internal/verr"

// Builder is the gate-emission interface shared by *Circuit and *Emitter.
// It carries Circuit's sticky-error contract: a malformed gate records the
// first error, drops the gate, and returns -1; Err reports the diagnostic
// once at the end.
type Builder interface {
	// Append adds a gate of the given kind and returns its id, or -1 on
	// rejection (see Circuit.Append for the validation rules).
	Append(k Kind, qubits []int, params ...float64) int
	// Grow reserves capacity for n additional gates where that is
	// meaningful (a no-op for streaming sinks).
	Grow(n int)

	H(q int) int
	X(q int) int
	Y(q int) int
	Z(q int) int
	S(q int) int
	T(q int) int
	RX(theta float64, q int) int
	RY(theta float64, q int) int
	RZ(theta float64, q int) int
	CX(ctrl, tgt int) int
	CZ(a, b int) int
	SWAP(a, b int) int
	CP(theta float64, a, b int) int
	XX(theta float64, a, b int) int

	// Err returns the first construction error, or nil.
	Err() error
	// NumQubits returns the register width.
	NumQubits() int
}

var (
	_ Builder = (*Circuit)(nil)
	_ Builder = (*Emitter)(nil)
)

// Source is a re-emittable gate stream in program order — the streaming
// counterpart of *Circuit. Emit pushes every gate to yield, stopping early
// with yield's error if the consumer fails. Each call to Emit must produce
// the same sequence (deterministic generators); consumers may not retain
// the *Gate they are handed — its operand and parameter storage is reused
// for the next gate.
type Source struct {
	// Name identifies the stream in reports and cache keys (Circuit.Name's
	// role).
	Name string
	// Qubits is the register width.
	Qubits int
	// Emit runs the stream: it calls yield once per gate in program order
	// and returns the first error — a construction error from the
	// generator, or the error yield returned to stop early.
	Emit func(yield func(*Gate) error) error
}

// Source adapts a materialized circuit into a stream over its gate list.
// A poisoned circuit yields nothing and Emit returns its sticky error.
func (c *Circuit) Source() Source {
	return Source{
		Name:   c.Name,
		Qubits: c.numQubits,
		Emit: func(yield func(*Gate) error) error {
			if c.err != nil {
				return c.err
			}
			for i := range c.gates {
				if err := yield(&c.gates[i]); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// Program is a generator body bound to its register width. The one body
// drives both evaluation paths: Circuit materializes it, Source streams it.
type Program struct {
	// Name identifies the workload (Circuit.Name's role).
	Name string
	// Qubits is the register width.
	Qubits int
	// Body emits the program's gates against b in program order. It must
	// be deterministic across calls (re-seed any RNG inside the body) and
	// must not retain b.
	Body func(b Builder)
}

// Circuit materializes the program and returns the built circuit or its
// first construction error.
func (p Program) Circuit() (*Circuit, error) {
	c := New(p.Name, p.Qubits)
	if c.Err() == nil {
		p.Body(c)
	}
	return c, c.Err()
}

// Source returns the streaming view of the program: each Emit runs Body
// against a fresh Emitter.
func (p Program) Source() Source {
	return Source{
		Name:   p.Name,
		Qubits: p.Qubits,
		Emit: func(yield func(*Gate) error) error {
			e := NewEmitter(p.Name, p.Qubits, yield)
			if e.Err() == nil {
				p.Body(e)
			}
			return e.Err()
		},
	}
}

// Emitter is the streaming Builder: gates are validated with Circuit's
// exact rules and diagnostics, then handed to a yield callback instead of
// being stored. The yielded *Gate reuses one backing buffer, so consumers
// must copy anything they keep. An error returned by yield becomes the
// emitter's sticky error and stops further emission.
type Emitter struct {
	name      string
	numQubits int
	yield     func(*Gate) error
	err       error
	next      int // next gate id
	gate      Gate
	qbuf      [2]int
	pbuf      [3]float64
}

// NewEmitter returns a streaming builder over numQubits qubits forwarding
// to yield. A non-positive width poisons the emitter with Circuit.New's
// exact diagnostic, so the two sinks reject the same inputs identically.
func NewEmitter(name string, numQubits int, yield func(*Gate) error) *Emitter {
	e := &Emitter{name: name, yield: yield}
	if numQubits <= 0 {
		e.fail(verr.Inputf("circuit %q: numQubits must be positive, got %d", name, numQubits))
		return e
	}
	e.numQubits = numQubits
	return e
}

func (e *Emitter) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// Err returns the first construction or consumer error, or nil.
func (e *Emitter) Err() error { return e.err }

// NumQubits returns the register width.
func (e *Emitter) NumQubits() int { return e.numQubits }

// NumGates returns the number of gates emitted so far.
func (e *Emitter) NumGates() int { return e.next }

// Grow is a no-op: a stream has nothing to reserve.
func (e *Emitter) Grow(int) {}

// emit forwards the assembled gate, assigning its id.
func (e *Emitter) emit() int {
	id := e.next
	e.gate.ID = id
	if err := e.yield(&e.gate); err != nil {
		e.fail(err)
		return -1
	}
	e.next++
	return id
}

// Append validates and forwards a gate of the given kind; same contract as
// Circuit.Append.
func (e *Emitter) Append(k Kind, qubits []int, params ...float64) int {
	if e.err != nil {
		return -1
	}
	if err := checkGate(e.numQubits, k, qubits, params); err != nil {
		e.fail(err)
		return -1
	}
	e.gate.Kind = k
	e.gate.Qubits = e.qbuf[:copy(e.qbuf[:], qubits)]
	e.gate.Params = e.pbuf[:copy(e.pbuf[:], params)]
	return e.emit()
}

// append1 mirrors Circuit.append1: the parameterless 1-qubit fast path.
func (e *Emitter) append1(k Kind, q int) int {
	if e.err != nil || uint(q) >= uint(e.numQubits) {
		return e.append1Err(q)
	}
	e.qbuf[0] = q
	e.gate.Kind = k
	e.gate.Qubits = e.qbuf[:1]
	e.gate.Params = nil
	return e.emit()
}

func (e *Emitter) append1Err(q int) int {
	if e.err == nil {
		e.fail(verr.Inputf("circuit: qubit q%d out of range [0,%d)", q, e.numQubits))
	}
	return -1
}

// append2 mirrors Circuit.append2: the parameterless 2-qubit fast path.
func (e *Emitter) append2(k Kind, a, b int) int {
	if e.err != nil || uint(a) >= uint(e.numQubits) || uint(b) >= uint(e.numQubits) || a == b {
		return e.append2Err(k, a, b)
	}
	e.qbuf[0], e.qbuf[1] = a, b
	e.gate.Kind = k
	e.gate.Qubits = e.qbuf[:2]
	e.gate.Params = nil
	return e.emit()
}

func (e *Emitter) append2Err(k Kind, a, b int) int {
	if e.err != nil {
		return -1
	}
	if a < 0 || a >= e.numQubits {
		e.fail(verr.Inputf("circuit: qubit q%d out of range [0,%d)", a, e.numQubits))
		return -1
	}
	if b < 0 || b >= e.numQubits {
		e.fail(verr.Inputf("circuit: qubit q%d out of range [0,%d)", b, e.numQubits))
		return -1
	}
	e.fail(verr.Inputf("circuit: 2-qubit gate %s on identical qubits q%d", k.Name(), a))
	return -1
}

func (e *Emitter) H(q int) int                    { return e.append1(H, q) }
func (e *Emitter) X(q int) int                    { return e.append1(X, q) }
func (e *Emitter) Y(q int) int                    { return e.append1(Y, q) }
func (e *Emitter) Z(q int) int                    { return e.append1(Z, q) }
func (e *Emitter) S(q int) int                    { return e.append1(S, q) }
func (e *Emitter) T(q int) int                    { return e.append1(T, q) }
func (e *Emitter) RX(theta float64, q int) int    { return e.Append(RX, []int{q}, theta) }
func (e *Emitter) RY(theta float64, q int) int    { return e.Append(RY, []int{q}, theta) }
func (e *Emitter) RZ(theta float64, q int) int    { return e.Append(RZ, []int{q}, theta) }
func (e *Emitter) CX(ctrl, tgt int) int           { return e.append2(CX, ctrl, tgt) }
func (e *Emitter) CZ(a, b int) int                { return e.append2(CZ, a, b) }
func (e *Emitter) SWAP(a, b int) int              { return e.append2(SWAP, a, b) }
func (e *Emitter) CP(theta float64, a, b int) int { return e.Append(CP, []int{a, b}, theta) }
func (e *Emitter) XX(theta float64, a, b int) int { return e.Append(XX, []int{a, b}, theta) }
