// Package apps provides the quantum application workloads of the paper's
// evaluation (Table II, §VI): Supremacy, QAOA, SquareRoot (Grover's
// search), QFT, Adder, and Bernstein–Vazirani.
//
// VelociTI consumes a workload as its boundary conditions — qubit count and
// 1-/2-qubit gate counts (Table I) — so PaperSpecs returns exactly the
// Table II attributes. Table II reports no 1-qubit gate counts, and the
// paper's serial results pin q = 0: with w = 4 weak links used on 16-ion
// chains, Eq. 1–2 gives the 64-qubit QFT exactly
// 4·(2·100 µs) + 4028·100 µs = 403.6 ms — the paper's reported value to
// the digit — only when q·δ contributes nothing, and the six-application
// geometric-mean serial time then lands on the paper's 69.3 ms. PaperSpecs
// therefore carries q = 0; the gate-level generators below still emit real
// 1-qubit gates for the functional path (at δ = 1 µs against γ = 100 µs
// they would perturb runtimes by under 2% anyway).
//
// The gate-level generators themselves are an extension: they emit real
// circuits whose 2-qubit gate counts match Table II exactly where the
// construction is fully determined (QFT, Supremacy, QAOA) and approximately
// elsewhere (Grover, Adder, BV — see each generator's comment). They are
// functionally validated against the state-vector simulator in the test
// suites.
package apps

import (
	"fmt"
	"math"

	"velociti/internal/circuit"
	"velociti/internal/stats"
	"velociti/internal/verr"
)

// App couples a Table II workload's abstract spec with its gate-level
// generator.
type App struct {
	// Spec is the paper's boundary conditions for the workload
	// (Table II qubit and 2-qubit gate counts).
	Spec circuit.Spec
	// Build generates a concrete gate-level circuit for the workload,
	// returning an input-kind error when the fixed Table II parameters
	// would be invalid (they never are; the error path exists so callers
	// share one contract with the parameterized generators).
	Build func() (*circuit.Circuit, error)
	// Program returns the same generator as a streaming-capable
	// circuit.Program: the one body behind Build, so Program().Circuit()
	// and Build() produce bit-identical circuits and Program().Source()
	// emits the same gates without materializing them.
	Program func() (circuit.Program, error)
}

// materialize adapts a Program constructor into App.Build's contract.
func materialize(prog func() (circuit.Program, error)) func() (*circuit.Circuit, error) {
	return func() (*circuit.Circuit, error) {
		p, err := prog()
		if err != nil {
			return nil, err
		}
		return p.Circuit()
	}
}

// Name returns the workload name.
func (a App) Name() string { return a.Spec.Name }

// PaperSpecs returns the six Table II workloads in table order with the
// paper's exact qubit and 2-qubit gate counts.
func PaperSpecs() []circuit.Spec {
	return []circuit.Spec{
		{Name: "Supremacy", Qubits: 64, TwoQubitGates: 560},
		{Name: "QAOA", Qubits: 64, TwoQubitGates: 1260},
		{Name: "SquareRoot", Qubits: 78, TwoQubitGates: 1028},
		{Name: "QFT", Qubits: 64, TwoQubitGates: 4032},
		{Name: "Adder", Qubits: 64, TwoQubitGates: 545},
		{Name: "BV", Qubits: 64, TwoQubitGates: 64},
	}
}

// Catalog returns the six Table II workloads with their generators.
func Catalog() []App {
	specs := PaperSpecs()
	progs := []func() (circuit.Program, error){
		func() (circuit.Program, error) { return SupremacyProgram(8, 8, 20, 1) },
		func() (circuit.Program, error) {
			edges, err := RandomGraph(64, 315, 1)
			if err != nil {
				return circuit.Program{}, err
			}
			return QAOAProgram(64, edges, 2, 1)
		},
		func() (circuit.Program, error) { return GroverProgram(40, 1) },
		func() (circuit.Program, error) { return QFTProgram(64) },
		func() (circuit.Program, error) { return CuccaroAdderProgram(31) },
		func() (circuit.Program, error) { return BernsteinVaziraniProgram(64, nil) },
	}
	out := make([]App, len(specs))
	for i := range specs {
		out[i] = App{Spec: specs[i], Build: materialize(progs[i]), Program: progs[i]}
	}
	return out
}

// ByName returns the catalog entry with the given name (case-sensitive,
// matching Table II).
func ByName(name string) (App, error) {
	for _, a := range Catalog() {
		if a.Spec.Name == name {
			return a, nil
		}
	}
	return App{}, verr.Inputf("apps: unknown application %q (want one of Supremacy, QAOA, SquareRoot, QFT, Adder, BV)", name)
}

// QFT builds the n-qubit quantum Fourier transform with every controlled
// phase decomposed into its standard {rz, cx, rz, cx, rz} form, yielding
// exactly n(n−1) CX gates — 4032 for n = 64, matching Table II — and
// n + 3·n(n−1)/2 one-qubit gates. No terminal swap network is emitted
// (Table II's count excludes it).
func QFT(n int) (*circuit.Circuit, error) {
	p, err := QFTProgram(n)
	if err != nil {
		return nil, err
	}
	return p.Circuit()
}

// QFTProgram is QFT as a streaming-capable program: the identical gate
// sequence, emitted against any circuit.Builder. The controlled-phase
// angle π/2^d depends only on the qubit distance d = j−i, so the n−1
// angles are computed once here and every emission indexes them. The
// expression is the per-gate one, so the bits are too, including
// d ≥ 1024, where the power overflows to +Inf and the angle is 0.
func QFTProgram(n int) (circuit.Program, error) {
	if n < 1 {
		return circuit.Program{}, verr.Inputf("apps: QFT needs at least 1 qubit, got %d", n)
	}
	angles := make([]float64, n) // angles[d] for d in [1, n); angles[0] is unused
	for d := 1; d < n; d++ {
		angles[d] = math.Pi / math.Pow(2, float64(d))
	}
	return circuit.Program{
		Name:   fmt.Sprintf("qft%d", n),
		Qubits: n,
		Body: func(c circuit.Builder) {
			for i := 0; i < n; i++ {
				c.H(i)
				for j := i + 1; j < n; j++ {
					appendCP(c, angles[j-i], j, i)
				}
			}
		},
	}, nil
}

// appendCP emits a controlled-phase gate decomposed into 1-qubit rotations
// and two CX gates.
func appendCP(c circuit.Builder, theta float64, ctrl, tgt int) {
	c.RZ(theta/2, ctrl)
	c.CX(ctrl, tgt)
	c.RZ(-theta/2, tgt)
	c.CX(ctrl, tgt)
	c.RZ(theta/2, tgt)
}

// Supremacy builds a Google-style random circuit sampling workload on a
// rows×cols grid: a layer of Hadamards, then `cycles` cycles each applying
// a random one-qubit gate (√X, √Y, or T) to every qubit followed by CZ
// gates on one of four alternating grid-edge patterns. On an 8×8 grid the
// four patterns cover 32+24+32+24 = 112 edges, so 20 cycles give exactly
// 560 CZ gates — Table II's count. The random 1-qubit gate choice is
// seeded for reproducibility.
func Supremacy(rows, cols, cycles int, seed int64) (*circuit.Circuit, error) {
	p, err := SupremacyProgram(rows, cols, cycles, seed)
	if err != nil {
		return nil, err
	}
	return p.Circuit()
}

// SupremacyProgram is Supremacy as a streaming-capable program. The body
// re-seeds its generator on every emission, so repeated streams yield the
// identical gate sequence.
func SupremacyProgram(rows, cols, cycles int, seed int64) (circuit.Program, error) {
	if rows < 1 || cols < 1 || cycles < 0 {
		return circuit.Program{}, verr.Inputf("apps: supremacy grid must be positive with non-negative cycles, got %dx%d over %d cycles", rows, cols, cycles)
	}
	n := rows * cols
	return circuit.Program{
		Name:   fmt.Sprintf("supremacy%dx%dx%d", rows, cols, cycles),
		Qubits: n,
		Body: func(c circuit.Builder) {
			supremacyBody(c, rows, cols, cycles, seed)
		},
	}, nil
}

func supremacyBody(c circuit.Builder, rows, cols, cycles int, seed int64) {
	n := rows * cols
	r := stats.NewRand(seed)
	at := func(row, col int) int { return row*cols + col }
	for q := 0; q < n; q++ {
		c.H(q)
	}
	for cyc := 0; cyc < cycles; cyc++ {
		for q := 0; q < n; q++ {
			switch r.Intn(3) {
			case 0:
				c.RX(math.Pi/2, q)
			case 1:
				c.RY(math.Pi/2, q)
			default:
				c.T(q)
			}
		}
		switch cyc % 4 {
		case 0: // horizontal edges starting at even columns
			for row := 0; row < rows; row++ {
				for col := 0; col+1 < cols; col += 2 {
					c.CZ(at(row, col), at(row, col+1))
				}
			}
		case 1: // horizontal edges starting at odd columns
			for row := 0; row < rows; row++ {
				for col := 1; col+1 < cols; col += 2 {
					c.CZ(at(row, col), at(row, col+1))
				}
			}
		case 2: // vertical edges starting at even rows
			for row := 0; row+1 < rows; row += 2 {
				for col := 0; col < cols; col++ {
					c.CZ(at(row, col), at(row+1, col))
				}
			}
		default: // vertical edges starting at odd rows
			for row := 1; row+1 < rows; row += 2 {
				for col := 0; col < cols; col++ {
					c.CZ(at(row, col), at(row+1, col))
				}
			}
		}
	}
}

// RandomGraph returns m distinct undirected edges over n vertices drawn
// uniformly at random with the given seed, canonicalized (a < b) and in
// draw order. It rejects a request for more edges than the complete graph
// holds.
func RandomGraph(n, m int, seed int64) ([][2]int, error) {
	if n < 0 || m < 0 {
		return nil, verr.Inputf("apps: random graph sizes must be non-negative, got n=%d m=%d", n, m)
	}
	maxEdges := n * (n - 1) / 2
	if m > maxEdges {
		return nil, verr.Inputf("apps: %d edges requested, only %d possible on %d vertices", m, maxEdges, n)
	}
	r := stats.NewRand(seed)
	seen := make(map[[2]int]bool, m)
	edges := make([][2]int, 0, m)
	for len(edges) < m {
		a, b := r.Intn(n), r.Intn(n)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		e := [2]int{a, b}
		if seen[e] {
			continue
		}
		seen[e] = true
		edges = append(edges, e)
	}
	return edges, nil
}

// QAOA builds a Quantum Approximate Optimization Algorithm circuit for
// MaxCut on the given graph: a Hadamard layer, then `rounds` rounds each
// applying a ZZ phase separator per edge (decomposed as cx·rz·cx, 2 CX
// gates) followed by an RX mixer on every qubit. Angles are drawn from the
// seeded generator, as QAOA parameters would come from a classical outer
// loop. With 315 edges and 2 rounds the CX count is 2·315·2 = 1260 —
// Table II's count for the 64-qubit QAOA.
func QAOA(n int, edges [][2]int, rounds int, seed int64) (*circuit.Circuit, error) {
	p, err := QAOAProgram(n, edges, rounds, seed)
	if err != nil {
		return nil, err
	}
	return p.Circuit()
}

// QAOAProgram is QAOA as a streaming-capable program; the edge list is
// validated here, once, and captured by the body.
func QAOAProgram(n int, edges [][2]int, rounds int, seed int64) (circuit.Program, error) {
	if n < 1 || rounds < 0 {
		return circuit.Program{}, verr.Inputf("apps: QAOA needs a positive qubit count and non-negative rounds, got n=%d rounds=%d", n, rounds)
	}
	for _, e := range edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n || e[0] == e[1] {
			return circuit.Program{}, verr.Inputf("apps: QAOA edge (%d,%d) invalid on %d vertices", e[0], e[1], n)
		}
	}
	return circuit.Program{
		Name:   fmt.Sprintf("qaoa%dq%de%dr", n, len(edges), rounds),
		Qubits: n,
		Body: func(c circuit.Builder) {
			r := stats.NewRand(seed)
			for q := 0; q < n; q++ {
				c.H(q)
			}
			for round := 0; round < rounds; round++ {
				gamma := r.Float64() * math.Pi
				beta := r.Float64() * math.Pi
				for _, e := range edges {
					c.CX(e[0], e[1])
					c.RZ(2*gamma, e[1])
					c.CX(e[0], e[1])
				}
				for q := 0; q < n; q++ {
					c.RX(2*beta, q)
				}
			}
		},
	}, nil
}

// BernsteinVazirani builds the Bernstein–Vazirani circuit over n qubits:
// n−1 data qubits plus one ancilla (the last qubit). A nil secret selects
// the all-ones string, maximizing the oracle's CX count at n−1 (Table II
// rounds this to 64 for the 64-qubit instance). The circuit is H on data,
// X·H on the ancilla, one CX per set secret bit, and a final H on data.
func BernsteinVazirani(n int, secret []bool) (*circuit.Circuit, error) {
	p, err := BernsteinVaziraniProgram(n, secret)
	if err != nil {
		return nil, err
	}
	return p.Circuit()
}

// BernsteinVaziraniProgram is BernsteinVazirani as a streaming-capable
// program; the secret is resolved and validated here, once.
func BernsteinVaziraniProgram(n int, secret []bool) (circuit.Program, error) {
	if n < 2 {
		return circuit.Program{}, verr.Inputf("apps: Bernstein–Vazirani needs at least 2 qubits, got %d", n)
	}
	data := n - 1
	if secret == nil {
		secret = make([]bool, data)
		for i := range secret {
			secret[i] = true
		}
	}
	if len(secret) != data {
		return circuit.Program{}, verr.Inputf("apps: secret length %d, want %d data bits", len(secret), data)
	}
	return circuit.Program{
		Name:   fmt.Sprintf("bv%d", n),
		Qubits: n,
		Body: func(c circuit.Builder) {
			anc := n - 1
			for q := 0; q < data; q++ {
				c.H(q)
			}
			c.X(anc)
			c.H(anc)
			for q := 0; q < data; q++ {
				if secret[q] {
					c.CX(q, anc)
				}
			}
			for q := 0; q < data; q++ {
				c.H(q)
			}
		},
	}, nil
}

// appendCCX emits a Toffoli gate in the standard 6-CX, 9-single-qubit-gate
// decomposition.
func appendCCX(c circuit.Builder, a, b, tgt int) {
	c.H(tgt)
	c.CX(b, tgt)
	c.Append(circuit.Tdg, []int{tgt})
	c.CX(a, tgt)
	c.T(tgt)
	c.CX(b, tgt)
	c.Append(circuit.Tdg, []int{tgt})
	c.CX(a, tgt)
	c.T(b)
	c.T(tgt)
	c.H(tgt)
	c.CX(a, b)
	c.T(a)
	c.Append(circuit.Tdg, []int{b})
	c.CX(a, b)
}

// CuccaroAdder builds the Cuccaro ripple-carry adder summing two bits-wide
// registers, using 2·bits + 2 qubits (registers a and b interleaved with a
// carry-in and carry-out qubit). Toffolis use the standard 6-CX
// decomposition, so the CX count is 16·bits + 1 (497 for the 64-qubit,
// 31-bit instance; Table II's 545 presumably includes input preparation —
// the abstract spec pins the paper's value).
//
// Register layout: qubit 0 is carry-in; qubits 1..bits are register b;
// qubits bits+1..2·bits are register a; qubit 2·bits+1 is carry-out.
func CuccaroAdder(bits int) (*circuit.Circuit, error) {
	p, err := CuccaroAdderProgram(bits)
	if err != nil {
		return nil, err
	}
	return p.Circuit()
}

// CuccaroAdderProgram is CuccaroAdder as a streaming-capable program.
func CuccaroAdderProgram(bits int) (circuit.Program, error) {
	if bits < 1 {
		return circuit.Program{}, verr.Inputf("apps: adder width must be positive, got %d", bits)
	}
	n := 2*bits + 2
	return circuit.Program{
		Name:   fmt.Sprintf("adder%d", bits),
		Qubits: n,
		Body: func(c circuit.Builder) {
			cin := 0
			b := func(i int) int { return 1 + i }
			a := func(i int) int { return 1 + bits + i }
			cout := 2*bits + 1

			maj := func(x, y, z int) {
				c.CX(z, y)
				c.CX(z, x)
				appendCCX(c, x, y, z)
			}
			uma := func(x, y, z int) {
				appendCCX(c, x, y, z)
				c.CX(z, x)
				c.CX(x, y)
			}

			maj(cin, b(0), a(0))
			for i := 1; i < bits; i++ {
				maj(a(i-1), b(i), a(i))
			}
			c.CX(a(bits-1), cout)
			for i := bits - 1; i >= 1; i-- {
				uma(a(i-1), b(i), a(i))
			}
			uma(cin, b(0), a(0))
		},
	}, nil
}

// Grover builds Grover's search (the paper's "SquareRoot") over dataQubits
// search qubits with the given number of amplification iterations. The
// oracle marks the all-ones state with a multi-controlled Z implemented via
// a CCX ladder over dataQubits−2 ancilla qubits, and the diffuser inverts
// about the mean with the same ladder, so the circuit uses
// 2·dataQubits − 2 qubits total — 78 for dataQubits = 40, matching
// Table II's SquareRoot width.
func Grover(dataQubits, iterations int) (*circuit.Circuit, error) {
	p, err := GroverProgram(dataQubits, iterations)
	if err != nil {
		return nil, err
	}
	return p.Circuit()
}

// GroverProgram is Grover as a streaming-capable program.
func GroverProgram(dataQubits, iterations int) (circuit.Program, error) {
	if dataQubits < 3 {
		return circuit.Program{}, verr.Inputf("apps: Grover needs at least 3 data qubits, got %d", dataQubits)
	}
	if iterations < 1 {
		return circuit.Program{}, verr.Inputf("apps: Grover needs at least 1 iteration, got %d", iterations)
	}
	n := 2*dataQubits - 2
	return circuit.Program{
		Name:   fmt.Sprintf("grover%dx%d", dataQubits, iterations),
		Qubits: n,
		Body: func(c circuit.Builder) {
			anc := func(i int) int { return dataQubits + i } // dataQubits-2 ancillas

			// multiControlledZ applies Z conditioned on all data qubits
			// being 1, via a compute/uncompute CCX ladder into the ancilla
			// register.
			multiControlledZ := func() {
				appendCCX(c, 0, 1, anc(0))
				for i := 2; i < dataQubits-1; i++ {
					appendCCX(c, i, anc(i-2), anc(i-1))
				}
				// Z on the last data qubit controlled by the final ancilla.
				c.CZ(anc(dataQubits-3), dataQubits-1)
				for i := dataQubits - 2; i >= 2; i-- {
					appendCCX(c, i, anc(i-2), anc(i-1))
				}
				appendCCX(c, 0, 1, anc(0))
			}

			for q := 0; q < dataQubits; q++ {
				c.H(q)
			}
			for it := 0; it < iterations; it++ {
				// Oracle: phase-flip the all-ones state.
				multiControlledZ()
				// Diffuser: H X (MCZ) X H on the data register.
				for q := 0; q < dataQubits; q++ {
					c.H(q)
					c.X(q)
				}
				multiControlledZ()
				for q := 0; q < dataQubits; q++ {
					c.X(q)
					c.H(q)
				}
			}
		},
	}, nil
}

// GHZ builds the n-qubit Greenberger–Horne–Zeilinger state preparation:
// one Hadamard followed by a CX ladder. It is not part of Table II but is
// the canonical smoke-test circuit used throughout the test benches and
// examples.
func GHZ(n int) (*circuit.Circuit, error) {
	p, err := GHZProgram(n)
	if err != nil {
		return nil, err
	}
	return p.Circuit()
}

// GHZProgram is GHZ as a streaming-capable program.
func GHZProgram(n int) (circuit.Program, error) {
	if n < 1 {
		return circuit.Program{}, verr.Inputf("apps: GHZ needs at least 1 qubit, got %d", n)
	}
	return circuit.Program{
		Name:   fmt.Sprintf("ghz%d", n),
		Qubits: n,
		Body: func(c circuit.Builder) {
			c.H(0)
			for i := 0; i+1 < n; i++ {
				c.CX(i, i+1)
			}
		},
	}, nil
}
