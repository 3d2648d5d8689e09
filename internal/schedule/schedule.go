// Package schedule implements VelociTI's gate placement and operation
// ordering (§III-B stage 2: the "op. list" of the hardware-implementation
// module).
//
// VelociTI abstracts a workload to its boundary conditions — the number of
// qubits and the counts of 1- and 2-qubit gates (Table I). A Placer turns
// those counts plus a qubit layout into a concrete gate sequence whose
// cross-chain ("weak-link") gates the performance models charge at α·γ.
//
// The paper's baseline is purely random scheduling: each 2-qubit gate
// draws a qubit pair uniformly at random, and pairs landing on different
// chains become weak-link operations (the physical communication happens
// over the link joining the chains). This calibration reproduces the
// paper's reported sensitivities — e.g. the 20% speedup from chain length
// 8→32 (Figure 7) follows directly from the cross-chain probability
// 1 − (L−1)/(n−1) falling as chains lengthen, and Figure 9(a)'s 48-qubit
// threshold falls exactly where a workload stops fitting in one 32-ion
// chain. The paper observes that random scheduling can cost more than 50%
// performance on low-density circuits, motivating smarter schedulers
// (§VI-B); the LoadBalanced and WeakAvoiding placers are such extensions,
// and EdgeConstrained explores a strict regime where cross-chain gates may
// only touch the edge qubits of a weak link. All are ablated in the
// benchmark suite.
//
// Synthesized gates use circuit.X for 1-qubit operations and circuit.CX for
// 2-qubit operations; the performance models only inspect arity and
// placement, never the gate kind (§III-C). Every Placer both builds its
// circuit (Place) and emits the same gates into a circuit.Builder
// (EmitPlace), so core's streaming path can run any placer that does not
// search layouts.
package schedule

import (
	"fmt"
	"math/rand"

	"velociti/internal/circuit"
	"velociti/internal/perf"
	"velociti/internal/ti"
	"velociti/internal/verr"
)

// Placer synthesizes a gate sequence realizing a circuit spec on a layout.
type Placer interface {
	// Name identifies the placer in reports and benchmarks.
	Name() string
	// Place builds the gate sequence. The returned circuit has exactly
	// spec.OneQubitGates 1-qubit gates and spec.TwoQubitGates 2-qubit
	// gates over spec.Qubits qubits.
	Place(spec circuit.Spec, l *ti.Layout, r *rand.Rand) (*circuit.Circuit, error)
	// EmitPlace writes the same gate sequence into a circuit.Builder —
	// typically a circuit.Emitter feeding a frontier evaluation — without
	// materializing the circuit. With the same spec, layout and generator
	// state it emits exactly Place's gates (the RNG draw order is shared,
	// pinned by tests), so streamed and materialized evaluations agree bit
	// for bit.
	EmitPlace(spec circuit.Spec, l *ti.Layout, r *rand.Rand, b circuit.Builder) error
}

// placeViaEmit is the materialized path of every placer: Place is
// EmitPlace into a scratch circuit.
func placeViaEmit(p Placer, spec circuit.Spec, l *ti.Layout, r *rand.Rand, grow bool) (*circuit.Circuit, error) {
	if err := validate(spec, l); err != nil {
		return nil, err
	}
	c := circuit.NewScratch(spec.Name, spec.Qubits)
	if grow {
		c.Grow(spec.TotalGates())
	}
	if err := p.EmitPlace(spec, l, r, c); err != nil {
		return nil, err
	}
	return c, nil
}

// validate performs the shared sanity checks for placers.
func validate(spec circuit.Spec, l *ti.Layout) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if spec.Qubits > l.NumQubits() {
		return fmt.Errorf("schedule: spec needs %d qubits, layout places %d", spec.Qubits, l.NumQubits())
	}
	return nil
}

// uniformPair draws a uniformly random unordered pair of distinct qubits
// from [0, n).
func uniformPair(r *rand.Rand, n int) (int, int) {
	a := r.Intn(n)
	b := r.Intn(n - 1)
	if b >= a {
		b++
	}
	return a, b
}

// opBits is the op order: a shuffled sequence of the spec's gate arities,
// packed one bit per gate (0 = 1-qubit, 1 = 2-qubit), so a streaming
// placer's only gate-count-proportional state is n/8 bytes.
type opBits struct {
	bits []uint64
	n    int
}

// newOpBits shuffles the spec's arities into buf's storage, reused when
// its capacity allows.
func newOpBits(buf []uint64, spec circuit.Spec, r *rand.Rand) opBits {
	n := spec.TotalGates()
	w := (n + 63) / 64
	if cap(buf) < w {
		buf = make([]uint64, w)
	}
	o := opBits{bits: buf[:w], n: n}
	clear(o.bits)
	for i := spec.OneQubitGates; i < n; i++ {
		o.bits[i>>6] |= 1 << (uint(i) & 63)
	}
	r.Shuffle(n, o.swap)
	return o
}

func (o opBits) get(i int) bool { return o.bits[i>>6]>>(uint(i)&63)&1 == 1 }

func (o opBits) set(i int, v bool) {
	if v {
		o.bits[i>>6] |= 1 << (uint(i) & 63)
	} else {
		o.bits[i>>6] &^= 1 << (uint(i) & 63)
	}
}

func (o opBits) swap(i, j int) {
	bi, bj := o.get(i), o.get(j)
	o.set(i, bj)
	o.set(j, bi)
}

// arity returns 1 or 2 for gate i.
func (o opBits) arity(i int) int {
	if o.get(i) {
		return 2
	}
	return 1
}

// Random is the paper's placement policy: each 2-qubit gate acts on a
// uniformly random qubit pair (cross-chain pairs become weak-link
// operations), each 1-qubit gate on a uniformly random qubit, and the
// operations are interleaved in random order.
type Random struct{}

// Name implements Placer.
func (Random) Name() string { return "random" }

// Place implements Placer.
func (p Random) Place(spec circuit.Spec, l *ti.Layout, r *rand.Rand) (*circuit.Circuit, error) {
	return placeViaEmit(p, spec, l, r, true)
}

// EmitPlace implements Placer.
func (Random) EmitPlace(spec circuit.Spec, l *ti.Layout, r *rand.Rand, b circuit.Builder) error {
	if err := validate(spec, l); err != nil {
		return err
	}
	ops := newOpBits(nil, spec, r)
	for i := 0; i < ops.n; i++ {
		if ops.arity(i) == 1 {
			b.X(r.Intn(spec.Qubits))
			continue
		}
		qa, qb := uniformPair(r, spec.Qubits)
		b.CX(qa, qb)
	}
	return b.Err()
}

// WeakAvoiding places 2-qubit gates only on intra-chain pairs, eliminating
// weak-link traffic entirely (w = 0). It is an extension that bounds how
// much of the runtime is attributable to the weak link; it fails when no
// chain holds two of the spec's qubits.
type WeakAvoiding struct{}

// Name implements Placer.
func (WeakAvoiding) Name() string { return "weak-avoiding" }

// Place implements Placer.
func (p WeakAvoiding) Place(spec circuit.Spec, l *ti.Layout, r *rand.Rand) (*circuit.Circuit, error) {
	return placeViaEmit(p, spec, l, r, true)
}

// EmitPlace implements Placer.
func (WeakAvoiding) EmitPlace(spec circuit.Spec, l *ti.Layout, r *rand.Rand, b circuit.Builder) error {
	if err := validate(spec, l); err != nil {
		return err
	}
	var local [][2]int
	if spec.TwoQubitGates > 0 {
		for _, p := range l.LegalPairs() {
			if p[0] < spec.Qubits && p[1] < spec.Qubits && l.SameChain(p[0], p[1]) {
				local = append(local, p)
			}
		}
		if len(local) == 0 {
			return fmt.Errorf("schedule: weak-avoiding placer has no intra-chain pairs among %d qubits", spec.Qubits)
		}
	}
	ops := newOpBits(nil, spec, r)
	for i := 0; i < ops.n; i++ {
		if ops.arity(i) == 1 {
			b.X(r.Intn(spec.Qubits))
			continue
		}
		p := local[r.Intn(len(local))]
		b.CX(p[0], p[1])
	}
	return b.Err()
}

// EdgeConstrained restricts cross-chain gates to the edge qubits of weak
// links ("only the qubits on the edge of a weak link can be used for such
// communications", §III-B): every 2-qubit gate draws uniformly from the
// union of intra-chain pairs and weak-link edge pairs. Because edge pairs
// are a vanishing fraction of that set, weak-link usage is far rarer than
// under Random — this placer exists to quantify that strict regime as an
// ablation.
type EdgeConstrained struct{}

// Name implements Placer.
func (EdgeConstrained) Name() string { return "edge-constrained" }

// Place implements Placer.
func (p EdgeConstrained) Place(spec circuit.Spec, l *ti.Layout, r *rand.Rand) (*circuit.Circuit, error) {
	return placeViaEmit(p, spec, l, r, true)
}

// EmitPlace implements Placer.
func (EdgeConstrained) EmitPlace(spec circuit.Spec, l *ti.Layout, r *rand.Rand, b circuit.Builder) error {
	if err := validate(spec, l); err != nil {
		return err
	}
	var pairs [][2]int
	if spec.TwoQubitGates > 0 {
		for _, p := range l.LegalPairs() {
			if p[0] < spec.Qubits && p[1] < spec.Qubits {
				pairs = append(pairs, p)
			}
		}
		if len(pairs) == 0 {
			return fmt.Errorf("schedule: no legal 2-qubit pairs among the first %d qubits", spec.Qubits)
		}
	}
	ops := newOpBits(nil, spec, r)
	for i := 0; i < ops.n; i++ {
		if ops.arity(i) == 1 {
			b.X(r.Intn(spec.Qubits))
			continue
		}
		p := pairs[r.Intn(len(pairs))]
		b.CX(p[0], p[1])
	}
	return b.Err()
}

// LoadBalanced is a greedy list-scheduling placer (extension): it tracks
// each qubit's busy-until time under the given latency model and, for every
// 2-qubit gate, samples eight random pairs and commits the one whose
// gate would finish earliest. This balances work across qubits and steers
// traffic away from weak links when they are the bottleneck, approximating
// the "robust scheduling optimizations" the paper calls for (§VI-B).
type LoadBalanced struct {
	// Latencies is the timing model used to estimate finish times.
	Latencies perf.Latencies
}

// Name implements Placer.
func (LoadBalanced) Name() string { return "load-balanced" }

// Place implements Placer.
func (pl LoadBalanced) Place(spec circuit.Spec, l *ti.Layout, r *rand.Rand) (*circuit.Circuit, error) {
	return placeViaEmit(pl, spec, l, r, false)
}

// EmitPlace implements Placer: the greedy kernel (sweep.go) with one
// lane. The busy-until state is O(qubits), so the placer streams without
// gate-count-proportional memory.
func (pl LoadBalanced) EmitPlace(spec circuit.Spec, l *ti.Layout, r *rand.Rand, b circuit.Builder) error {
	lats := [1]perf.Latencies{pl.Latencies}
	s := lbPool.Get().(*lbScratch)
	s.out = append(s.out, b)
	err := s.place(spec, l, r, lats[:])
	s.release()
	if err != nil {
		return err
	}
	return b.Err()
}

// All returns the full placer suite: the paper baseline first, then the
// extensions, using the given latency model where needed.
func All(lat perf.Latencies) []Placer {
	return []Placer{Random{}, WeakAvoiding{}, LoadBalanced{Latencies: lat}, EdgeConstrained{}}
}

// ByName returns the placer with the given name, defaulting LoadBalanced's
// latency model to lat.
func ByName(name string, lat perf.Latencies) (Placer, error) {
	for _, p := range All(lat) {
		if p.Name() == name {
			return p, nil
		}
	}
	// Annealed is resolvable by name but deliberately absent from All: the
	// ablation suites iterate All, and the search-based placer is compared
	// in its own experiment rather than silently added to every ablation.
	if a := (Annealed{Latencies: lat}); a.Name() == name {
		return a, nil
	}
	return nil, verr.Inputf("schedule: unknown placer %q (want random, weak-avoiding, load-balanced, edge-constrained, or annealed)", name)
}
