package circuit

import "math"

// FNV-1a parameters (hash/fnv's 64-bit variant, inlined so the rolling
// accumulator below is a plain value with no hash.Hash allocation).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// FingerprintAccum is a rolling FNV-1a accumulator over the circuit
// content-hash byte sequence: name, register width, then each gate's kind,
// operand count, operands, and parameter bit patterns, in gate order. It
// lets a streamed Program be keyed by content without buffering gates —
// feed every yielded gate through AddGate and Sum at end of stream equals
// Circuit.Fingerprint of the materialized circuit, bit for bit
// (Circuit.Fingerprint itself is implemented on this accumulator, so the
// two can never drift). Stream pricing does not hash; the stage graph
// (core.Stages.StreamEval) wraps a Program's emission in one only when
// the sum will become a cache key.
type FingerprintAccum struct {
	sum uint64
}

// NewFingerprintAccum starts an accumulator over the circuit header: the
// name and register width.
func NewFingerprintAccum(name string, numQubits int) FingerprintAccum {
	a := FingerprintAccum{sum: fnvOffset64}
	for i := 0; i < len(name); i++ {
		a.addByte(name[i])
	}
	a.addUint64(uint64(numQubits))
	return a
}

func (a *FingerprintAccum) addByte(b byte) {
	a.sum = (a.sum ^ uint64(b)) * fnvPrime64
}

// addUint64 hashes v's little-endian byte representation, matching the
// encoding/binary layout the pre-streaming implementation wrote.
func (a *FingerprintAccum) addUint64(v uint64) {
	for i := 0; i < 8; i++ {
		a.addByte(byte(v >> (8 * i)))
	}
}

// AddGate folds one gate into the hash. Gates must be added in program
// order; the gate's ID is positional and therefore not hashed.
func (a *FingerprintAccum) AddGate(g *Gate) {
	a.addUint64(uint64(g.Kind))
	a.addUint64(uint64(len(g.Qubits)))
	for _, q := range g.Qubits {
		a.addUint64(uint64(q))
	}
	for _, p := range g.Params {
		a.addUint64(math.Float64bits(p))
	}
}

// Sum returns the hash of everything added so far.
func (a *FingerprintAccum) Sum() uint64 { return a.sum }

// Fingerprint returns a 64-bit FNV-1a content hash of the circuit: name,
// register width, and every gate's kind, operands, and parameter bit
// patterns, in gate order. Two circuits with equal fingerprints time
// identically under every layout and latency model (up to hash collision),
// so the stage pipeline uses the fingerprint to key explicit-circuit
// artifacts.
func (c *Circuit) Fingerprint() uint64 {
	a := NewFingerprintAccum(c.Name, c.numQubits)
	for i := range c.gates {
		a.AddGate(&c.gates[i])
	}
	return a.Sum()
}
