package schedule

// This file adds the batched synthesis path behind plan-grouped design-space
// exploration: a sweep over timing models that differ only in the weak-link
// penalty α needs one synthesized circuit per model, but almost everything
// about synthesis is latency-independent. PlaceAll exploits that:
//
//   - For the latency-free placers (Random, WeakAvoiding, EdgeConstrained)
//     the gate sequence cannot depend on the timing model at all, so every
//     lane shares ONE *circuit.Circuit — callers detect the pointer aliasing
//     and share the downstream gate-class binding too.
//   - LoadBalanced reads the timing model only when COMMITTING a gate, never
//     when DRAWING candidates: the shuffled op order and the per-gate
//     candidate samples consume the RNG stream identically for every α. The
//     kernel therefore draws each gate's candidates once and lets every
//     lane pick its own winner against its own busy-until table. It is
//     LoadBalanced's only kernel: EmitPlace, and so Place, runs it with one
//     lane.
//
// Bit-exactness contract: PlaceAll(spec, l, r, lats)[j] is identical — gate
// for gate — to At(lats[j]).Place(spec, l, r2) where r2 is a fresh RNG in
// the same state r was in, because every lane observes the same draw
// sequence and applies the same commit rule. The schedule property tests pin
// this for every placer, and check the load-balanced kernel against a
// one-lane reference loop kept in test code.

import (
	"fmt"
	"math/rand"
	"sync"

	"velociti/internal/circuit"
	"velociti/internal/perf"
	"velociti/internal/ti"
)

// SweepPlacer is implemented by placers that can synthesize a whole
// timing-model sweep in one coupled pass over a single RNG stream.
type SweepPlacer interface {
	Placer
	// At returns the placer reconfigured for one timing model. Placers
	// whose synthesis never reads the timing model return the receiver.
	At(lat perf.Latencies) Placer
	// PlaceAll synthesizes one gate sequence per timing model in lats,
	// consuming the RNG stream exactly once. Lane j equals what
	// At(lats[j]).Place would build from the same stream state; lanes whose
	// circuits must coincide may alias one *circuit.Circuit.
	PlaceAll(spec circuit.Spec, l *ti.Layout, r *rand.Rand, lats []perf.Latencies) ([]*circuit.Circuit, error)
}

// sharedLanes runs a latency-free placer once and aliases the resulting
// circuit across every lane.
func sharedLanes(p Placer, spec circuit.Spec, l *ti.Layout, r *rand.Rand, lats []perf.Latencies) ([]*circuit.Circuit, error) {
	if len(lats) == 0 {
		return nil, fmt.Errorf("schedule: PlaceAll requires at least one timing model")
	}
	c, err := p.Place(spec, l, r)
	if err != nil {
		return nil, err
	}
	out := make([]*circuit.Circuit, len(lats))
	for i := range out {
		out[i] = c
	}
	return out, nil
}

// At implements SweepPlacer: random synthesis ignores the timing model.
func (p Random) At(perf.Latencies) Placer { return p }

// PlaceAll implements SweepPlacer; every lane shares one circuit.
func (p Random) PlaceAll(spec circuit.Spec, l *ti.Layout, r *rand.Rand, lats []perf.Latencies) ([]*circuit.Circuit, error) {
	return sharedLanes(p, spec, l, r, lats)
}

// At implements SweepPlacer: weak-avoiding synthesis ignores the timing model.
func (p WeakAvoiding) At(perf.Latencies) Placer { return p }

// PlaceAll implements SweepPlacer; every lane shares one circuit.
func (p WeakAvoiding) PlaceAll(spec circuit.Spec, l *ti.Layout, r *rand.Rand, lats []perf.Latencies) ([]*circuit.Circuit, error) {
	return sharedLanes(p, spec, l, r, lats)
}

// At implements SweepPlacer: edge-constrained synthesis ignores the timing
// model.
func (p EdgeConstrained) At(perf.Latencies) Placer { return p }

// PlaceAll implements SweepPlacer; every lane shares one circuit.
func (p EdgeConstrained) PlaceAll(spec circuit.Spec, l *ti.Layout, r *rand.Rand, lats []perf.Latencies) ([]*circuit.Circuit, error) {
	return sharedLanes(p, spec, l, r, lats)
}

// At implements SweepPlacer: the timing model steers LoadBalanced's commit
// decisions, so each lane runs the greedy rule at its own latencies.
func (pl LoadBalanced) At(lat perf.Latencies) Placer {
	pl.Latencies = lat
	return pl
}

// lbCandidates is how many qubits (for a 1-qubit gate) or pairs (for a
// 2-qubit gate) the greedy rule samples per gate. Cache keys record it as
// "k=8".
const lbCandidates = 8

// lbScratch is the pooled working memory of one load-balanced synthesis:
// the op-order bits, the lane builders, the lane-major busy-until tables,
// the per-lane latency tables, and the per-gate candidate draws shared by
// all lanes. Ownership: a scratch is held by exactly one EmitPlace or
// PlaceAll call; the synthesized gates never reference it.
type lbScratch struct {
	ops      []uint64
	out      []circuit.Builder // lane j's gates go to out[j]
	busy     []float64         // lane-major: lane j occupies [j*qubits, (j+1)*qubits)
	laneBusy [][]float64       // precomputed per-lane views into busy
	oneQLat  []float64
	twoQLat  []float64
	weakLat  []float64
	drawQ    [lbCandidates]int // 1-qubit candidate draws for the current gate
	drawA    [lbCandidates]int // 2-qubit candidate pairs for the current gate
	drawB    [lbCandidates]int
	sameCh   [lbCandidates]bool
}

var lbPool = sync.Pool{New: func() any { return new(lbScratch) }}

// release drops the lane builders and returns s to the pool.
func (s *lbScratch) release() {
	clear(s.out)
	s.out = s.out[:0]
	lbPool.Put(s)
}

func (s *lbScratch) grow(lanes, qubits int) {
	if cap(s.busy) < lanes*qubits {
		s.busy = make([]float64, lanes*qubits)
	}
	s.busy = s.busy[:lanes*qubits]
	clear(s.busy)
	if cap(s.laneBusy) < lanes {
		s.laneBusy = make([][]float64, lanes)
	}
	s.laneBusy = s.laneBusy[:lanes]
	for j := range s.laneBusy {
		s.laneBusy[j] = s.busy[j*qubits : (j+1)*qubits]
	}
	if cap(s.oneQLat) < lanes {
		s.oneQLat = make([]float64, lanes)
		s.twoQLat = make([]float64, lanes)
		s.weakLat = make([]float64, lanes)
	}
	s.oneQLat = s.oneQLat[:lanes]
	s.twoQLat = s.twoQLat[:lanes]
	s.weakLat = s.weakLat[:lanes]
}

// place is load-balanced synthesis, the one greedy kernel: it runs the
// greedy list scheduler for every timing model in lats at once and writes
// lane j's gates to s.out[j]. Per gate, the candidate samples are drawn
// once from the shared RNG stream, then each lane evaluates them against
// its own busy-until table and commits its own winner — the only
// α-dependent step.
func (s *lbScratch) place(spec circuit.Spec, l *ti.Layout, r *rand.Rand, lats []perf.Latencies) error {
	if err := validate(spec, l); err != nil {
		return err
	}
	for _, lat := range lats {
		if err := lat.Validate(); err != nil {
			return err
		}
	}
	nl, nq := len(lats), spec.Qubits
	s.grow(nl, nq)
	for j, lat := range lats {
		s.oneQLat[j] = lat.OneQubit
		s.twoQLat[j] = lat.TwoQubit
		// The weak latency is α·γ, one multiply, so every lane's finish
		// times are the same floats at any lane count.
		s.weakLat[j] = lat.WeakPenalty * lat.TwoQubit
	}
	ops := newOpBits(s.ops, spec, r)
	s.ops = ops.bits
	drawQ, drawA, drawB, sameCh := &s.drawQ, &s.drawA, &s.drawB, &s.sameCh
	laneBusy, out := s.laneBusy, s.out
	// Direct chain table: uniformPair's draws are in range by construction,
	// so the kernel skips SameChain's per-call validation.
	chainOf := l.ChainAssignments()
	for g := 0; g < ops.n; g++ {
		if ops.arity(g) == 1 {
			for i := range drawQ {
				drawQ[i] = r.Intn(nq)
			}
			for j := 0; j < nl; j++ {
				// The least-busy sampled qubit; the strict < keeps the
				// first of tied candidates.
				busy := laneBusy[j]
				best := drawQ[0]
				bb := busy[best]
				for i := 1; i < len(drawQ); i++ {
					if q := drawQ[i]; busy[q] < bb {
						best, bb = q, busy[q]
					}
				}
				busy[best] = bb + s.oneQLat[j]
				out[j].X(best)
			}
			continue
		}
		for i := range drawA {
			a, b := uniformPair(r, nq)
			drawA[i], drawB[i] = a, b
			sameCh[i] = chainOf[a] == chainOf[b]
		}
		for j := 0; j < nl; j++ {
			busy := laneBusy[j]
			// Hoisted lane latencies; the candidate loop starts from
			// candidate 0's finish so the scan is branch-light. The
			// strict < keeps the first of tied candidates.
			tq, wk := s.twoQLat[j], s.weakLat[j]
			bestA, bestB := drawA[0], drawB[0]
			bestFinish := busy[bestA]
			if f := busy[bestB]; f > bestFinish {
				bestFinish = f
			}
			if sameCh[0] {
				bestFinish += tq
			} else {
				bestFinish += wk
			}
			for i := 1; i < len(drawA); i++ {
				a, b := drawA[i], drawB[i]
				start := busy[a]
				if busy[b] > start {
					start = busy[b]
				}
				gl := tq
				if !sameCh[i] {
					gl = wk
				}
				if f := start + gl; f < bestFinish {
					bestFinish = f
					bestA, bestB = a, b
				}
			}
			busy[bestA] = bestFinish
			busy[bestB] = bestFinish
			out[j].CX(bestA, bestB)
		}
	}
	return nil
}

// PlaceAll implements SweepPlacer: the greedy kernel with one lane per
// timing model. Lane j is gate-for-gate identical to what
// LoadBalanced{Latencies: lats[j]}.Place builds from the same stream state;
// the receiver's own Latencies field is not consulted.
func (LoadBalanced) PlaceAll(spec circuit.Spec, l *ti.Layout, r *rand.Rand, lats []perf.Latencies) ([]*circuit.Circuit, error) {
	if len(lats) == 0 {
		return nil, fmt.Errorf("schedule: PlaceAll requires at least one timing model")
	}
	s := lbPool.Get().(*lbScratch)
	circs := make([]*circuit.Circuit, len(lats))
	for j := range circs {
		circs[j] = circuit.NewScratch(spec.Name, spec.Qubits)
		circs[j].Grow(spec.TotalGates())
		s.out = append(s.out, circs[j])
	}
	err := s.place(spec, l, r, lats)
	s.release()
	if err != nil {
		return nil, err
	}
	return circs, nil
}
