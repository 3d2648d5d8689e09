package perf

// This file prices gate STREAMS: the memory-bounded counterpart of
// Binding.TimeAll on a weak-link binding and on a transport-prepared one
// (binding.go, transport.go). The fold (fold.go) reads a gate's
// predecessors only through the per-qubit frontier — one finish time per
// (qubit, lane) — so the stream driver keeps nothing of a gate once its
// window is folded, and peak memory is O(qubits·lanes + window),
// independent of gate count.
//
// Bit-exactness contract: StreamTimeAll equals Binding.TimeAll on an
// unprepared binding, and StreamTransportAll(costs) equals Binding.TimeAll
// on a binding prepared by AttachTransport(l, costs), field for field —
// same serial accumulation order, same strict-> maximum tracking, same
// weak-link counting rules — EXCEPT that CriticalPath is omitted
// (reconstructing it needs the Θ(gates) predecessor chain the streaming
// path exists to avoid; Result's JSON tag drops the empty field). The
// property tests pin the equivalence on every workload generator and both
// backends.
//
// Classification state is the same as Bind's: the pooled pair→link table
// (lowest link id wins, exactly newBindScratch's reverse-iteration rule)
// and the per-link usage bitmap, both O(device). Pricing only
// classifies and folds: it does not hash the stream. A caller that needs
// the content key (core.Stages.StreamEval, the one consumer of one)
// wraps the source's Emit in circuit.FingerprintAccum itself, and only
// when the key will be read.

import (
	"fmt"

	"velociti/internal/circuit"
	"velociti/internal/ti"
	"velociti/internal/verr"
)

// streamWindow is the stream driver's window: gates classified into plain
// operand arrays before each fold.
const streamWindow = 4096

// StreamStats summarizes a consumed gate stream: the gate counts the
// serial model needs, equal to the materialized circuit's.
type StreamStats struct {
	// Gates is the total number of gates consumed.
	Gates int
	// OneQubitGates and TwoQubitGates are the paper's q and p.
	OneQubitGates int
	TwoQubitGates int
}

// streamState is the stream driver's per-stream bookkeeping:
// classification against the layout and the gate counts.
type streamState struct {
	chainOf  []int
	pairLink []int32
	used     []bool
	nc       int
	scratch  *bindScratch

	oneQ, twoQ  int
	weak, links int
}

func newStreamState(l *ti.Layout) *streamState {
	s := &streamState{chainOf: l.ChainAssignments()}
	s.scratch, s.pairLink, s.used, s.nc = newBindScratch(l)
	return s
}

// classify mirrors Bind's walk for one gate: class, weak-gate tally, and
// distinct-links tally (lowest link id wins, matching newBindScratch).
func (s *streamState) classify(g *circuit.Gate) GateClass {
	if !g.IsTwoQubit() {
		s.oneQ++
		return ClassOneQ
	}
	s.twoQ++
	ca, cb := s.chainOf[g.Qubits[0]], s.chainOf[g.Qubits[1]]
	if ca == cb {
		return ClassTwoQIntra
	}
	s.weak++
	if id := s.pairLink[ca*s.nc+cb]; id != 0 && !s.used[id-1] {
		s.used[id-1] = true
		s.links++
	}
	return ClassTwoQWeak
}

// close releases the pooled classification scratch and returns the
// stream's stats.
func (s *streamState) close() StreamStats {
	bindScratchPool.Put(s.scratch)
	s.scratch = nil
	return StreamStats{
		Gates:         s.oneQ + s.twoQ,
		OneQubitGates: s.oneQ,
		TwoQubitGates: s.twoQ,
	}
}

// stream-entry validation shared by both entry points; the messages match the
// materialized path's (Bind's qubit check, TimeAll's lats checks).
func streamChecks(src circuit.Source, l *ti.Layout, lats []Latencies) error {
	if src.Emit == nil {
		return verr.Inputf("perf: source %q has no emitter", src.Name)
	}
	if src.Qubits > l.NumQubits() {
		return fmt.Errorf("perf: circuit has %d qubits but layout places only %d", src.Qubits, l.NumQubits())
	}
	if len(lats) == 0 {
		return fmt.Errorf("perf: TimeAll requires at least one timing model")
	}
	return validateAll(lats)
}

// StreamTimeAll prices a gate stream under every timing model in lats
// with the weak-link backend, in O(qubits·lanes + window) memory. Entry j
// equals Binding.TimeAll(lats)[j] on the materialized circuit, bit for
// bit, except that CriticalPath is omitted (see the file comment). The
// returned StreamStats carries the stream's gate counts.
func StreamTimeAll(src circuit.Source, l *ti.Layout, lats []Latencies) ([]Result, StreamStats, error) {
	if err := streamChecks(src, l, lats); err != nil {
		return nil, StreamStats{}, err
	}
	return streamPrice(src, l, lats, nil, streamWindow)
}

// StreamTransportAll prices a gate stream under every timing model in lats
// with the shuttle transport model, in O(qubits·lanes + segments·lanes +
// window) memory. Entry j equals Binding.TimeAll(lats)[j] on the
// materialized circuit's binding after AttachTransport(l, costs), bit for
// bit, except that CriticalPath is omitted.
func StreamTransportAll(src circuit.Source, l *ti.Layout, costs TransportCosts, lats []Latencies) ([]Result, StreamStats, error) {
	if err := streamChecks(src, l, lats); err != nil {
		return nil, StreamStats{}, err
	}
	if err := costs.Validate(); err != nil {
		return nil, StreamStats{}, err
	}
	return streamPrice(src, l, lats, &costs, streamWindow)
}

// streamPrice is the stream driver: it classifies the source's gates into
// a window of at most window operand arrays (plus, under transport, each
// weak gate's segments) and folds every full window into the per-qubit
// frontier, so no gate outlives its window.
func streamPrice(src circuit.Source, l *ti.Layout, lats []Latencies, costs *TransportCosts, window int) ([]Result, StreamStats, error) {
	st := newStreamState(l)
	f := newFold(lats, src.Qubits, costs, l.Device().MaxWeakLinks(), 0)
	defer f.release()
	g := gateBatch{
		qa:    make([]int32, 0, window),
		qb:    make([]int32, 0, window),
		class: make([]GateClass, 0, window),
	}
	var paths *pathCache
	if costs != nil {
		paths = newPathCache(l)
		g.segStart = make([]int32, 1, window+1)
	}
	flush := func() {
		f.run(g)
		g.qa, g.qb, g.class = g.qa[:0], g.qb[:0], g.class[:0]
		if paths != nil {
			g.segStart, g.segIDs = g.segStart[:1], g.segIDs[:0]
		}
	}
	err := src.Emit(func(gt *circuit.Gate) error {
		class := st.classify(gt)
		qb := int32(-1)
		if gt.IsTwoQubit() {
			qb = int32(gt.Qubits[1])
		}
		g.qa = append(g.qa, int32(gt.Qubits[0]))
		g.qb = append(g.qb, qb)
		g.class = append(g.class, class)
		if paths != nil {
			if class == ClassTwoQWeak {
				segs, err := paths.segments(gt.Qubits[0], gt.Qubits[1])
				if err != nil {
					return err
				}
				g.segIDs = append(g.segIDs, segs...)
			}
			g.segStart = append(g.segStart, int32(len(g.segIDs)))
		}
		if len(g.class) == window {
			flush()
		}
		return nil
	})
	stats := st.close()
	if err != nil {
		return nil, StreamStats{}, err
	}
	flush()
	return f.results(lats, st.oneQ, st.twoQ, st.weak, st.links, nil), stats, nil
}
