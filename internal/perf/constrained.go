package perf

import (
	"fmt"
	"sort"

	"velociti/internal/circuit"
	"velociti/internal/ti"
)

// The paper's parallel model assumes a chain can drive arbitrarily many
// gates at once; real trapped-ion systems are limited by their control
// hardware — the paper itself notes that published systems address ions
// through a 32-channel AOM (§II-B), and driving several simultaneous gates
// multiplexes those channels. ParallelTimeConstrained extends the parallel
// model with a per-chain concurrency budget: at most `capacity` gates may
// execute on a chain at any instant (a weak-link gate occupies a slot on
// both of its chains). capacity ≤ 0 means unlimited, recovering
// ParallelTime exactly.
//
// Scheduling is deterministic greedy list scheduling: gates become ready
// when their qubit predecessors finish and start in gate-id order whenever
// every chain they touch has a free slot. It is ParallelTimeConstrainedAll
// at the one capacity level.
func ParallelTimeConstrained(c *circuit.Circuit, l *ti.Layout, lat Latencies, capacity int) (float64, error) {
	ts, err := ParallelTimeConstrainedAll(c, l, lat, []int{capacity})
	if err != nil {
		return 0, err
	}
	return ts[0], nil
}

// ParallelTimeConstrainedAll prices the constrained model at every capacity
// level of one (circuit, layout, latencies) triple in a single call: the
// dependency bookkeeping — the predecessor/successor scan and the per-gate
// chain and latency tables — is built once and the event-driven schedule
// replays per level over reused buffers. Entry j exactly equals
// ParallelTimeConstrained(c, l, lat, capacities[j]): each replay resets
// the per-run state and is the same deterministic greedy list scheduling
// over the same structure.
func ParallelTimeConstrainedAll(c *circuit.Circuit, l *ti.Layout, lat Latencies, capacities []int) ([]float64, error) {
	if err := lat.Validate(); err != nil {
		return nil, err
	}
	if c.NumQubits() > l.NumQubits() {
		return nil, fmt.Errorf("perf: circuit has %d qubits but layout places only %d", c.NumQubits(), l.NumQubits())
	}
	out := make([]float64, len(capacities))
	if len(capacities) == 0 {
		return out, nil
	}
	var sim *constrainedSim
	for j, capacity := range capacities {
		switch {
		case capacity <= 0:
			out[j] = ParallelTime(c, l, lat)
		case c.NumGates() == 0:
			out[j] = 0
		default:
			if sim == nil {
				sim = newConstrainedSim(c, l, lat)
			}
			t, err := sim.run(capacity)
			if err != nil {
				return nil, err
			}
			out[j] = t
		}
	}
	return out, nil
}

// constrainedSim holds the capacity-independent structure of one constrained
// scheduling problem plus reusable per-run state, so several capacity levels
// replay the event loop without rebuilding the dependency graph.
type constrainedSim struct {
	c   *circuit.Circuit
	n   int
	lat Latencies

	preds0 []int   // pristine predecessor counts
	succs  [][]int // dependents per gate
	chainA []int   // first chain of each gate
	chainB []int   // second chain, or -1 when the gate stays on one chain
	gLat   []float64

	numChains int

	// Per-run buffers, reset by run.
	preds   []int
	inUse   []int
	started []bool
	ready   []int
	active  []constrainedRunning
}

type constrainedRunning struct {
	finish float64
	id     int
}

func newConstrainedSim(c *circuit.Circuit, l *ti.Layout, lat Latencies) *constrainedSim {
	n := c.NumGates()
	s := &constrainedSim{
		c:         c,
		n:         n,
		lat:       lat,
		preds0:    make([]int, n),
		succs:     make([][]int, n),
		chainA:    make([]int, n),
		chainB:    make([]int, n),
		gLat:      make([]float64, n),
		numChains: l.Device().NumChains(),
		preds:     make([]int, n),
		inUse:     make([]int, l.Device().NumChains()),
		started:   make([]bool, n),
		ready:     make([]int, 0, n),
	}
	last := make([]int, c.NumQubits())
	for i := range last {
		last[i] = -1
	}
	for _, g := range c.Gates() {
		// A gate waits once on the last gate of each operand: when one gate
		// last touched both operands, the second operand adds no
		// predecessor.
		pa := last[g.Qubits[0]]
		for k, q := range g.Qubits {
			if p := last[q]; p >= 0 && (k == 0 || p != pa) {
				s.preds0[g.ID]++
				s.succs[p] = append(s.succs[p], g.ID)
			}
		}
		for _, q := range g.Qubits {
			last[q] = g.ID
		}
		a := l.ChainOf(g.Qubits[0])
		b := -1
		if len(g.Qubits) == 2 {
			if cb := l.ChainOf(g.Qubits[1]); cb != a {
				b = cb
			}
		}
		s.chainA[g.ID] = a
		s.chainB[g.ID] = b
		s.gLat[g.ID] = lat.GateLatency(g, l)
	}
	return s
}

// run replays the event-driven schedule for one capacity level.
func (s *constrainedSim) run(capacity int) (float64, error) {
	copy(s.preds, s.preds0)
	for i := range s.inUse {
		s.inUse[i] = 0
	}
	for i := range s.started {
		s.started[i] = false
	}
	ready := s.ready[:0]
	for id := 0; id < s.n; id++ {
		if s.preds[id] == 0 {
			ready = append(ready, id)
		}
	}
	active := s.active[:0]
	now := 0.0
	makespan := 0.0
	remaining := s.n

	startEligible := func() {
		// Attempt to start ready gates in id order.
		sort.Ints(ready)
		next := ready[:0]
		for _, id := range ready {
			fits := s.inUse[s.chainA[id]] < capacity
			if fits && s.chainB[id] >= 0 {
				fits = s.inUse[s.chainB[id]] < capacity
			}
			if !fits {
				next = append(next, id)
				continue
			}
			s.inUse[s.chainA[id]]++
			if s.chainB[id] >= 0 {
				s.inUse[s.chainB[id]]++
			}
			s.started[id] = true
			fin := now + s.gLat[id]
			active = append(active, constrainedRunning{finish: fin, id: id})
			if fin > makespan {
				makespan = fin
			}
		}
		ready = next
		sort.Slice(active, func(i, j int) bool {
			if active[i].finish != active[j].finish {
				return active[i].finish < active[j].finish
			}
			return active[i].id < active[j].id
		})
	}

	startEligible()
	for remaining > 0 {
		if len(active) == 0 {
			// No gate can run: with capacity ≥ 1 this cannot happen for a
			// well-formed circuit, but guard against infinite loops.
			return 0, fmt.Errorf("perf: constrained scheduler deadlocked with %d gates left", remaining)
		}
		// Advance to the earliest finish; retire every gate ending then.
		now = active[0].finish
		for len(active) > 0 && active[0].finish == now {
			done := active[0]
			active = active[1:]
			remaining--
			s.inUse[s.chainA[done.id]]--
			if s.chainB[done.id] >= 0 {
				s.inUse[s.chainB[done.id]]--
			}
			for _, nx := range s.succs[done.id] {
				s.preds[nx]--
				if s.preds[nx] == 0 && !s.started[nx] {
					ready = append(ready, nx)
				}
			}
		}
		startEligible()
	}
	s.ready = ready[:0]
	s.active = active[:0]
	return makespan, nil
}
