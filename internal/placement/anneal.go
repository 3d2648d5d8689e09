package placement

// Search-based placement: a simulated annealer over qubit-swap moves,
// scored by the delta evaluator (perf.DeltaEval), which reprices only the
// gates on the swapped qubits and the finishes downstream of them instead
// of the whole circuit. The schedule is deterministic per seed —
// geometric cooling with a fixed move budget and the classic exp(-Δ/T)
// acceptance rule — so annealed placements replay bit-for-bit, matching
// the repo-wide reproducibility contract.
//
// The objective is the parallel model's makespan under the backend's
// delta weights: the paper's model exactly for the weak-link backend, the
// contention-free transport cost for shuttle (see TimingBackend.DeltaWeights).
// Because the makespan is a max over many tied critical paths it plateaus
// on regular circuits, so ties break on the total latency sum
// (perf.DeltaEval.LatencySum) — plateau moves drift toward cheaper
// layouts instead of stalling. Reported results are always re-priced by
// the full backend afterwards; the annealer only chooses the layout.

import (
	"fmt"
	"math"
	"math/rand"

	"velociti/internal/circuit"
	"velociti/internal/perf"
	"velociti/internal/ti"
)

// defaultMovesPerQubit sets the annealing move budget when AnnealOptions
// leaves Moves zero: budget = defaultMovesPerQubit × placed qubits.
const defaultMovesPerQubit = 32

// Annealing schedule constants: the temperature decays geometrically from
// relT0 to relTend as fractions of the initial cost.
const (
	annealRelT0   = 0.05
	annealRelTend = 1e-4
)

// AnnealOptions tunes AnnealLayout. The zero value selects the defaults.
type AnnealOptions struct {
	// Moves is the swap-attempt budget; zero selects
	// defaultMovesPerQubit × qubits.
	Moves int
	// FullEval scores every candidate with a from-scratch evaluation
	// (perf.DeltaEval.FullCost) instead of the incremental path. The
	// accept/reject sequence and result are bit-identical either way —
	// that equivalence is pinned by tests — so this exists as the
	// reference oracle and as the legacy cost model the benchmarks gate
	// the delta path against.
	FullEval bool
}

// moves resolves the effective move budget for n placed qubits.
func (o AnnealOptions) moves(n int) int {
	if o.Moves > 0 {
		return o.Moves
	}
	return defaultMovesPerQubit * n
}

// AnnealLayout improves a starting layout for ev's circuit by simulated
// annealing over qubit-swap moves, returning the best layout found and
// its objective value (the makespan; the latency-sum tie-breaker only
// orders equal-makespan states and is not reported). The search is
// deterministic given r's stream: each move draws one uniform qubit pair,
// plus one acceptance draw only when the move strictly worsens the
// makespan. Same-chain pairs are skipped
// (they cannot change any gate's class or hop count) but still consume
// the pair draw, keeping the stream layout-independent. The input layout
// is not modified.
func AnnealLayout(ev *perf.Evaluator, l *ti.Layout, backend perf.TimingBackend, lat perf.Latencies, r *rand.Rand, opt AnnealOptions) (*ti.Layout, float64, error) {
	de, err := perf.NewDeltaEval(ev, l, backend, lat)
	if err != nil {
		return nil, 0, err
	}
	// cost returns the primary objective (makespan) and the tie-break
	// objective (latency sum). Both modes read the SAME incremental
	// LatencySum, so FullEval changes only where the makespan comes from
	// and the accept/reject sequence stays bit-identical.
	cost := func() (float64, float64, error) {
		if opt.FullEval {
			p, err := de.FullCost()
			return p, de.LatencySum(), err
		}
		return de.Cost(), de.LatencySum(), nil
	}
	cur, curSum, err := cost()
	if err != nil {
		return nil, 0, err
	}
	n := de.NumQubits()
	if cur == 0 || n < 2 {
		// Nothing to improve (every gate is free) or nothing to swap.
		return l, cur, nil
	}
	best, bestSum := cur, curSum
	bestAsg := de.ChainAssignments(nil)

	moves := opt.moves(n)
	t0 := annealRelT0 * cur
	tEnd := annealRelTend * cur
	// Geometric decay factor so T(moves-1) = tEnd; a single-move budget
	// stays at t0.
	decay := 0.0
	if moves > 1 {
		decay = math.Pow(tEnd/t0, 1/float64(moves-1))
	}
	temp := t0
	for i := 0; i < moves; i++ {
		if i > 0 {
			temp *= decay
		}
		a := r.Intn(n)
		b := r.Intn(n - 1)
		if b >= a {
			b++
		}
		if de.SameChain(a, b) {
			continue
		}
		if err := de.Swap(a, b); err != nil {
			return nil, 0, err
		}
		cand, candSum, err := cost()
		if err != nil {
			return nil, 0, err
		}
		// Lexicographic acceptance on (makespan, latency sum). The
		// makespan is a max over many tied critical paths and plateaus
		// on regular circuits — most single swaps leave it unchanged — so
		// plateau moves (dE == 0) accept only when they do not raise the
		// latency sum, drifting sideways toward cheaper layouts without an
		// acceptance draw. Only strictly uphill path moves consume a draw.
		dE := cand - cur
		accept := dE < 0 || (dE == 0 && candSum <= curSum)
		if !accept && dE > 0 && temp > 0 {
			accept = r.Float64() < math.Exp(-dE/temp)
		}
		if !accept {
			// Revert without refreshing: the swap and its inverse leave
			// the same gates stale, and the next Cost finds their
			// finishes unchanged.
			if err := de.Swap(a, b); err != nil {
				return nil, 0, err
			}
			continue
		}
		cur, curSum = cand, candSum
		if cur < best || (cur == best && curSum < bestSum) {
			best, bestSum = cur, curSum
			bestAsg = de.ChainAssignments(bestAsg)
		}
	}
	// Materialize the recorded best assignment (the walk may have wandered
	// uphill since): group qubits by chain in ascending id order, exactly
	// like perf.DeltaEval.Layout — gate classes and hop counts depend only
	// on chain membership, so the layout prices at the recorded best.
	device := l.Device()
	chains := make([][]int, device.NumChains())
	for q, c := range bestAsg {
		chains[c] = append(chains[c], q)
	}
	nl, err := ti.NewLayout(device, chains)
	if err != nil {
		return nil, 0, err
	}
	return nl, best, nil
}

// Annealed is a placement policy for explicit circuits: it starts from a
// base random placement and runs AnnealLayout against the configured
// circuit, backend, and timing model. It is the search-based counterpart
// to InteractionAware/Refined — those minimize the cross-chain gate
// count; Annealed minimizes the parallel-model objective itself.
type Annealed struct {
	// Circuit is the explicit workload the layout is optimized for.
	// Required: placement quality is meaningless without gates to score.
	Circuit *circuit.Circuit
	// Base constructs the starting layout the search refines; nil selects
	// Random. A constructive policy here (e.g. InteractionAware) turns the
	// annealer into a refinement pass over that policy's output.
	Base Policy
	// Backend supplies the delta weights; nil selects the paper's
	// weak-link model (perf.WeakLink).
	Backend perf.TimingBackend
	// Latencies is the annealing objective's timing model; the zero value
	// selects perf.DefaultLatencies.
	Latencies perf.Latencies
	// Moves bounds the swap attempts; zero selects the default budget.
	Moves int
}

// Name implements Policy.
func (Annealed) Name() string { return "annealed" }

// Place implements Policy: the base policy's starting layout (Random by
// default, consuming the same stream draws as Random so trial replay stays
// aligned) followed by the annealing search.
func (p Annealed) Place(d *ti.Device, numQubits int, r *rand.Rand) (*ti.Layout, error) {
	if p.Circuit == nil {
		return nil, fmt.Errorf("placement: annealed policy requires a circuit")
	}
	base := p.Base
	if base == nil {
		base = Random{}
	}
	start, err := base.Place(d, numQubits, r)
	if err != nil {
		return nil, err
	}
	backend := p.Backend
	if backend == nil {
		backend = perf.WeakLink{}
	}
	lat := p.Latencies
	if lat == (perf.Latencies{}) {
		lat = perf.DefaultLatencies()
	}
	ev := perf.NewEvaluator(p.Circuit)
	annealed, _, err := AnnealLayout(ev, start, backend, lat, r, AnnealOptions{Moves: p.Moves})
	return annealed, err
}
