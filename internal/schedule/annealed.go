package schedule

// Annealed: the search-based spec-mode placer. Gate synthesis is the
// paper's random baseline — the workload abstraction (§III-A) fixes only
// the gate counts, so the sequence itself stays calibration-compatible —
// but the placer additionally implements LayoutSearcher, which the stage
// pipeline (internal/core) uses to re-place the layout by simulated
// annealing against the synthesized circuit before binding. The searched
// layout minimizes the parallel model's makespan under the backend's
// delta weights (see internal/placement.AnnealLayout), not merely the
// cross-chain gate count.

import (
	"fmt"
	"math/rand"

	"velociti/internal/circuit"
	"velociti/internal/perf"
	"velociti/internal/placement"
	"velociti/internal/stats"
	"velociti/internal/ti"
)

// LayoutSearcher is the optional Placer extension the stage pipeline
// consults after synthesis: given the evaluator for the synthesized
// circuit and the trial's starting layout, it returns an improved layout
// for the same device. Implementations must be deterministic in seed —
// the pipeline derives it from the trial seed — and must not modify the
// input layout. Placers without the interface skip the search stage
// entirely.
type LayoutSearcher interface {
	SearchLayout(ev *perf.Evaluator, l *ti.Layout, backend perf.TimingBackend, seed int64) (*ti.Layout, error)
}

// Annealed synthesizes gates exactly like Random and then searches for a
// better layout by simulated annealing. It deliberately does not implement
// SweepPlacer: the searched layout differs per circuit, so batched
// synthesis over a shared layout cannot apply — the sweep layers fall back
// to per-cell evaluation.
type Annealed struct {
	// Latencies is the annealing objective's timing model; the zero value
	// selects perf.DefaultLatencies. This is the objective only — reported
	// results are always priced by the pipeline's own backend and model.
	Latencies perf.Latencies
	// Moves bounds the annealing swap attempts; zero selects the default
	// budget of placement.AnnealLayout.
	Moves int
}

// Name implements Placer.
func (Annealed) Name() string { return "annealed" }

// Place implements Placer: synthesis is bit-identical to Random's (same
// stream draws), so annealed-vs-random comparisons isolate the layout
// search.
func (p Annealed) Place(spec circuit.Spec, l *ti.Layout, r *rand.Rand) (*circuit.Circuit, error) {
	return Random{}.Place(spec, l, r)
}

// SearchLayout implements LayoutSearcher by annealing qubit-swap moves
// scored with the incremental delta evaluator. The seed fully determines
// the search; the trial's own RNG stream is untouched.
func (p Annealed) SearchLayout(ev *perf.Evaluator, l *ti.Layout, backend perf.TimingBackend, seed int64) (*ti.Layout, error) {
	lat := p.Latencies
	if lat == (perf.Latencies{}) {
		lat = perf.DefaultLatencies()
	}
	searched, _, err := placement.AnnealLayout(ev, l, backend, lat, stats.NewRand(seed), placement.AnnealOptions{Moves: p.Moves})
	return searched, err
}

// CacheKey implements cache.Keyer. Synthesis is Random's, but the key must
// still be distinct: the pipeline's search artifacts are keyed per placer,
// and the objective's knobs select different layouts.
func (p Annealed) CacheKey() string {
	lat := p.Latencies
	if lat == (perf.Latencies{}) {
		lat = perf.DefaultLatencies()
	}
	moves := p.Moves
	if moves < 0 {
		moves = 0
	}
	return fmt.Sprintf("annealed/obj={%s}/m=%d", lat.CacheKey(), moves)
}
