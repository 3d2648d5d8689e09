package expt

// Extension experiment: search-based placement. The paper's placement
// policies are constructive (random, round-robin, greedy
// interaction-aware); PR 9's delta-evaluation stack makes a search-based
// policy affordable, so this driver quantifies what simulated annealing
// over the actual parallel-time objective buys on the gate-level Fig 6–9
// application drivers. Unlike InteractionAware — which minimizes the
// cross-chain gate count, a proxy — the annealed policy minimizes the
// parallel model's makespan itself (see internal/placement.AnnealLayout).

import (
	"context"
	"fmt"

	"velociti/internal/apps"
	"velociti/internal/circuit"
	"velociti/internal/placement"
)

// annealAblationMoves is the swap budget per annealing run in the ablation:
// large enough that the search converges on the 64-qubit drivers (the
// default 32·n budget leaves it well short of the constructive policies).
const annealAblationMoves = 20000

// AblationAnnealedPlacement compares annealed placement against the
// random, round-robin, and greedy interaction-aware policies on explicit
// gate-level workloads from the application catalog, plus the hybrid that
// refines the interaction-aware layout by annealing.
func AblationAnnealedPlacement(opt Options) (*AblationResult, error) {
	return AblationAnnealedPlacementContext(context.Background(), opt)
}

// AblationAnnealedPlacementContext is AblationAnnealedPlacement with
// cancellation.
func AblationAnnealedPlacementContext(ctx context.Context, opt Options) (*AblationResult, error) {
	opt = opt.normalized()
	qft, err := apps.QFT(32)
	if err != nil {
		return nil, fmt.Errorf("expt: annealed ablation workload: %w", err)
	}
	sup, err := apps.Supremacy(8, 8, 20, opt.Seed+1)
	if err != nil {
		return nil, fmt.Errorf("expt: annealed ablation workload: %w", err)
	}
	var set planSet
	var variants []string
	for _, c := range []*circuit.Circuit{qft, sup} {
		ig := c.InteractionGraph()
		for _, v := range []struct {
			name string
			pol  placement.Policy
		}{
			{"random", placement.Random{}},
			{"round-robin", placement.RoundRobin{}},
			{"interaction-aware", placement.InteractionAware{Interactions: ig}},
			{"annealed", placement.Annealed{Circuit: c, Backend: opt.Backend, Latencies: opt.Latencies, Moves: annealAblationMoves}},
			{"interaction+annealed", placement.Annealed{Circuit: c, Base: placement.InteractionAware{Interactions: ig}, Backend: opt.Backend, Latencies: opt.Latencies, Moves: annealAblationMoves}},
		} {
			if err := set.add(fmt.Sprintf("expt: annealed ablation %s %s", c.Name, v.name), opt.circuitConfig(c, v.pol), "random", opt.Latencies); err != nil {
				return nil, err
			}
			variants = append(variants, c.Name+"/"+v.name)
		}
	}
	return runAblation(ctx, opt, "Extension: search-based (annealed) placement vs constructive policies (16-ion chains)", variants, &set)
}
