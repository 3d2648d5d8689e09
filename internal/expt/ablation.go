package expt

import (
	"context"
	"fmt"

	"velociti/internal/apps"
	"velociti/internal/circuit"
	"velociti/internal/core"
	"velociti/internal/perf"
	"velociti/internal/placement"
	"velociti/internal/schedule"
	"velociti/internal/shuttle"
	"velociti/internal/stats"
	"velociti/internal/ti"
)

// AblationRow compares one policy variant.
type AblationRow struct {
	Variant   string
	Parallel  stats.Summary // µs
	WeakGates stats.Summary
	Speedup   float64 // mean serial / mean parallel
}

// AblationResult is one ablation study over policy variants.
type AblationResult struct {
	Name string
	Rows []AblationRow
}

// Table renders the ablation as ASCII.
func (r *AblationResult) Table() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Variant, ms(row.Parallel.Mean), ms(row.Parallel.Min), ms(row.Parallel.Max),
			fmt.Sprintf("%.1f", row.WeakGates.Mean), fmt.Sprintf("%.1fx", row.Speedup),
		})
	}
	return renderTable(r.Name,
		[]string{"Variant", "Parallel [ms]", "min", "max", "weak gates", "vs serial"}, rows)
}

// CSV renders the ablation as CSV.
func (r *AblationResult) CSV() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Variant,
			fmt.Sprintf("%.3f", row.Parallel.Mean), fmt.Sprintf("%.3f", row.Parallel.Min), fmt.Sprintf("%.3f", row.Parallel.Max),
			fmt.Sprintf("%.2f", row.WeakGates.Mean), fmt.Sprintf("%.3f", row.Speedup),
		})
	}
	return renderCSV([]string{"variant", "parallel_us", "parallel_min_us", "parallel_max_us", "weak_gates", "speedup_vs_serial"}, rows)
}

// circuitConfig is the explicit-mode configuration of the placement
// ablations: the gate-level circuit c on 16-ion chains, its qubits placed
// by pol. The plan it is lowered onto supplies the timing model and trials.
func (o Options) circuitConfig(c *circuit.Circuit, pol placement.Policy) core.Config {
	return core.Config{Circuit: c, ChainLength: 16, Placement: pol, Pipeline: o.Pipeline, Backend: o.Backend}
}

// runAblation runs one data point per variant, all in one core.RunReports
// call, and tabulates each variant's report as a row named variants[i].
func runAblation(ctx context.Context, opt Options, name string, variants []string, set *planSet) (*AblationResult, error) {
	reports, err := set.reports(ctx, opt)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Name: name}
	for i, variant := range variants {
		rep := reports[i][0]
		res.Rows = append(res.Rows, AblationRow{
			Variant:   variant,
			Parallel:  rep.Parallel,
			WeakGates: rep.WeakGates,
			Speedup:   rep.MeanSpeedup(),
		})
	}
	return res, nil
}

// AblationSchedulers compares the paper's random gate placement against
// the weak-avoiding and load-balanced extensions on the densest Table II
// workload (QAOA), quantifying how much of the random-scheduling
// performance loss smarter schedulers recover (§VI-B's motivation).
func AblationSchedulers(opt Options) (*AblationResult, error) {
	return AblationSchedulersContext(context.Background(), opt)
}

// AblationSchedulersContext is AblationSchedulers with cancellation.
func AblationSchedulersContext(ctx context.Context, opt Options) (*AblationResult, error) {
	opt = opt.normalized()
	spec := apps.PaperSpecs()[1] // QAOA: highest 2q-gate pressure per qubit after QFT
	var set planSet
	var variants []string
	for _, placer := range schedule.All(opt.Latencies) {
		if err := set.add("expt: scheduler ablation "+placer.Name(), opt.baseConfig(spec, 16), placer.Name(), opt.Latencies); err != nil {
			return nil, err
		}
		variants = append(variants, placer.Name())
	}
	return runAblation(ctx, opt, "Ablation: gate scheduling policy (QAOA, 16-ion chains)", variants, &set)
}

// AblationPlacement compares qubit-placement policies on an explicit
// gate-level circuit (the 8×8 Supremacy workload, whose grid structure
// gives interaction-aware placement real locality to exploit).
func AblationPlacement(opt Options) (*AblationResult, error) {
	return AblationPlacementContext(context.Background(), opt)
}

// AblationPlacementContext is AblationPlacement with cancellation.
func AblationPlacementContext(ctx context.Context, opt Options) (*AblationResult, error) {
	opt = opt.normalized()
	c, err := apps.Supremacy(8, 8, 20, opt.Seed+1)
	if err != nil {
		return nil, fmt.Errorf("expt: placement ablation workload: %w", err)
	}
	ig := c.InteractionGraph()
	var set planSet
	var variants []string
	for _, v := range []struct {
		name string
		pol  placement.Policy
	}{
		{"random", placement.Random{}},
		{"sequential", placement.Sequential{}},
		{"interaction-aware", placement.InteractionAware{Interactions: ig}},
		// Local search from a random start gets stuck on grid workloads;
		// seeded with the greedy result it can only improve on it.
		{"refined(random)", placement.Refined{Interactions: ig}},
		{"refined(greedy)", placement.Refined{Base: placement.InteractionAware{Interactions: ig}, Interactions: ig}},
	} {
		if err := set.add("expt: placement ablation "+v.name, opt.circuitConfig(c, v.pol), "random", opt.Latencies); err != nil {
			return nil, err
		}
		variants = append(variants, v.name)
	}
	return runAblation(ctx, opt, "Ablation: qubit placement policy (gate-level Supremacy, 16-ion chains)", variants, &set)
}

// CommRow is one weak-link-penalty point of the communication-mechanism
// comparison.
type CommRow struct {
	Alpha     float64
	WeakMs    float64 // mean parallel time with weak-link gates at α·γ
	ShuttleMs float64 // mean parallel time with ion shuttling (α-independent)
	Winner    string
}

// CommResult compares photonic weak links against physical ion shuttling
// across the Table III α sweep.
type CommResult struct {
	Name string
	Rows []CommRow
	// BreakEvenAlpha is the analytic single-hop crossover.
	BreakEvenAlpha float64
}

// Table renders the comparison as ASCII.
func (r *CommResult) Table() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%.1f", row.Alpha),
			fmt.Sprintf("%.2f", row.WeakMs),
			fmt.Sprintf("%.2f", row.ShuttleMs),
			row.Winner,
		})
	}
	t := renderTable(r.Name, []string{"α", "weak link [ms]", "shuttling [ms]", "winner"}, rows)
	t += fmt.Sprintf("analytic single-hop break-even: α = %.2f\n", r.BreakEvenAlpha)
	return t
}

// CSV renders the comparison as CSV.
func (r *CommResult) CSV() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%g", row.Alpha),
			fmt.Sprintf("%.3f", row.WeakMs),
			fmt.Sprintf("%.3f", row.ShuttleMs),
			row.Winner,
		})
	}
	return renderCSV([]string{"alpha", "weak_link_ms", "shuttle_ms", "winner"}, rows)
}

// AblationComm compares the paper's weak-link model against the QCCD
// shuttling alternative (internal/shuttle) on the QAOA workload across the
// α sweep: as the photonic link degrades (α grows), physical transport
// becomes the better mechanism. Each trial is bound once through the stage
// graph and feeds both columns: the weak-link column prices the binding
// under every α in one parametric pass, and the contention-free shuttling
// model (shuttle.Compare) prices the same (circuit, layout) pair once,
// since its transport time does not depend on α.
func AblationComm(opt Options) (*CommResult, error) {
	return AblationCommContext(context.Background(), opt)
}

// AblationCommContext is AblationComm with cancellation.
func AblationCommContext(ctx context.Context, opt Options) (*CommResult, error) {
	opt = opt.normalized()
	spec := apps.PaperSpecs()[1] // QAOA
	params := shuttle.Default()
	breakEven, err := params.BreakEvenAlpha(opt.Latencies)
	if err != nil {
		return nil, err
	}
	res := &CommResult{
		Name:           "Ablation: cross-chain communication mechanism (QAOA, 16-ion chains)",
		BreakEvenAlpha: breakEven,
	}
	// Extend the sweep above Table III's range to expose the crossover.
	alphas := append(append([]float64{}, ScalingAlphas...), 3.0, 4.0, 5.0)
	lats := make([]perf.Latencies, len(alphas))
	for j, alpha := range alphas {
		lats[j] = opt.Latencies
		lats[j].WeakPenalty = alpha
	}
	// The weak-link column prices the paper's model, whatever opt.Backend
	// says.
	cfg := opt.baseConfig(spec, 16)
	cfg.Backend = nil
	plan, err := newPlan(cfg, "random", lats...)
	if err != nil {
		return nil, err
	}
	nA := len(alphas)
	weak := make([]float64, opt.Runs*nA)
	shuttled := make([]float64, opt.Runs)
	// The random placer binds every α lane to one binding per trial; the
	// α-independent shuttling column prices lane 0's.
	err = core.RunPlans(ctx, []*core.Plan{plan}, opt.Runs, opt.Workers, opt.Seed, func(_, ri, a0, a1 int, b *perf.Binding) error {
		rs, err := b.TimeAll(plan.Lats()[a0:a1])
		if err != nil {
			return err
		}
		for j, r := range rs {
			weak[ri*nA+a0+j] = r.ParallelMicros
		}
		if a0 == 0 {
			cmp, err := shuttle.Compare(b.Evaluator().Circuit(), b.Layout(), opt.Latencies, params)
			if err != nil {
				return err
			}
			shuttled[ri] = cmp.ShuttleMicros
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Sum in trial order, so every mean is the same at any worker count.
	weakSums := make([]float64, nA)
	var shuttleSum float64
	for ri := 0; ri < opt.Runs; ri++ {
		for j := range weakSums {
			weakSums[j] += weak[ri*nA+j]
		}
		shuttleSum += shuttled[ri]
	}
	for j, alpha := range alphas {
		row := CommRow{
			Alpha:     alpha,
			WeakMs:    weakSums[j] / float64(opt.Runs) / 1000,
			ShuttleMs: shuttleSum / float64(opt.Runs) / 1000,
		}
		if row.WeakMs <= row.ShuttleMs {
			row.Winner = "weak link"
		} else {
			row.Winner = "shuttling"
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// AblationTopology compares the paper's ring of weak links against a line.
// Under the calibrated model a cross-chain gate costs a flat α·γ wherever
// the chains sit, so topology is only visible where it changes the
// scheduler's choices — the edge-constrained regime, where a line's
// missing wraparound link removes cross-chain pair options (and the w of
// Eq. 2 drops from c to c−1).
func AblationTopology(opt Options) (*AblationResult, error) {
	return AblationTopologyContext(context.Background(), opt)
}

// AblationTopologyContext is AblationTopology with cancellation.
func AblationTopologyContext(ctx context.Context, opt Options) (*AblationResult, error) {
	opt = opt.normalized()
	spec := circuit.Spec{Name: "ratio2-64q", Qubits: 64, OneQubitGates: 64, TwoQubitGates: 128}
	var set planSet
	var variants []string
	for _, topo := range []ti.Topology{ti.Ring, ti.Line} {
		cfg := opt.baseConfig(spec, 16)
		cfg.Topology = topo
		if err := set.add(fmt.Sprintf("expt: topology ablation %s", topo), cfg, "edge-constrained", opt.Latencies); err != nil {
			return nil, err
		}
		variants = append(variants, topo.String())
	}
	return runAblation(ctx, opt, "Ablation: weak-link topology (64-qubit 2:1 circuit, 16-ion chains, edge-constrained placer)", variants, &set)
}
