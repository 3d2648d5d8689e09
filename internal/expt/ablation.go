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

func ablationRow(ctx context.Context, variant string, cfg core.Config) (AblationRow, error) {
	rep, err := core.RunContext(ctx, cfg)
	if err != nil {
		return AblationRow{}, err
	}
	return AblationRow{
		Variant:   variant,
		Parallel:  rep.Parallel,
		WeakGates: rep.WeakGates,
		Speedup:   rep.MeanSpeedup(),
	}, nil
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
	res := &AblationResult{Name: "Ablation: gate scheduling policy (QAOA, 16-ion chains)"}
	for _, placer := range schedule.All(opt.Latencies) {
		cfg := opt.baseConfig(spec, 16)
		cfg.Placer = placer
		row, err := ablationRow(ctx, placer.Name(), cfg)
		if err != nil {
			return nil, fmt.Errorf("expt: scheduler ablation %s: %w", placer.Name(), err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
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
	variants := []struct {
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
	}
	res := &AblationResult{Name: "Ablation: qubit placement policy (gate-level Supremacy, 16-ion chains)"}
	for _, v := range variants {
		cfg := core.Config{
			Circuit:     c,
			ChainLength: 16,
			Latencies:   opt.Latencies,
			Placement:   v.pol,
			Runs:        opt.Runs,
			Seed:        opt.Seed,
			Pipeline:    opt.Pipeline,
			Backend:     opt.Backend,
		}
		row, err := ablationRow(ctx, v.name, cfg)
		if err != nil {
			return nil, fmt.Errorf("expt: placement ablation %s: %w", v.name, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
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
	// The weak-link column prices the paper's model, whatever opt.Backend
	// says.
	cfg := opt.baseConfig(spec, 16)
	cfg.Backend = nil
	st, err := core.NewStages(cfg)
	if err != nil {
		return nil, err
	}
	// Extend the sweep above Table III's range to expose the crossover.
	alphas := append(append([]float64{}, ScalingAlphas...), 3.0, 4.0, 5.0)
	lats := make([]perf.Latencies, len(alphas))
	for j, alpha := range alphas {
		lats[j] = opt.Latencies
		lats[j].WeakPenalty = alpha
	}
	weakSums := make([]float64, len(alphas))
	var shuttleSum float64
	for i := 0; i < opt.Runs; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b, err := st.Bind(stats.SplitSeed(opt.Seed, i))
		if err != nil {
			return nil, err
		}
		rs, err := b.TimeAll(lats)
		if err != nil {
			return nil, err
		}
		for j, r := range rs {
			weakSums[j] += r.ParallelMicros
		}
		cmp, err := shuttle.Compare(b.Evaluator().Circuit(), b.Layout(), opt.Latencies, params)
		if err != nil {
			return nil, err
		}
		shuttleSum += cmp.ShuttleMicros
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
	res := &AblationResult{Name: "Ablation: weak-link topology (64-qubit 2:1 circuit, 16-ion chains, edge-constrained placer)"}
	for _, topo := range []ti.Topology{ti.Ring, ti.Line} {
		cfg := opt.baseConfig(spec, 16)
		cfg.Topology = topo
		cfg.Placer = schedule.EdgeConstrained{}
		row, err := ablationRow(ctx, topo.String(), cfg)
		if err != nil {
			return nil, fmt.Errorf("expt: topology ablation %s: %w", topo, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
