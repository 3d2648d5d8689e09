package expt

import (
	"context"
	"fmt"

	"velociti/internal/apps"
	"velociti/internal/core"
	"velociti/internal/perf"
	"velociti/internal/stats"
)

// CapacityLevels is the per-chain concurrent-gate budget sweep of the
// control-capacity extension. Zero means unlimited (the paper's model).
var CapacityLevels = []int{1, 2, 4, 8, 0}

// CapacityRow is one application's sensitivity to the per-chain control
// budget.
type CapacityRow struct {
	App string
	// ParallelMs[i] is the mean constrained parallel time at
	// CapacityLevels[i].
	ParallelMs []float64
	// Slowdown1 is time(capacity=1)/time(unlimited) − the price of fully
	// serialized per-chain control.
	Slowdown1 float64
}

// CapacityResult is the control-capacity extension study: the paper's
// parallel model assumes a chain can drive unlimited simultaneous gates,
// but real systems multiplex a finite number of AOM control channels
// (§II-B mentions 32-channel AOMs). This experiment quantifies how much
// of the paper's parallel speedup survives under per-chain concurrency
// budgets.
type CapacityResult struct {
	Levels []int
	Rows   []CapacityRow
	// AvgSlowdown1 averages Slowdown1 across applications.
	AvgSlowdown1 float64
}

// ExtControlCapacity sweeps the per-chain budget over the Table II
// applications on 16-ion chains.
func ExtControlCapacity(opt Options) (*CapacityResult, error) {
	return ExtControlCapacityContext(context.Background(), opt)
}

// ExtControlCapacityContext is ExtControlCapacity with cancellation. Each
// trial's binding carries the explicit gate list and layout the constrained
// scheduler needs; pricing rides the batched kernel, which replays the list
// scheduler once per capacity level over a single shared event-state
// build. Every application's trials run in one call to core's trial loop.
func ExtControlCapacityContext(ctx context.Context, opt Options) (*CapacityResult, error) {
	opt = opt.normalized()
	specs := apps.PaperSpecs()
	var plans []*core.Plan
	for _, spec := range specs {
		// The constrained model prices weak-link gates, whatever
		// opt.Backend says.
		cfg := opt.baseConfig(spec, 16)
		cfg.Backend = nil
		p, err := newPlan(cfg, "random", opt.Latencies)
		if err != nil {
			return nil, err
		}
		plans = append(plans, p)
	}
	nK := len(CapacityLevels)
	times := make([]float64, len(plans)*opt.Runs*nK)
	err := core.RunPlans(ctx, plans, opt.Runs, opt.Workers, opt.Seed, func(pi, ri, _, _ int, b *perf.Binding) error {
		// One batched call prices every level; entry k is pinned equal to
		// ParallelTimeConstrained at CapacityLevels[k].
		ts, err := perf.ParallelTimeConstrainedAll(b.Evaluator().Circuit(), b.Layout(), opt.Latencies, CapacityLevels)
		if err != nil {
			return err
		}
		copy(times[(pi*opt.Runs+ri)*nK:], ts)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &CapacityResult{Levels: CapacityLevels}
	var slowdowns []float64
	for pi, spec := range specs {
		row := CapacityRow{App: spec.Name}
		// Sum in trial order, so every mean is the same at any worker count.
		sums := make([]float64, nK)
		for ri := 0; ri < opt.Runs; ri++ {
			for k := range sums {
				sums[k] += times[(pi*opt.Runs+ri)*nK+k]
			}
		}
		for _, s := range sums {
			row.ParallelMs = append(row.ParallelMs, s/float64(opt.Runs)/1000)
		}
		unlimited := row.ParallelMs[len(row.ParallelMs)-1]
		if unlimited > 0 {
			row.Slowdown1 = row.ParallelMs[0] / unlimited
		}
		slowdowns = append(slowdowns, row.Slowdown1)
		res.Rows = append(res.Rows, row)
	}
	res.AvgSlowdown1 = stats.Summarize(slowdowns).Mean
	return res, nil
}

// Table renders the study as ASCII.
func (r *CapacityResult) Table() string {
	headers := []string{"App"}
	for _, k := range r.Levels {
		if k == 0 {
			headers = append(headers, "K=∞ [ms]")
		} else {
			headers = append(headers, fmt.Sprintf("K=%d [ms]", k))
		}
	}
	headers = append(headers, "K=1 slowdown")
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		cells := []string{row.App}
		for _, v := range row.ParallelMs {
			cells = append(cells, fmt.Sprintf("%.2f", v))
		}
		cells = append(cells, fmt.Sprintf("%.1fx", row.Slowdown1))
		rows = append(rows, cells)
	}
	t := renderTable("Extension: parallel time vs per-chain control capacity (16-ion chains)", headers, rows)
	t += fmt.Sprintf("average K=1 slowdown over unlimited control: %.1fx\n", r.AvgSlowdown1)
	return t
}

// CSV renders the study as CSV.
func (r *CapacityResult) CSV() string {
	headers := []string{"app", "capacity", "parallel_ms"}
	var rows [][]string
	for _, row := range r.Rows {
		for i, k := range r.Levels {
			rows = append(rows, []string{row.App, itoa(k), fmt.Sprintf("%.3f", row.ParallelMs[i])})
		}
	}
	return renderCSV(headers, rows)
}
