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
// trial is bound through the stage graph, and the binding carries the
// explicit gate list and layout the constrained scheduler needs; pricing
// rides the batched kernel, which replays the list scheduler once per
// capacity level over a single shared event-state build.
func ExtControlCapacityContext(ctx context.Context, opt Options) (*CapacityResult, error) {
	opt = opt.normalized()
	res := &CapacityResult{Levels: CapacityLevels}
	var slowdowns []float64
	for _, spec := range apps.PaperSpecs() {
		// The constrained model prices weak-link gates, whatever
		// opt.Backend says.
		cfg := opt.baseConfig(spec, 16)
		cfg.Backend = nil
		st, err := core.NewStages(cfg)
		if err != nil {
			return nil, err
		}
		row := CapacityRow{App: spec.Name}
		sums := make([]float64, len(CapacityLevels))
		for i := 0; i < opt.Runs; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			b, err := st.Bind(stats.SplitSeed(opt.Seed, i))
			if err != nil {
				return nil, err
			}
			// One batched call prices every level; entry k is pinned equal
			// to ParallelTimeConstrained at CapacityLevels[k].
			ts, err := perf.ParallelTimeConstrainedAll(b.Evaluator().Circuit(), b.Layout(), opt.Latencies, CapacityLevels)
			if err != nil {
				return nil, err
			}
			for k, t := range ts {
				sums[k] += t
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
