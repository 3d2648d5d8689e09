package expt

import (
	"context"
	"fmt"
	"math"

	"velociti/internal/apps"
	"velociti/internal/core"
	"velociti/internal/fidelity"
	"velociti/internal/stats"
)

// FidelityRow is one application's timing/fidelity trade-off across chain
// lengths.
type FidelityRow struct {
	App string
	// ParallelMs[i] is the mean parallel time at Fig7ChainLengths[i].
	ParallelMs []float64
	// LogFidelity[i] is the mean natural-log success probability at
	// Fig7ChainLengths[i] (log-domain: these underflow linearly, not to
	// zero).
	LogFidelity []float64
	// ExpectedErrors[i] is the mean expected gate-error count.
	ExpectedErrors []float64
}

// FidelityResult is the chain-length sweep of the fidelity extension: the
// same knob the paper sweeps for performance (Figure 7) also governs the
// error budget, because longer chains mean fewer weak-link gates and the
// weak link is the noisiest operation (Murali et al.'s central fidelity
// observation, reproduced inside VelociTI's abstractions).
type FidelityResult struct {
	ChainLengths []int
	Rows         []FidelityRow
	// AvgErrorReduction is the mean fractional drop in expected errors
	// from the shortest to the longest chain.
	AvgErrorReduction float64
}

// ExtFidelity sweeps chain length over the Table II applications and
// reports both axes: parallel time and estimated fidelity.
func ExtFidelity(opt Options) (*FidelityResult, error) {
	return ExtFidelityContext(context.Background(), opt)
}

// ExtFidelityContext is ExtFidelity with cancellation. Trials run through
// the stage pipeline: the (application × chain length) grid here is exactly
// Figure 7's, so with a shared Options.Pipeline the layouts, circuits, and
// bindings of a weak-link run are reused rather than regenerated, and only
// the fidelity pricing is new work. Pricing rides the batched estimator: one Estimator tabulates
// the per-class error terms for the whole study, and EstimateOne is pinned
// bit-identical to Model.EstimateBinding (which is itself pinned to Estimate
// on the trial's (circuit, layout) pair), so the figures are unchanged.
func ExtFidelityContext(ctx context.Context, opt Options) (*FidelityResult, error) {
	opt = opt.normalized()
	model, err := fidelity.NewEstimator(fidelity.Default())
	if err != nil {
		return nil, err
	}
	res := &FidelityResult{ChainLengths: Fig7ChainLengths}
	var reductions []float64
	for _, spec := range apps.PaperSpecs() {
		row := FidelityRow{App: spec.Name}
		for _, L := range res.ChainLengths {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			// The error model's weak-link ε and its dephasing window
			// describe the paper's model, so the study prices weak-link
			// gates, whatever opt.Backend says.
			cfg := opt.baseConfig(spec, L)
			cfg.Backend = nil
			st, err := core.NewStages(cfg)
			if err != nil {
				return nil, err
			}
			var parSum, logSum, errSum float64
			for i := 0; i < opt.Runs; i++ {
				b, err := st.Bind(stats.SplitSeed(opt.Seed, i))
				if err != nil {
					return nil, err
				}
				est, err := model.EstimateOne(b, opt.Latencies)
				if err != nil {
					return nil, err
				}
				parSum += est.MakespanMicros
				logSum += est.LogTotal
				errSum += est.ExpectedErrors
			}
			n := float64(opt.Runs)
			row.ParallelMs = append(row.ParallelMs, parSum/n/1000)
			row.LogFidelity = append(row.LogFidelity, logSum/n)
			row.ExpectedErrors = append(row.ExpectedErrors, errSum/n)
		}
		first := row.ExpectedErrors[0]
		last := row.ExpectedErrors[len(row.ExpectedErrors)-1]
		if first > 0 {
			reductions = append(reductions, 1-last/first)
		}
		res.Rows = append(res.Rows, row)
	}
	res.AvgErrorReduction = stats.Summarize(reductions).Mean
	return res, nil
}

// Table renders the extension study as ASCII.
func (r *FidelityResult) Table() string {
	headers := []string{"App"}
	for _, L := range r.ChainLengths {
		headers = append(headers, fmt.Sprintf("errs L=%d", L))
	}
	headers = append(headers, "ln(fid) L=8", fmt.Sprintf("ln(fid) L=%d", r.ChainLengths[len(r.ChainLengths)-1]))
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		cells := []string{row.App}
		for _, e := range row.ExpectedErrors {
			cells = append(cells, fmt.Sprintf("%.1f", e))
		}
		cells = append(cells,
			fmt.Sprintf("%.1f", row.LogFidelity[0]),
			fmt.Sprintf("%.1f", row.LogFidelity[len(row.LogFidelity)-1]))
		rows = append(rows, cells)
	}
	t := renderTable("Extension: expected gate errors and log-fidelity vs chain length", headers, rows)
	t += fmt.Sprintf("average expected-error reduction from L=8 to L=32: %s\n", pct(r.AvgErrorReduction))
	return t
}

// CSV renders the extension study as CSV.
func (r *FidelityResult) CSV() string {
	headers := []string{"app", "chain_length", "parallel_ms", "log_fidelity", "expected_errors"}
	var rows [][]string
	for _, row := range r.Rows {
		for i, L := range r.ChainLengths {
			rows = append(rows, []string{
				row.App, itoa(L),
				fmt.Sprintf("%.3f", row.ParallelMs[i]),
				fmt.Sprintf("%.3f", row.LogFidelity[i]),
				fmt.Sprintf("%.3f", row.ExpectedErrors[i]),
			})
		}
	}
	return renderCSV(headers, rows)
}

// sanity guard used by tests: log-fidelity must be finite everywhere.
func (r *FidelityResult) finite() bool {
	for _, row := range r.Rows {
		for _, v := range row.LogFidelity {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}
