package expt

import (
	"context"
	"fmt"
	"math"

	"velociti/internal/apps"
	"velociti/internal/core"
	"velociti/internal/fidelity"
	"velociti/internal/perf"
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

// ExtFidelityContext is ExtFidelity with cancellation. Its (application ×
// chain length) grid is exactly Figure 7's, so with a shared
// Options.Pipeline the bindings of a weak-link run are reused rather than
// regenerated, and only the fidelity pricing is new work. Every point's
// trials run in one call to core's trial loop, each priced by
// Model.EstimateBinding, which is safe for concurrent use.
func ExtFidelityContext(ctx context.Context, opt Options) (*FidelityResult, error) {
	opt = opt.normalized()
	model := fidelity.Default()
	specs := apps.PaperSpecs()
	res := &FidelityResult{ChainLengths: Fig7ChainLengths}
	var plans []*core.Plan
	for _, spec := range specs {
		for _, L := range res.ChainLengths {
			// The error model's weak-link ε and its dephasing window
			// describe the paper's model, so the study prices weak-link
			// gates, whatever opt.Backend says.
			cfg := opt.baseConfig(spec, L)
			cfg.Backend = nil
			p, err := newPlan(cfg, "random", opt.Latencies)
			if err != nil {
				return nil, err
			}
			plans = append(plans, p)
		}
	}
	ests := make([]fidelity.Estimate, len(plans)*opt.Runs)
	err := core.RunPlans(ctx, plans, opt.Runs, opt.Workers, opt.Seed, func(pi, ri, _, _ int, b *perf.Binding) error {
		est, err := model.EstimateBinding(b, opt.Latencies)
		if err != nil {
			return err
		}
		ests[pi*opt.Runs+ri] = est
		return nil
	})
	if err != nil {
		return nil, err
	}
	var reductions []float64
	n := float64(opt.Runs)
	for si, spec := range specs {
		row := FidelityRow{App: spec.Name}
		for li := range res.ChainLengths {
			// Sum in trial order, so every mean is the same at any worker count.
			var parSum, logSum, errSum float64
			pi := si*len(res.ChainLengths) + li
			for _, est := range ests[pi*opt.Runs : (pi+1)*opt.Runs] {
				parSum += est.MakespanMicros
				logSum += est.LogTotal
				errSum += est.ExpectedErrors
			}
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
