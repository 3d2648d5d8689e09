package core

// This file gives the sweep workflow a request-shaped entry point: a Grid
// value describes the whole (spec × chain length × α × placer) product the
// way cmd/velociti-sweep's flags do, RunGrid evaluates it on the plan-lane
// trial loop (plan.go) with per-cell error isolation, and
// GridResult.WriteCSV renders exactly the CSV the CLI prints. The sweep
// CLI and the sweep service (internal/serve) both run through here, which
// is what makes the service's CLI-equivalence guarantee — byte-identical
// bodies for the same request — hold by construction rather than by
// parallel maintenance.

import (
	"context"
	"fmt"
	"io"

	"velociti/internal/circuit"
	"velociti/internal/perf"
	"velociti/internal/ti"
	"velociti/internal/verr"
)

// Grid describes a design-space sweep: every combination of a workload
// spec, a chain length, a weak-link penalty α, and a gate placer. Fields
// mirror the velociti-sweep flags.
type Grid struct {
	// Specs are the workload boundary conditions to sweep.
	Specs []circuit.Spec
	// ChainLengths are the ions-per-chain values to sweep.
	ChainLengths []int
	// Alphas are the weak-link penalty values to sweep; each cell prices
	// the base timing model with WeakPenalty overridden to its α.
	Alphas []float64
	// Placers are gate-placer names resolved via schedule.ByName.
	Placers []string
	// Topology is the weak-link arrangement shared by every cell.
	Topology ti.Topology
	// Latencies is the base timing model; the zero value selects
	// perf.DefaultLatencies (δ=1, γ=100).
	Latencies perf.Latencies
	// Runs and Seed are passed to every cell's Config; zero Runs selects
	// DefaultRuns. Workers bounds how many (plan, trial) jobs run at once
	// across the whole grid; every trial derives its own seed and results
	// land in canonical order, so the CSV is byte-identical at any count.
	Runs    int
	Seed    int64
	Workers int
	// Pipeline is the shared stage-artifact store; nil runs cache-free.
	// Cells that differ only in α already share one binding per trial, so
	// within one grid nothing is asked for twice: a Pipeline pays off only
	// across grids (velociti-serve shares one across requests). It never
	// changes a byte of the output.
	Pipeline *Pipeline
	// Backend is the timing backend shared by every cell; nil selects the
	// weak-link model (perf.WeakLink). It is not a grid axis — a sweep
	// prices one backend, and callers comparing backends run one grid per
	// backend (the DSE explorer has a proper backend axis).
	Backend perf.TimingBackend
	// Stream evaluates every cell through the memory-bounded streaming
	// path (Config.Stream): identical CSV bytes — the sweep never renders
	// critical paths — with peak memory independent of the gate counts.
	// Cells whose placer or backend cannot stream fail per-cell, like any
	// other invalid configuration.
	Stream bool
}

// GridCell is one fully resolved configuration of a Grid.
type GridCell struct {
	Spec        circuit.Spec
	ChainLength int
	Alpha       float64
	Placer      string
}

// GridResult holds a sweep's outcome with per-cell error isolation: one
// bad configuration degrades into one nil report and one non-nil error,
// never an aborted sweep.
type GridResult struct {
	// Cells lists every configuration in canonical (spec, chain length,
	// α, placer) order.
	Cells []GridCell
	// Reports holds the per-cell reports; Reports[i] is nil when Errs[i]
	// is non-nil.
	Reports []*Report
	// Errs holds the per-cell failures (nil entries for successes). It is
	// nil when every cell succeeded.
	Errs []error
}

// cells expands the grid product in canonical order.
func (g Grid) cells() []GridCell {
	var out []GridCell
	for _, spec := range g.Specs {
		for _, L := range g.ChainLengths {
			for _, alpha := range g.Alphas {
				for _, placer := range g.Placers {
					out = append(out, GridCell{Spec: spec, ChainLength: L, Alpha: alpha, Placer: placer})
				}
			}
		}
	}
	return out
}

// baseLatencies resolves the grid's base timing model.
func (g Grid) baseLatencies() perf.Latencies {
	if g.Latencies == (perf.Latencies{}) {
		return perf.DefaultLatencies()
	}
	return g.Latencies
}

// RunGrid evaluates every cell of the grid. The cells of one (spec, chain
// length, placer) differ only in α, so they form one plan (plan.go): each
// (plan, trial) job binds once and prices every α lane, and the jobs run
// across Workers. Each α lane is validated with the calls a one-cell Run
// of it makes, so a bad cell fails alone with that Run's error. The
// returned error is non-nil only for an empty grid; cell failures, ctx
// cancellation included, land in GridResult.Errs so the rest of the sweep
// survives.
func RunGrid(ctx context.Context, g Grid) (*GridResult, error) {
	cells := g.cells()
	if len(cells) == 0 {
		return nil, verr.Inputf("empty sweep grid")
	}
	lats := make([]perf.Latencies, len(g.Alphas))
	for ai, alpha := range g.Alphas {
		lats[ai] = g.baseLatencies()
		lats[ai].WeakPenalty = alpha
	}
	res := &GridResult{Cells: cells, Reports: make([]*Report, len(cells)), Errs: make([]error, len(cells))}
	var plans []*Plan
	var planCells [][]int // the cell of each plan lane
	nL, nA, nP := len(g.ChainLengths), len(g.Alphas), len(g.Placers)
	for si, spec := range g.Specs {
		for li, L := range g.ChainLengths {
			for pi, placer := range g.Placers {
				plan, errs := NewPlan(Config{
					Spec:        spec,
					ChainLength: L,
					Topology:    g.Topology,
					Runs:        g.Runs,
					Seed:        g.Seed,
					Pipeline:    g.Pipeline,
					Backend:     g.Backend,
					Stream:      g.Stream,
				}, placer, lats)
				var lanes []int
				for ai, err := range errs {
					c := ((si*nL+li)*nA+ai)*nP + pi
					res.Errs[c] = err
					if err == nil {
						lanes = append(lanes, c)
					}
				}
				if plan != nil {
					plans = append(plans, plan)
					planCells = append(planCells, lanes)
				}
			}
		}
	}
	reports, errs := runReports(ctx, plans, Config{Runs: g.Runs}.normalized().Runs, g.Workers, g.Seed)
	for k, lanes := range planCells {
		for j, c := range lanes {
			res.Errs[c] = errs[k]
			if errs[k] == nil {
				res.Reports[c] = reports[k][j]
			}
		}
	}
	if res.Failed() == 0 {
		res.Errs = nil
	}
	return res, nil
}

// Failed counts the cells that produced no report.
func (g *GridResult) Failed() int {
	n := 0
	for _, err := range g.Errs {
		if err != nil {
			n++
		}
	}
	return n
}

// Err returns the sweep-level failure when no cell at all succeeded (the
// first cell's error, wrapped with the count), and nil otherwise — the
// same degradation contract the sweep CLI has always had.
func (g *GridResult) Err() error {
	if failed := g.Failed(); failed == len(g.Cells) {
		return fmt.Errorf("all %d sweep configurations failed; first: %w", failed, g.Errs[0])
	}
	return nil
}

// EachSkip invokes fn for every failed cell in order — the hook the CLI
// uses to print per-row skip diagnostics to stderr and the service uses
// to count skipped cells, keeping both off the CSV byte stream.
func (g *GridResult) EachSkip(fn func(c GridCell, err error)) {
	for i, err := range g.Errs {
		if err != nil {
			fn(g.Cells[i], err)
		}
	}
}

// CSVHeader is the first line of every sweep rendering.
const CSVHeader = "workload,qubits,two_qubit_gates,chain_length,chains,weak_links,alpha,placer,serial_us,parallel_us,parallel_min_us,parallel_max_us,speedup,weak_gates"

// WriteCSV renders the sweep as the CLI's CSV: the header, then one row
// per successful cell in canonical order (failed cells are skipped — see
// EachSkip for surfacing them). The bytes written are identical to
// velociti-sweep's stdout for the same Grid.
func (g *GridResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, CSVHeader); err != nil {
		return err
	}
	for i, c := range g.Cells {
		if g.Errs != nil && g.Errs[i] != nil {
			continue
		}
		rep := g.Reports[i]
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%g,%s,%.3f,%.3f,%.3f,%.3f,%.3f,%.1f\n",
			c.Spec.Name, c.Spec.Qubits, c.Spec.TwoQubitGates,
			c.ChainLength, rep.Device.NumChains, rep.Device.MaxWeakLinks, c.Alpha, c.Placer,
			rep.Serial.Mean, rep.Parallel.Mean, rep.Parallel.Min, rep.Parallel.Max,
			rep.MeanSpeedup(), rep.WeakGates.Mean); err != nil {
			return err
		}
	}
	return nil
}
