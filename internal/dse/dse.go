// Package dse automates VelociTI's design-space exploration (the paper's
// Case Study 2 workflow, §VI-B): it evaluates a workload across a grid of
// machine configurations — chain length, weak-link penalty, and scheduling
// policy — and reports the Pareto frontier over the two axes a TI architect
// trades: execution time (parallel model) and estimated success
// probability (fidelity extension).
//
// The paper performs these sweeps by hand across figures; Explore runs the
// grid and Pareto filters it, so "which configurations are worth building"
// becomes one call.
//
// Exploration is plan-grouped: the grid is lowered onto core's trial loop
// (core.Plan, core.RunPlans) as one plan per latency-independent (chain
// length, placer, backend) triple, so each plan's whole α axis is bound
// once per seed and priced in one fidelity.Estimator.EstimateAll per run
// of lanes that share a binding, since α enters only at the pricing
// stage. Pricing does not branch on the backend: a binding prices itself
// under the backend whose Prepare annotated it, so the same estimator
// calls serve the weak-link and shuttle models. The tests keep a
// cell-by-cell reference explorer; the two are bit-identical because
// every batched kernel preserves the per-cell draw sequences and float
// operation order.
package dse

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"velociti/internal/circuit"
	"velociti/internal/core"
	"velociti/internal/fidelity"
	"velociti/internal/perf"
	"velociti/internal/shuttle"
	"velociti/internal/ti"
)

// Point is one evaluated configuration.
type Point struct {
	// Knobs.
	ChainLength int     `json:"chain_length"`
	Alpha       float64 `json:"alpha"`
	Placer      string  `json:"placer"`
	Backend     string  `json:"backend"`
	// Outcomes (means over the configured runs).
	ParallelMicros float64 `json:"parallel_us"`
	LogFidelity    float64 `json:"log_fidelity"`
	WeakGates      float64 `json:"weak_gates"`
}

// Response is an exploration's outcome as velociti-serve answers it: every
// evaluated point in canonical (ChainLength, Alpha, Placer, Backend) order
// plus the Pareto frontier over (time, log-fidelity).
type Response struct {
	Points []Point `json:"points"`
	Pareto []Point `json:"pareto"`
}

// Dominates reports whether p is at least as good as q on both axes and
// strictly better on one (lower time, higher log-fidelity).
func (p Point) Dominates(q Point) bool {
	if p.ParallelMicros > q.ParallelMicros || p.LogFidelity < q.LogFidelity {
		return false
	}
	return p.ParallelMicros < q.ParallelMicros || p.LogFidelity > q.LogFidelity
}

// Options configures the exploration grid.
type Options struct {
	// ChainLengths to sweep; nil selects the paper's 8/16/24/32.
	ChainLengths []int
	// Alphas to sweep; nil selects {2.0, 1.5, 1.0}.
	Alphas []float64
	// Placers to sweep by name; nil selects {"random", "load-balanced"}.
	// Any schedule.ByName-resolvable name is accepted, including the
	// search-based "annealed" — it cannot batch a sweep lane-free (the
	// searched layout differs per synthesized circuit), so each of its α
	// lanes binds on its own.
	Placers []string
	// Backends to sweep by name ("weaklink", "shuttle"); nil selects
	// {"weaklink"}. The backend is the innermost grid axis, so a plan
	// batches one backend and a single-backend exploration keeps the
	// historical point ordering.
	Backends []string
	// Shuttle prices the shuttle backend's transport primitives; nil
	// selects shuttle.Default(). Validated whenever present.
	Shuttle *shuttle.Params
	// Runs per configuration; zero selects 10 (exploration favours grid
	// breadth over per-point precision).
	Runs int
	// Seed is the master seed.
	Seed int64
	// Fidelity is the error model; zero value selects the defaults.
	Fidelity fidelity.Model
	// Latencies is the base timing model (α is overridden per point).
	Latencies perf.Latencies
	// Workers bounds how many (plan, seed) jobs are evaluated concurrently
	// (further capped at GOMAXPROCS by the shared pool runner). Zero or
	// one evaluates the grid serially. Every trial derives its own seed
	// and the reduction preserves grid and run order, so results are
	// bit-identical at any worker count.
	Workers int
	// Pipeline is the shared stage-artifact store. A non-nil pipeline
	// retains each trial's placement, synthesis, and gate-class binding so
	// later Explore calls with overlapping seeds skip recomputation. When
	// nil, the explorer runs cache-free instead: one coupled trial per
	// (plan, seed) already covers the whole α axis, so within a single
	// call there is nothing to share, and core's trial loop recycles the
	// transient circuits and evaluators through scratch pools to keep the
	// batched loop allocation-flat. Caching never changes results.
	Pipeline *core.Pipeline
}

func (o Options) normalized() Options {
	if len(o.ChainLengths) == 0 {
		o.ChainLengths = []int{8, 16, 24, 32}
	}
	if len(o.Alphas) == 0 {
		o.Alphas = []float64{2.0, 1.5, 1.0}
	}
	if len(o.Placers) == 0 {
		o.Placers = []string{"random", "load-balanced"}
	}
	if len(o.Backends) == 0 {
		o.Backends = []string{perf.WeakLink{}.Name()}
	}
	if o.Runs <= 0 {
		o.Runs = 10
	}
	if o.Fidelity == (fidelity.Model{}) {
		o.Fidelity = fidelity.Default()
	}
	if o.Latencies == (perf.Latencies{}) {
		o.Latencies = perf.DefaultLatencies()
	}
	return o
}

// lower lowers the grid onto core's trial loop: one plan per (chain
// length, placer, backend) in canonical order, whose lanes price Alphas in
// order. Device, transport-cost, backend-name, placer-name, and
// timing-model errors surface before any trial runs.
func (o Options) lower(spec circuit.Spec) ([]*core.Plan, error) {
	lats := make([]perf.Latencies, len(o.Alphas))
	for ai, alpha := range o.Alphas {
		lats[ai] = o.Latencies
		lats[ai].WeakPenalty = alpha
	}
	out := make([]*core.Plan, 0, len(o.ChainLengths)*len(o.Placers)*len(o.Backends))
	for _, L := range o.ChainLengths {
		if _, err := ti.DeviceFor(spec.Qubits, L, ti.Ring); err != nil {
			return nil, err
		}
		for _, placerName := range o.Placers {
			for _, backendName := range o.Backends {
				backend, err := shuttle.Resolve(backendName, o.Shuttle)
				if err != nil {
					return nil, err
				}
				p, errs := core.NewPlan(core.Config{
					Spec:        spec,
					ChainLength: L,
					Runs:        o.Runs,
					Seed:        o.Seed,
					Pipeline:    o.Pipeline,
					Backend:     backend,
				}, placerName, lats)
				for _, err := range errs {
					if err != nil {
						return nil, err
					}
				}
				out = append(out, p)
			}
		}
	}
	return out, nil
}

// trialVal is one (plan, seed, α lane) outcome awaiting the ordered
// reduction.
type trialVal struct {
	par, log, weak float64
}

// Explore evaluates the full grid for the workload and returns every
// point, ordered by (ChainLength, Alpha, Placer, Backend). Evaluation is
// plan-grouped — see the package comment — and (plan, seed) jobs run
// across the worker pool when opt.Workers allows; the returned points are
// bit-identical at any worker count and to a cell-by-cell evaluation.
func Explore(spec circuit.Spec, opt Options) ([]Point, error) {
	return ExploreContext(context.Background(), spec, opt)
}

// ExploreContext is Explore with cancellation.
func ExploreContext(ctx context.Context, spec circuit.Spec, opt Options) ([]Point, error) {
	opt = opt.normalized()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	lowered, err := opt.lower(spec)
	if err != nil {
		return nil, err
	}
	nA := len(opt.Alphas)
	vals := make([]trialVal, len(lowered)*opt.Runs*nA)

	// Per-worker reusable estimators: the model is validated once up
	// front so pooled construction cannot fail later.
	if err := opt.Fidelity.Validate(); err != nil {
		return nil, err
	}
	var estPool sync.Pool
	// price estimates one run of lanes that share a binding in one
	// EstimateAll: latency-free placers alias one binding across all
	// lanes, latency-steered placers get one per lane.
	price := func(pi, ri, a0, a1 int, b *perf.Binding) error {
		est, _ := estPool.Get().(*fidelity.Estimator)
		if est == nil {
			var err error
			if est, err = fidelity.NewEstimator(opt.Fidelity); err != nil {
				return err
			}
		}
		defer estPool.Put(est)
		ests, err := est.EstimateAll(b, lowered[pi].Lats()[a0:a1])
		if err != nil {
			return err
		}
		weak := float64(b.WeakGates())
		out := vals[(pi*opt.Runs+ri)*nA:]
		for ai := a0; ai < a1; ai++ {
			e := ests[ai-a0]
			out[ai] = trialVal{par: e.MakespanMicros, log: e.LogTotal, weak: weak}
		}
		return nil
	}
	if err := core.RunPlans(ctx, lowered, opt.Runs, opt.Workers, opt.Seed, price); err != nil {
		return nil, err
	}

	// Ordered reduction: cells in canonical grid order, runs in seed
	// order — the exact accumulation sequence of a per-cell evaluation.
	// Plan pi is (chain length, placer, backend) in canonical order.
	nP, nB := len(opt.Placers), len(opt.Backends)
	points := make([]Point, len(lowered)*nA)
	n := float64(opt.Runs)
	for pi := range lowered {
		li, pl, bi := pi/(nP*nB), pi/nB%nP, pi%nB
		for ai := 0; ai < nA; ai++ {
			var parSum, logSum, weakSum float64
			for ri := 0; ri < opt.Runs; ri++ {
				v := vals[(pi*opt.Runs+ri)*nA+ai]
				parSum += v.par
				logSum += v.log
				weakSum += v.weak
			}
			points[((li*nA+ai)*nP+pl)*nB+bi] = Point{
				ChainLength:    opt.ChainLengths[li],
				Alpha:          opt.Alphas[ai],
				Placer:         opt.Placers[pl],
				Backend:        opt.Backends[bi],
				ParallelMicros: parSum / n,
				LogFidelity:    logSum / n,
				WeakGates:      weakSum / n,
			}
		}
	}
	return points, nil
}

// Pareto filters points to the non-dominated frontier, sorted by parallel
// time ascending. Input order is not modified; points tied on both axes
// sort by their input position, so the frontier is deterministic for any
// fixed input order.
func Pareto(points []Point) []Point {
	var frontier []Point
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i == j {
				continue
			}
			if q.Dominates(p) {
				dominated = true
				break
			}
		}
		if !dominated {
			frontier = append(frontier, p)
		}
	}
	sort.SliceStable(frontier, func(i, j int) bool {
		if frontier[i].ParallelMicros != frontier[j].ParallelMicros {
			return frontier[i].ParallelMicros < frontier[j].ParallelMicros
		}
		return frontier[i].LogFidelity > frontier[j].LogFidelity
	})
	return frontier
}

// String renders the point compactly for reports.
func (p Point) String() string {
	return fmt.Sprintf("L=%d α=%.1f %s: %.2f ms, ln(fid) %.1f",
		p.ChainLength, p.Alpha, p.Placer, p.ParallelMicros/1000, p.LogFidelity)
}
