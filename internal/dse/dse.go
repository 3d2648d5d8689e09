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
// Exploration is plan-grouped: the grid is partitioned by latency-
// independent plan — a (chain length, placer, backend) triple — and each
// plan's whole α axis is priced from ONE batched trial per seed
// (core.Stages.BindAll + fidelity.Estimator.EstimateAll), since α enters
// only at the pricing stage. Neither path branches on the backend: a
// binding prices itself under the backend whose Prepare annotated it, so
// the same estimator calls serve the weak-link and shuttle models.
// ExplorePerCell keeps the cell-by-cell reference path; the two are
// bit-identical (see the property tests) because every batched kernel
// preserves the per-cell draw sequences and float operation order.
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
	"velociti/internal/pool"
	"velociti/internal/schedule"
	"velociti/internal/shuttle"
	"velociti/internal/stats"
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
	// searched layout differs per synthesized circuit), so its plan
	// groups evaluate per α lane.
	Placers []string
	// Backends to sweep by name ("weaklink", "shuttle"); nil selects
	// {"weaklink"}. The backend is the innermost grid axis, so plan
	// groups batch per backend and a single-backend exploration keeps
	// the historical point ordering.
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
	// nil, the grouped explorer runs cache-free instead: one coupled trial
	// per (plan, seed) already covers the whole α axis, so within a single
	// call there is nothing to share, and the transient circuits and
	// evaluators are recycled through per-worker scratch pools to keep the
	// batched loop allocation-flat. Caching never changes results.
	// (ExplorePerCell, the reference path, always uses a pipeline — its
	// cells re-derive the same trials and need the dedup.)
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

// shuttleParams resolves the effective transport costs for the shuttle
// backend axis.
func (o Options) shuttleParams() shuttle.Params {
	if o.Shuttle != nil {
		return *o.Shuttle
	}
	return shuttle.Default()
}

// validateShuttle rejects configured transport costs that are unusable,
// even when no grid cell selects the shuttle backend — mirroring
// config.Params, which validates the shuttle block whenever present.
func (o Options) validateShuttle() error {
	if o.Shuttle != nil {
		return o.Shuttle.Validate()
	}
	return nil
}

// gridCell is one fully resolved configuration of the exploration grid.
type gridCell struct {
	chainLength int
	alpha       float64
	placerName  string
	backendName string
	device      *ti.Device
	lat         perf.Latencies
	placer      schedule.Placer
	backend     perf.TimingBackend
}

// grid resolves the full (ChainLength × Alpha × Placer × Backend) product
// up front, surfacing device, placer-name, and backend-name errors before
// any trial runs.
func (o Options) grid(spec circuit.Spec) ([]gridCell, error) {
	if err := o.validateShuttle(); err != nil {
		return nil, err
	}
	cells := make([]gridCell, 0, len(o.ChainLengths)*len(o.Alphas)*len(o.Placers)*len(o.Backends))
	for _, L := range o.ChainLengths {
		device, err := ti.DeviceFor(spec.Qubits, L, ti.Ring)
		if err != nil {
			return nil, err
		}
		for _, alpha := range o.Alphas {
			lat := o.Latencies
			lat.WeakPenalty = alpha
			for _, placerName := range o.Placers {
				placer, err := schedule.ByName(placerName, lat)
				if err != nil {
					return nil, err
				}
				for _, backendName := range o.Backends {
					backend, err := shuttle.ByName(backendName, o.shuttleParams())
					if err != nil {
						return nil, err
					}
					cells = append(cells, gridCell{
						chainLength: L,
						alpha:       alpha,
						placerName:  placerName,
						backendName: backendName,
						device:      device,
						lat:         lat,
						placer:      placer,
						backend:     backend,
					})
				}
			}
		}
	}
	return cells, nil
}

// planGroup is one latency-independent slice of the grid: a (chain length,
// placer, backend) triple spanning the whole α axis. Its cells share every
// stage up to Bind; only the α-dependent pricing differs per lane. The
// backend is part of the plan, not a lane: its Prepare hook annotates the
// binding at bind time, so bindings are backend-specific artifacts that
// price themselves under their backend.
type planGroup struct {
	chainLength int
	placerName  string
	backendName string
	lats        []perf.Latencies // lane j prices Alphas[j]
	cellIdx     []int            // output index of lane j's grid cell

	// stages drives the batched path (placer implements
	// schedule.SweepPlacer). laneStages is the per-lane fallback for
	// placers that cannot synthesize a sweep in one pass.
	stages     *core.Stages
	laneStages []*core.Stages
}

// plans partitions the grid into plan groups in canonical order, preserving
// the (ChainLength, Alpha, Placer, Backend) output indexing of the
// per-cell path.
func (o Options) plans(spec circuit.Spec) ([]planGroup, error) {
	if err := o.validateShuttle(); err != nil {
		return nil, err
	}
	nA, nP, nB := len(o.Alphas), len(o.Placers), len(o.Backends)
	out := make([]planGroup, 0, len(o.ChainLengths)*nP*nB)
	for li, L := range o.ChainLengths {
		if _, err := ti.DeviceFor(spec.Qubits, L, ti.Ring); err != nil {
			return nil, err
		}
		for pi, placerName := range o.Placers {
			for bi, backendName := range o.Backends {
				backend, err := shuttle.ByName(backendName, o.shuttleParams())
				if err != nil {
					return nil, err
				}
				pg := planGroup{
					chainLength: L,
					placerName:  placerName,
					backendName: backendName,
					lats:        make([]perf.Latencies, nA),
					cellIdx:     make([]int, nA),
				}
				for ai, alpha := range o.Alphas {
					lat := o.Latencies
					lat.WeakPenalty = alpha
					pg.lats[ai] = lat
					pg.cellIdx[ai] = ((li*nA+ai)*nP+pi)*nB + bi
				}
				rep, err := schedule.ByName(placerName, pg.lats[0])
				if err != nil {
					return nil, err
				}
				if _, ok := rep.(schedule.SweepPlacer); ok {
					st, err := core.NewStages(core.Config{
						Spec:        spec,
						ChainLength: L,
						Latencies:   pg.lats[0],
						Placer:      rep,
						Runs:        o.Runs,
						Seed:        o.Seed,
						Pipeline:    o.Pipeline,
						Backend:     backend,
					})
					if err != nil {
						return nil, err
					}
					pg.stages = st
				} else {
					// A placer that cannot batch — annealed (the searched
					// layout depends on each lane's circuit) or one outside
					// the built-in suite: fall back to per-lane stages,
					// still under (plan, seed) job granularity.
					pg.laneStages = make([]*core.Stages, nA)
					for ai := range o.Alphas {
						placer, err := schedule.ByName(placerName, pg.lats[ai])
						if err != nil {
							return nil, err
						}
						st, err := core.NewStages(core.Config{
							Spec:        spec,
							ChainLength: L,
							Latencies:   pg.lats[ai],
							Placer:      placer,
							Runs:        o.Runs,
							Seed:        o.Seed,
							Pipeline:    o.Pipeline,
							Backend:     backend,
						})
						if err != nil {
							return nil, err
						}
						pg.laneStages[ai] = st
					}
				}
				out = append(out, pg)
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
// point, ordered by (ChainLength, Alpha, Placer). Evaluation is
// plan-grouped — see the package comment — and (plan, seed) jobs run
// across the worker pool when opt.Workers allows; the returned points are
// bit-identical at any worker count and to ExplorePerCell.
func Explore(spec circuit.Spec, opt Options) ([]Point, error) {
	return ExploreContext(context.Background(), spec, opt)
}

// ExploreContext is Explore with cancellation.
func ExploreContext(ctx context.Context, spec circuit.Spec, opt Options) ([]Point, error) {
	opt = opt.normalized()
	// With no pipeline, nothing retains a trial's circuits or evaluators
	// past its own pricing pass, so they are safe to recycle (see
	// Options.Pipeline).
	recycle := opt.Pipeline == nil
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	plans, err := opt.plans(spec)
	if err != nil {
		return nil, err
	}
	nA := len(opt.Alphas)
	vals := make([]trialVal, len(plans)*opt.Runs*nA)

	// Per-worker reusable estimators: the model is validated once up
	// front so pooled construction cannot fail later.
	if err := opt.Fidelity.Validate(); err != nil {
		return nil, err
	}
	var estPool sync.Pool
	getEstimator := func() (*fidelity.Estimator, error) {
		if e, _ := estPool.Get().(*fidelity.Estimator); e != nil {
			return e, nil
		}
		return fidelity.NewEstimator(opt.Fidelity)
	}

	err = pool.Run(ctx, opt.Workers, len(plans)*opt.Runs, func(idx int) error {
		pi, ri := idx/opt.Runs, idx%opt.Runs
		pg := &plans[pi]
		seed := stats.SplitSeed(opt.Seed, ri)
		est, err := getEstimator()
		if err != nil {
			return err
		}
		defer estPool.Put(est)
		return exploreTrial(pg, seed, est, recycle, vals[(pi*opt.Runs+ri)*nA:(pi*opt.Runs+ri+1)*nA])
	})
	if err != nil {
		return nil, err
	}

	// Ordered reduction: cells in canonical grid order, runs in seed
	// order — the exact accumulation sequence of the per-cell path.
	points := make([]Point, len(plans)*nA)
	n := float64(opt.Runs)
	for pi := range plans {
		pg := &plans[pi]
		for ai := 0; ai < nA; ai++ {
			var parSum, logSum, weakSum float64
			for ri := 0; ri < opt.Runs; ri++ {
				v := vals[(pi*opt.Runs+ri)*nA+ai]
				parSum += v.par
				logSum += v.log
				weakSum += v.weak
			}
			points[pg.cellIdx[ai]] = Point{
				ChainLength:    pg.chainLength,
				Alpha:          opt.Alphas[ai],
				Placer:         pg.placerName,
				Backend:        pg.backendName,
				ParallelMicros: parSum / n,
				LogFidelity:    logSum / n,
				WeakGates:      weakSum / n,
			}
		}
	}
	return points, nil
}

// exploreTrial runs one (plan, seed) trial: the α axis's bindings come
// from one coupled BindAll, or, for a placer that cannot batch, from each
// lane's own stages, and every run of lanes sharing a binding is priced in
// one EstimateAll (latency-free placers alias one binding across all
// lanes; latency-steered placers get one per lane). With recycle set, the
// circuits and evaluators BindAll made — which nothing retains, since the
// plan stages carry no pipeline — return to their scratch pools after
// pricing.
func exploreTrial(pg *planGroup, seed int64, est *fidelity.Estimator, recycle bool, out []trialVal) error {
	var bs []*perf.Binding
	if pg.stages != nil {
		var err error
		if bs, err = pg.stages.BindAll(seed, pg.lats); err != nil {
			return err
		}
	} else {
		recycle = false
		bs = make([]*perf.Binding, len(pg.lats))
		for ai, st := range pg.laneStages {
			b, err := st.Bind(seed)
			if err != nil {
				return err
			}
			bs[ai] = b
		}
	}
	for a0 := 0; a0 < len(bs); {
		a1 := a0 + 1
		for a1 < len(bs) && bs[a1] == bs[a0] {
			a1++
		}
		ests, err := est.EstimateAll(bs[a0], pg.lats[a0:a1])
		if err != nil {
			return err
		}
		weak := float64(bs[a0].WeakGates())
		for ai := a0; ai < a1; ai++ {
			e := ests[ai-a0]
			out[ai] = trialVal{par: e.MakespanMicros, log: e.LogTotal, weak: weak}
		}
		if recycle {
			// Distinct bindings own distinct evaluators and circuits
			// (aliased lanes were folded into one run above).
			ev := bs[a0].Evaluator()
			circuit.Recycle(ev.Circuit())
			perf.RecycleEvaluator(ev)
		}
		a0 = a1
	}
	return nil
}

// ExplorePerCell evaluates the grid cell by cell — the pre-plan-grouping
// reference path, kept as the bit-exactness oracle for the batched
// explorer and as the pinned legacy benchmark target
// (BenchmarkLegacyDesignSpaceExploration). Cells run across the worker
// pool; each derives its own trial seeds, so the returned points are
// identical at any worker count — and, field for field, to ExploreContext.
func ExplorePerCell(ctx context.Context, spec circuit.Spec, opt Options) ([]Point, error) {
	opt = opt.normalized()
	if opt.Pipeline == nil {
		opt.Pipeline = core.NewPipeline()
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cells, err := opt.grid(spec)
	if err != nil {
		return nil, err
	}
	points := make([]Point, len(cells))
	err = pool.Run(ctx, opt.Workers, len(cells), func(i int) error {
		p, err := explorePoint(spec, opt, cells[i])
		if err != nil {
			return err
		}
		points[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// explorePoint averages one grid cell over opt.Runs randomized trials,
// running each trial through the stage pipeline: trial seeds are shared
// across cells, so the latency-independent artifacts (layout, synthesized
// circuit, gate-class binding) are computed once per (device, placer, seed)
// and only the timing-dependent pricing — makespan and the dephasing term —
// re-runs per α.
func explorePoint(spec circuit.Spec, opt Options, cell gridCell) (Point, error) {
	st, err := core.NewStages(core.Config{
		Spec:        spec,
		ChainLength: cell.chainLength,
		Latencies:   cell.lat,
		Placer:      cell.placer,
		Runs:        opt.Runs,
		Seed:        opt.Seed,
		Pipeline:    opt.Pipeline,
		Backend:     cell.backend,
	})
	if err != nil {
		return Point{}, err
	}
	var parSum, logSum, weakSum float64
	for i := 0; i < opt.Runs; i++ {
		b, err := st.Bind(stats.SplitSeed(opt.Seed, i))
		if err != nil {
			return Point{}, err
		}
		est, err := opt.Fidelity.EstimateBinding(b, cell.lat)
		if err != nil {
			return Point{}, err
		}
		parSum += est.MakespanMicros
		logSum += est.LogTotal
		weakSum += float64(b.WeakGates())
	}
	n := float64(opt.Runs)
	return Point{
		ChainLength:    cell.chainLength,
		Alpha:          cell.alpha,
		Placer:         cell.placerName,
		Backend:        cell.backendName,
		ParallelMicros: parSum / n,
		LogFidelity:    logSum / n,
		WeakGates:      weakSum / n,
	}, nil
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
