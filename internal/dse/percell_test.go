package dse

import (
	"context"
	"runtime"
	"testing"

	"velociti/internal/circuit"
	"velociti/internal/core"
	"velociti/internal/perf"
	"velociti/internal/pool"
	"velociti/internal/schedule"
	"velociti/internal/shuttle"
	"velociti/internal/stats"
	"velociti/internal/ti"
)

// This file keeps the cell-by-cell explorer the plan-grouped one replaced:
// the bit-exactness oracle of the explorer tests and the pinned legacy
// benchmark target.

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
// up front, surfacing device, placer-name, transport-cost, and
// backend-name errors before any trial runs.
func (o Options) grid(spec circuit.Spec) ([]gridCell, error) {
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
					backend, err := shuttle.Resolve(backendName, o.Shuttle)
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

// ExplorePerCell evaluates the grid cell by cell. Cells run across the
// worker pool; each derives its own trial seeds, so the returned points
// are identical at any worker count — and, field for field, to
// ExploreContext. It always uses a pipeline: its cells re-derive the same
// trials and need the dedup.
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
	errs := pool.RunAll(ctx, opt.Workers, len(cells), func(i int) error {
		p, err := explorePoint(spec, opt, cells[i])
		if err != nil {
			return err
		}
		points[i] = p
		return nil
	})
	// The first error in cell order, the same at every worker count.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
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

// BenchmarkLegacyDesignSpaceExploration pins the per-cell exploration path
// the grouped explorer replaced — the bit-exactness oracle doubles as the
// performance reference for BenchmarkDesignSpaceExploration (in the root
// package), on the same grid.
func BenchmarkLegacyDesignSpaceExploration(b *testing.B) {
	sp := circuit.Spec{Name: "dse", Qubits: 64, TwoQubitGates: 300}
	workers := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := ExplorePerCell(context.Background(), sp, Options{Runs: 5, Seed: int64(i), Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if len(Pareto(points)) == 0 {
			b.Fatal("empty frontier")
		}
	}
}
