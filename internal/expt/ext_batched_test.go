package expt

// Driver-level bit-exactness pins for the extension studies: each test
// re-derives a study's numbers with a serial per-trial loop over the
// per-item kernels (Model.EstimateBinding per trial,
// ParallelTimeConstrained per level) and requires float equality, not
// tolerance. The kernel-level contracts are pinned in the fidelity and
// perf packages; these tests pin the drivers' wiring on top: the plan
// loop's per-trial slots and the reduction in trial order.

import (
	"math"
	"testing"

	"velociti/internal/apps"
	"velociti/internal/core"
	"velociti/internal/fidelity"
	"velociti/internal/perf"
	"velociti/internal/placement"
	"velociti/internal/schedule"
	"velociti/internal/stats"
	"velociti/internal/ti"
)

func TestExtFidelityMatchesPerTrialOracle(t *testing.T) {
	opt := Options{Runs: 3, Seed: 123}
	got, err := ExtFidelityContext(t.Context(), opt)
	if err != nil {
		t.Fatal(err)
	}

	// Oracle: the pre-batching driver loop, priced with EstimateBinding.
	opt = opt.normalized()
	model := fidelity.Default()
	for ri, spec := range apps.PaperSpecs() {
		row := got.Rows[ri]
		for li, L := range got.ChainLengths {
			st, err := core.NewStages(opt.baseConfig(spec, L))
			if err != nil {
				t.Fatal(err)
			}
			var parSum, logSum, errSum float64
			for i := 0; i < opt.Runs; i++ {
				b, err := st.Bind(stats.SplitSeed(opt.Seed, i))
				if err != nil {
					t.Fatal(err)
				}
				est, err := model.EstimateBinding(b, opt.Latencies)
				if err != nil {
					t.Fatal(err)
				}
				parSum += est.MakespanMicros
				logSum += est.LogTotal
				errSum += est.ExpectedErrors
			}
			n := float64(opt.Runs)
			if want := parSum / n / 1000; row.ParallelMs[li] != want {
				t.Errorf("%s L=%d: ParallelMs %v != oracle %v", spec.Name, L, row.ParallelMs[li], want)
			}
			if want := logSum / n; row.LogFidelity[li] != want {
				t.Errorf("%s L=%d: LogFidelity bits %x != oracle %x", spec.Name, L,
					math.Float64bits(row.LogFidelity[li]), math.Float64bits(want))
			}
			if want := errSum / n; row.ExpectedErrors[li] != want {
				t.Errorf("%s L=%d: ExpectedErrors %v != oracle %v", spec.Name, L, row.ExpectedErrors[li], want)
			}
		}
	}
}

func TestExtControlCapacityMatchesPerLevelOracle(t *testing.T) {
	opt := Options{Runs: 3, Seed: 77}
	got, err := ExtControlCapacityContext(t.Context(), opt)
	if err != nil {
		t.Fatal(err)
	}

	// Oracle: the pre-batching driver loop — a fresh generator per trial
	// and one ParallelTimeConstrained call per capacity level.
	opt = opt.normalized()
	for ri, spec := range apps.PaperSpecs() {
		device, err := ti.DeviceFor(spec.Qubits, 16, ti.Ring)
		if err != nil {
			t.Fatal(err)
		}
		sums := make([]float64, len(CapacityLevels))
		for i := 0; i < opt.Runs; i++ {
			r := stats.NewRand(stats.SplitSeed(opt.Seed, i))
			layout, err := placement.Random{}.Place(device, spec.Qubits, r)
			if err != nil {
				t.Fatal(err)
			}
			c, err := schedule.Random{}.Place(spec, layout, r)
			if err != nil {
				t.Fatal(err)
			}
			for k, capacity := range CapacityLevels {
				pt, err := perf.ParallelTimeConstrained(c, layout, opt.Latencies, capacity)
				if err != nil {
					t.Fatal(err)
				}
				sums[k] += pt
			}
		}
		row := got.Rows[ri]
		for k := range CapacityLevels {
			if want := sums[k] / float64(opt.Runs) / 1000; row.ParallelMs[k] != want {
				t.Errorf("%s K=%d: ParallelMs bits %x != oracle %x", spec.Name, CapacityLevels[k],
					math.Float64bits(row.ParallelMs[k]), math.Float64bits(want))
			}
		}
	}
}
