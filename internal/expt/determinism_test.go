package expt

import (
	"reflect"
	"testing"
)

// TestDriversBitIdenticalAcrossWorkerCounts guards every driver that runs
// its (data point, trial) jobs on core's trial loop: for a fixed seed, the
// full result structure must be reflect.DeepEqual between serial and
// concurrent execution.
func TestDriversBitIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, tc := range []struct {
		name string
		runs int
		run  func(Options) (any, error)
	}{
		{"fig6", 4, func(o Options) (any, error) { return Fig6(o) }},
		{"fig7", 4, func(o Options) (any, error) { return Fig7(o) }},
		{"fig8", 4, func(o Options) (any, error) { return Fig8(o) }},
		{"fig9", 4, func(o Options) (any, error) { return Fig9(o) }},
		{"ablation-schedulers", 4, func(o Options) (any, error) { return AblationSchedulers(o) }},
		{"ablation-placement", 4, func(o Options) (any, error) { return AblationPlacement(o) }},
		{"ablation-annealed", 2, func(o Options) (any, error) { return AblationAnnealedPlacement(o) }},
		{"ablation-topology", 4, func(o Options) (any, error) { return AblationTopology(o) }},
		{"ablation-comm", 4, func(o Options) (any, error) { return AblationComm(o) }},
		{"ext-capacity", 4, func(o Options) (any, error) { return ExtControlCapacity(o) }},
		{"ext-fidelity", 4, func(o Options) (any, error) { return ExtFidelity(o) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serial, err := tc.run(Options{Runs: tc.runs, Seed: 42, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			pooled, err := tc.run(Options{Runs: tc.runs, Seed: 42, Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, pooled) {
				t.Fatalf("%s differs between Workers=1 and Workers=8", tc.name)
			}
		})
	}
}
