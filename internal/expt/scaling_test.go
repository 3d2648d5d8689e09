package expt

import (
	"context"
	"reflect"
	"testing"

	"velociti/internal/core"
	"velociti/internal/workload"
)

// TestScalingAlphaPanelMatchesPerCellRuns pins the α panel: runScaling
// prices all of ScalingAlphas through one six-lane plan per spec, and every
// cell must stay bit-identical to a one-cell core.Run at its α.
func TestScalingAlphaPanelMatchesPerCellRuns(t *testing.T) {
	opt := Options{Runs: 3, Seed: 11}.normalized()
	specs, err := workload.QVSweep(8, 40, 16)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runScaling(context.Background(), "test", opt, specs)
	if err != nil {
		t.Fatal(err)
	}
	for si, spec := range specs {
		for j, alpha := range ScalingAlphas {
			cfg := opt.baseConfig(spec, 32)
			cfg.Latencies.WeakPenalty = alpha
			cfg.Workers = 1
			rep, err := core.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.ByAlpha[si][j], rep.Parallel) {
				t.Errorf("spec %s α=%g: sweep cell diverges from per-cell run", spec.Name, alpha)
			}
		}
	}
}

// TestScalingWithPipelineMatchesWithout checks that attaching a shared
// artifact store to the scaling study changes nothing but the work done: the
// L=32 chain cells and the α sweep share (spec, seed) bindings, so the Bind
// cache must see hits, and every figure must stay bit-identical.
func TestScalingWithPipelineMatchesWithout(t *testing.T) {
	specs, err := workload.QVSweep(8, 40, 16)
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Runs: 3, Seed: 5}
	want, err := runScaling(context.Background(), "test", base, specs)
	if err != nil {
		t.Fatal(err)
	}
	cached := base
	cached.Pipeline = core.NewPipeline()
	cached.Workers = 6
	got, err := runScaling(context.Background(), "test", cached, specs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("pipeline-attached scaling study diverges from uncached")
	}
	if st := cached.Pipeline.Stats(); st.Bind.Hits == 0 {
		t.Fatalf("expected Bind cache hits between the L=32 cell and the α sweep, got stats %+v", st)
	}
}

// TestDriversHonorCancelledContext checks every *Context entry point returns
// promptly with an error when its context is already cancelled.
func TestDriversHonorCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := Options{Runs: 2, Seed: 1}
	drivers := map[string]func() error{
		"tableI": func() error {
			_, err := TableIContext(ctx, opt, workload.Random(8, 16), 4)
			return err
		},
		"fig5": func() error { _, err := Fig5Context(ctx, opt); return err },
		"fig6": func() error { _, err := Fig6Context(ctx, opt); return err },
		"fig7": func() error { _, err := Fig7Context(ctx, opt); return err },
		"fig8": func() error { _, err := Fig8Context(ctx, opt); return err },
		"fig9": func() error { _, err := Fig9Context(ctx, opt); return err },
		"ablation-schedulers": func() error {
			_, err := AblationSchedulersContext(ctx, opt)
			return err
		},
		"ablation-placement": func() error {
			_, err := AblationPlacementContext(ctx, opt)
			return err
		},
		"ablation-annealed": func() error {
			_, err := AblationAnnealedPlacementContext(ctx, opt)
			return err
		},
		"ablation-comm": func() error { _, err := AblationCommContext(ctx, opt); return err },
		"ablation-topology": func() error {
			_, err := AblationTopologyContext(ctx, opt)
			return err
		},
		"ext-fidelity": func() error { _, err := ExtFidelityContext(ctx, opt); return err },
		"ext-capacity": func() error { _, err := ExtControlCapacityContext(ctx, opt); return err },
	}
	for name, run := range drivers {
		if err := run(); err == nil {
			t.Errorf("%s: expected error from cancelled context", name)
		}
	}
}
