package core_test

import (
	"reflect"
	"testing"

	"velociti/internal/apps"
	"velociti/internal/core"
	"velociti/internal/perf"
	"velociti/internal/placement"
	"velociti/internal/schedule"
	"velociti/internal/shuttle"
	"velociti/internal/stats"
	"velociti/internal/workload"
)

func sweepLats(alphas []float64) []perf.Latencies {
	lats := make([]perf.Latencies, len(alphas))
	for i, a := range alphas {
		lats[i] = perf.DefaultLatencies()
		lats[i].WeakPenalty = a
	}
	return lats
}

// stageConfigs is the config matrix the pipeline equivalence properties run
// over: spec mode with each keyable placer, and explicit mode.
func stageConfigs(t *testing.T) []core.Config {
	t.Helper()
	qv, err := workload.QuantumVolume(24)
	if err != nil {
		t.Fatal(err)
	}
	qft, err := apps.QFT(16)
	if err != nil {
		t.Fatal(err)
	}
	lat := perf.DefaultLatencies()
	return []core.Config{
		{Spec: workload.Random(20, 80), ChainLength: 8, Runs: 6, Seed: 11},
		{Spec: qv, ChainLength: 8, Runs: 5, Seed: 23, Placer: schedule.WeakAvoiding{}},
		{Spec: qv, ChainLength: 8, Runs: 5, Seed: 23, Placer: schedule.LoadBalanced{Latencies: lat}},
		{Spec: qv, ChainLength: 8, Runs: 5, Seed: 23, Placer: schedule.Annealed{Moves: 300}},
		{Circuit: qft, ChainLength: 4, Runs: 6, Seed: 42},
	}
}

// TestCachedPipelineMatchesUncached is the refactor's headline property:
// attaching a Pipeline never changes a Report — bit for bit, trials
// included — at any worker count, whether the cache is cold, warm, or
// thrashing under a tiny capacity.
func TestCachedPipelineMatchesUncached(t *testing.T) {
	for _, cfg := range stageConfigs(t) {
		base := cfg
		base.Pipeline = nil
		want, err := core.Run(base)
		if err != nil {
			t.Fatal(err)
		}
		for _, pl := range []*core.Pipeline{core.NewPipeline(), core.NewPipelineCapacity(2)} {
			for _, workers := range []int{1, 3, 8} {
				cached := cfg
				cached.Pipeline = pl
				cached.Workers = workers
				for pass := 0; pass < 2; pass++ { // cold then warm
					got, err := core.Run(cached)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("spec %q workers=%d pass=%d: cached report diverges from uncached",
							workloadName(cfg), workers, pass)
					}
				}
			}
		}
	}
}

// workloadName is a test-only label helper.
func workloadName(c core.Config) string {
	if c.Circuit != nil {
		return c.Circuit.Name
	}
	return c.Spec.Name
}

// TestRunSweepMatchesPerAlphaRuns pins the α-sweep engine: RunSweep(cfg,
// lats)[j] must equal Run with cfg.Latencies = lats[j], bit for bit, with
// and without a shared pipeline and across worker counts.
func TestRunSweepMatchesPerAlphaRuns(t *testing.T) {
	lats := sweepLats([]float64{2.0, 1.8, 1.6, 1.4, 1.2, 1.0})
	for _, cfg := range stageConfigs(t) {
		want := make([]*core.Report, len(lats))
		for j, lat := range lats {
			perAlpha := cfg
			perAlpha.Pipeline = nil
			perAlpha.Latencies = lat
			r, err := core.Run(perAlpha)
			if err != nil {
				t.Fatal(err)
			}
			want[j] = r
		}
		for _, pl := range []*core.Pipeline{nil, core.NewPipeline()} {
			for _, workers := range []int{1, 4} {
				swept := cfg
				swept.Pipeline = pl
				swept.Workers = workers
				got, err := core.RunSweep(swept, lats)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("spec %q workers=%d cached=%v: RunSweep diverges from per-α runs",
						workloadName(cfg), workers, pl != nil)
				}
			}
		}
	}
}

// TestPipelineSharesAcrossAlphaCells checks the caching actually bites:
// running α-only-differing configs against one pipeline hits the Bind cache
// on every cell after the first.
func TestPipelineSharesAcrossAlphaCells(t *testing.T) {
	pl := core.NewPipeline()
	cfg := core.Config{Spec: workload.Random(20, 80), ChainLength: 8, Runs: 6, Seed: 11, Pipeline: pl}
	for _, lat := range sweepLats([]float64{2.0, 1.5, 1.0}) {
		cfg.Latencies = lat
		if _, err := core.Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	st := pl.Stats()
	if st.Bind.Misses != uint64(cfg.Runs) {
		t.Fatalf("Bind misses = %d, want one per trial (%d)", st.Bind.Misses, cfg.Runs)
	}
	if st.Bind.Hits != uint64(2*cfg.Runs) {
		t.Fatalf("Bind hits = %d, want %d (two warm α cells)", st.Bind.Hits, 2*cfg.Runs)
	}
}

// TestPipelineKeysSeparateLatDependentPlacers guards against false sharing:
// LoadBalanced consults its latency model during synthesis, so cells whose
// placers embed different models must not share artifacts.
func TestPipelineKeysSeparateLatDependentPlacers(t *testing.T) {
	qv, err := workload.QuantumVolume(24)
	if err != nil {
		t.Fatal(err)
	}
	pl := core.NewPipeline()
	run := func(alpha float64) *core.Report {
		lat := perf.DefaultLatencies()
		lat.WeakPenalty = alpha
		r, err := core.Run(core.Config{
			Spec: qv, ChainLength: 8, Runs: 4, Seed: 9,
			Latencies: lat,
			Placer:    schedule.LoadBalanced{Latencies: lat},
			Pipeline:  pl,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	gotA, gotB := run(2.0), run(1.0)
	wantB, err := core.Run(core.Config{
		Spec: qv, ChainLength: 8, Runs: 4, Seed: 9,
		Latencies: sweepLats([]float64{1.0})[0],
		Placer:    schedule.LoadBalanced{Latencies: sweepLats([]float64{1.0})[0]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotB, wantB) {
		t.Fatal("α=1.0 cell polluted by α=2.0 placer artifacts")
	}
	if reflect.DeepEqual(gotA.Parallel, gotB.Parallel) {
		t.Fatal("suspicious: α=2.0 and α=1.0 load-balanced cells agree exactly")
	}
	if st := pl.Stats(); st.Bind.Hits != 0 {
		t.Fatalf("Bind hits = %d across lat-dependent placers, want 0", st.Bind.Hits)
	}
}

// TestUnkeyablePolicyBypassesCache checks the safety rule: a policy without
// a CacheKey disables caching (no artifacts stored) instead of guessing,
// and results still match the uncached path.
func TestUnkeyablePolicyBypassesCache(t *testing.T) {
	cfg := core.Config{
		Spec: workload.Random(16, 60), ChainLength: 8, Runs: 4, Seed: 3,
		Placement: placement.Refined{}, // no CacheKey: base policy is open-ended
	}
	want, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl := core.NewPipeline()
	cfg.Pipeline = pl
	got, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("bypassed pipeline changed results")
	}
	if st := pl.Stats(); st.Bind.Entries+st.Stream.Entries != 0 {
		t.Fatalf("unkeyable policy stored artifacts: %+v", st)
	}
}

// TestSearchStageCachesAnnealedLayouts pins the search stage's cache
// behavior: the searched layout travels on the trial's binding, so a cold
// pipeline misses Bind once per trial, a warm one hits it once per trial
// without searching again, and the searched layouts actually change the
// outcome relative to the same config under the plain random placer.
func TestSearchStageCachesAnnealedLayouts(t *testing.T) {
	pl := core.NewPipeline()
	cfg := core.Config{
		Spec: workload.Random(20, 80), ChainLength: 4, Runs: 6, Seed: 11,
		Placer: schedule.Annealed{Moves: 400}, Pipeline: pl,
	}
	annealed, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := pl.Stats()
	if st.Bind.Misses != uint64(cfg.Runs) || st.Bind.Hits != 0 {
		t.Fatalf("cold bind stats = %+v, want %d misses and no hits", st.Bind, cfg.Runs)
	}
	warm, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Any new miss means the key failed to round-trip.
	if st = pl.Stats(); st.Bind.Misses != uint64(cfg.Runs) || st.Bind.Hits != uint64(cfg.Runs) {
		t.Fatalf("warm bind stats = %+v, want no new misses and %d hits", st.Bind, cfg.Runs)
	}
	if !reflect.DeepEqual(warm, annealed) {
		t.Fatal("warm annealed run diverges from cold")
	}
	random := cfg
	random.Placer = schedule.Random{}
	random.Pipeline = core.NewPipeline()
	baseline, err := core.Run(random)
	if err != nil {
		t.Fatal(err)
	}
	if annealed.Parallel.Mean >= baseline.Parallel.Mean {
		t.Fatalf("annealed mean %v did not beat random mean %v", annealed.Parallel.Mean, baseline.Parallel.Mean)
	}
}

// TestNewStagesValidates mirrors Run's input contract at the stage API.
func TestNewStagesValidates(t *testing.T) {
	if _, err := core.NewStages(core.Config{Spec: workload.Random(8, 10)}); err == nil {
		t.Fatal("expected chain-length validation error")
	}
	if _, err := core.RunSweep(core.Config{Spec: workload.Random(8, 10), ChainLength: 4}, nil); err == nil {
		t.Fatal("expected empty-sweep error")
	}
	bad := perf.DefaultLatencies()
	bad.WeakPenalty = 0.5
	if _, err := core.RunSweep(core.Config{Spec: workload.Random(8, 10), ChainLength: 4}, []perf.Latencies{bad}); err == nil {
		t.Fatal("expected latency validation error")
	}
}

// TestStagesExplicitCircuitSharing checks explicit mode: the fixed
// circuit's binding is cached per seed and RunOnce-style artifacts stay
// reachable through the stage API.
func TestStagesExplicitCircuitSharing(t *testing.T) {
	qft, err := apps.QFT(12)
	if err != nil {
		t.Fatal(err)
	}
	pl := core.NewPipeline()
	cfg := core.Config{Circuit: qft, ChainLength: 4, Runs: 5, Seed: 17, Pipeline: pl}
	st, err := core.NewStages(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Spec().Qubits != qft.NumQubits() {
		t.Fatalf("stage spec width %d, circuit width %d", st.Spec().Qubits, qft.NumQubits())
	}
	want, err := core.Run(core.Config{Circuit: qft, ChainLength: 4, Runs: 5, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("explicit-mode cached run diverges")
	}
	if st2 := pl.Stats(); st2.Bind.Entries != 5 {
		t.Fatalf("Bind entries = %d, want one per trial seed", st2.Bind.Entries)
	}
}

// TestNewStagesMaterializesProgram pins the one-constructor contract for a
// non-streaming Program: NewStages builds it into its circuit, so a trial
// bound through the stage API prices the same gates as Run's trial 0.
func TestNewStagesMaterializesProgram(t *testing.T) {
	prog, err := apps.QFTProgram(16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Program: &prog, ChainLength: 8, Runs: 2, Seed: 5}
	rep, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.NewStages(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.Bind(rep.Trials[0].Seed)
	if err != nil {
		t.Fatal(err)
	}
	c := b.Evaluator().Circuit()
	if c.NumOneQubitGates() != rep.Spec.OneQubitGates || c.NumTwoQubitGates() != rep.Spec.TwoQubitGates || b.NumGates() == 0 {
		t.Fatalf("bound %d gates (%d 1q, %d 2q), Run priced %d 1q and %d 2q",
			b.NumGates(), c.NumOneQubitGates(), c.NumTwoQubitGates(), rep.Spec.OneQubitGates, rep.Spec.TwoQubitGates)
	}
	got, err := st.Time(b, perf.DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rep.Trials[0].Perf) {
		t.Fatalf("Bind+Time = %+v, Run trial 0 = %+v", got, rep.Trials[0].Perf)
	}
}

// TestRunOnceIsTrialOfRun pins RunOnce as trial i of Run across every
// workload form and trial shape — spec mode, an explicit circuit, a
// non-streaming Program, a layout-searching placer, and the shuttle
// backend — with and without a shared pipeline: the result equals
// Run(cfg).Trials[i].Perf, critical path included, and the returned
// binding carries the circuit and layout that trial bound.
func TestRunOnceIsTrialOfRun(t *testing.T) {
	qft, err := apps.QFT(12)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := apps.QFTProgram(16)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.Random(20, 80)
	cases := map[string]core.Config{
		"spec":     {Spec: spec, ChainLength: 8},
		"circuit":  {Circuit: qft, ChainLength: 4},
		"program":  {Program: &prog, ChainLength: 8},
		"annealed": {Spec: spec, ChainLength: 4, Placer: schedule.Annealed{Moves: 300}},
		"shuttle":  {Spec: spec, ChainLength: 8, Backend: shuttle.Backend{Params: shuttle.Default()}},
	}
	for name, cfg := range cases {
		cfg.Runs, cfg.Seed = 3, 29
		for _, pl := range []*core.Pipeline{nil, core.NewPipeline()} {
			cfg.Pipeline = pl
			rep, err := core.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			st, err := core.NewStages(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, tr := range rep.Trials {
				seed := stats.SplitSeed(cfg.Seed, i)
				ob, res, err := core.RunOnce(cfg, seed)
				if err != nil {
					t.Fatal(err)
				}
				c, l := ob.Evaluator().Circuit(), ob.Layout()
				if !reflect.DeepEqual(res, tr.Perf) {
					t.Fatalf("%s cached=%v trial %d: RunOnce = %+v, Run = %+v", name, pl != nil, i, res, tr.Perf)
				}
				b, err := st.Bind(seed)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(c, b.Evaluator().Circuit()) || !reflect.DeepEqual(l, b.Layout()) {
					t.Fatalf("%s cached=%v trial %d: RunOnce artifacts differ from the trial's binding", name, pl != nil, i)
				}
				// A shared pipeline hands RunOnce the very binding Run cached.
				if pl != nil && ob != b {
					t.Fatalf("%s trial %d: RunOnce missed the cached binding", name, i)
				}
			}
		}
	}
}
