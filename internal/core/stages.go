package core

// This file decomposes the monolithic trial path (spec+seed → circuit →
// layout → evaluate) into an explicit stage graph with typed, individually
// cacheable artifacts:
//
//	Place      device+spec+seed      → *ti.Layout
//	Synthesize spec+layout+seed      → *perf.Evaluator (explicit mode: fixed)
//	Search     evaluator+layout+seed → *ti.Layout (placers implementing
//	           schedule.LayoutSearcher only; all others skip the stage)
//	Bind       circuit+layout        → *perf.Binding (per-gate latency classes)
//	Time       binding + Latencies   → perf.Result
//
// The weak-link penalty α enters only at Time, so sweep cells that differ
// only in α share every earlier artifact and re-run just the pricing step —
// the refactor the ROADMAP's caching north star calls for.
//
// Cache keys and the RNG stream. A trial draws placement and synthesis from
// ONE seeded RNG stream: the placer consumes whatever randomness the
// placement policy left behind. A cached stage must therefore never skip
// the stream consumption of an earlier stage — Synthesize's compute replays
// placement from the trial seed instead of reusing a cached layout. Keys
// embed the canonical fingerprints of everything that influences an
// artifact: device geometry, workload, policy configurations
// (cache.Keyer), and the trial seed. A policy that cannot describe itself
// as a canonical string disables caching for the stages it feeds — a wrong
// key would silently corrupt results, so "no key" means "no caching".

import (
	"context"
	"fmt"
	"sync/atomic"

	"velociti/internal/cache"
	"velociti/internal/circuit"
	"velociti/internal/perf"
	"velociti/internal/pool"
	"velociti/internal/schedule"
	"velociti/internal/stats"
	"velociti/internal/ti"
	"velociti/internal/verr"
)

// DefaultStageCapacity bounds each stage cache of NewPipeline. Sweeps
// revisit (spec, seed) pairs across α and policy cells, so the working set
// is trials × specs — comfortably inside the bound for every experiment in
// the repo; the deterministic retention policy keeps behavior reproducible
// if a caller overflows it.
const DefaultStageCapacity = 1 << 14

// Pipeline is the shared artifact store of a stage-graph evaluation: one
// deterministic memo cache per cacheable stage. A single Pipeline is safe
// for concurrent use and is meant to be shared across every Config of a
// sweep (attach it via Config.Pipeline); artifacts are content-keyed, so
// configs that disagree on any behavior-relevant input never share them.
type Pipeline struct {
	synth  *cache.Cache
	place  *cache.Cache
	search *cache.Cache
	bind   *cache.Cache
	stream *cache.Cache
}

// NewPipeline returns a Pipeline with DefaultStageCapacity per stage.
func NewPipeline() *Pipeline {
	return NewPipelineCapacity(DefaultStageCapacity)
}

// NewPipelineCapacity returns a Pipeline bounding each stage cache at
// perStage entries; perStage <= 0 disables the bound.
func NewPipelineCapacity(perStage int) *Pipeline {
	return &Pipeline{
		synth:  cache.New(perStage),
		place:  cache.New(perStage),
		search: cache.New(perStage),
		bind:   cache.New(perStage),
		stream: cache.New(perStage),
	}
}

// StageStats is a point-in-time snapshot of a pipeline's per-stage cache
// counters; velociti-serve's /metrics reports it as is. Time is not
// listed: it is the parametric step that is always recomputed.
type StageStats struct {
	Place      cache.Stats `json:"place"`
	Synthesize cache.Stats `json:"synthesize"`
	Search     cache.Stats `json:"search"`
	Bind       cache.Stats `json:"bind"`
	// Stream counts the fused streaming-evaluation stage (place + emit +
	// price in one pass); unlike the others its artifacts are
	// latency-bearing, so keys embed the priced lats.
	Stream cache.Stats `json:"stream"`
}

// Stats snapshots the per-stage counters.
func (p *Pipeline) Stats() StageStats {
	return StageStats{
		Synthesize: p.synth.Stats(),
		Place:      p.place.Stats(),
		Search:     p.search.Stats(),
		Bind:       p.bind.Stats(),
		Stream:     p.stream.Stats(),
	}
}

// Stages executes the stage graph for one validated Config. It is
// immutable after construction and safe for concurrent use — the
// worker-pool trial runner calls Bind/Time from many goroutines.
type Stages struct {
	cfg    Config
	spec   circuit.Spec
	device *ti.Device
	pl     *Pipeline

	// shared is the explicit-mode evaluator, built once for the fixed
	// circuit (it is immutable and concurrency-safe).
	shared *perf.Evaluator

	// placeKey/synthKey are canonical key prefixes ("" = stage not
	// cacheable); the trial seed is appended per artifact. searchKey is
	// non-empty only when the placer implements schedule.LayoutSearcher
	// and can fingerprint itself.
	placeKey  string
	synthKey  string
	searchKey string
	bindKey   string
	// streamKey is the streaming-evaluation prefix (stream.go); in
	// Program mode it lacks the content component until progFP learns the
	// rolling fingerprint from the first evaluation.
	streamKey string
	progFP    *atomic.Uint64

	// Key components retained for BindAll, which rebuilds synth/bind
	// prefixes per sweep lane (the placer fingerprint varies with the
	// lane's timing model). keyPol is "" when the placement policy cannot
	// fingerprint itself, which disables caching everywhere. keyBackend
	// ("|be=<fingerprint>") is appended to every bind key: a binding
	// carries backend-prepared annotations (the shuttle transport plan),
	// so bindings prepared for different timing backends must never
	// collide in a shared Pipeline.
	keyDev      string
	keyWorkload string
	keyPol      string
	keyBackend  string
}

// NewStages validates cfg, derives the area-optimal device, and returns the
// stage executor. Caching is active only when cfg.Pipeline is set and the
// configured policies can fingerprint themselves (cache.Keyer).
func NewStages(cfg Config) (*Stages, error) {
	cfg = cfg.normalized()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	spec := cfg.workloadSpec()
	device, err := ti.DeviceFor(spec.Qubits, cfg.ChainLength, cfg.Topology)
	if err != nil {
		return nil, err
	}
	return newStages(cfg, spec, device), nil
}

// newStages builds the executor for an already normalized+validated config
// and derived device.
func newStages(cfg Config, spec circuit.Spec, device *ti.Device) *Stages {
	s := &Stages{cfg: cfg, spec: spec, device: device, pl: cfg.Pipeline}
	if cfg.Circuit != nil {
		s.shared = perf.NewEvaluator(cfg.Circuit)
	}
	if cfg.Program != nil {
		// Program mode (always streaming — materialized runs convert the
		// program to a Circuit up front): the body is opaque, so the
		// content component of the stream key is learned, not derived.
		s.progFP = new(atomic.Uint64)
	}
	if s.pl == nil {
		return s
	}
	polKey, ok := policyKey(cfg.Placement)
	if !ok {
		return s
	}
	dev := fmt.Sprintf("dev=%s/L%d/c%d", device.Topology(), device.ChainLength(), device.NumChains())
	s.keyDev = dev
	s.keyPol = polKey
	s.keyBackend = "|be=" + cfg.Backend.CacheKey()
	s.placeKey = fmt.Sprintf("place|%s|q%d|pol=%s", dev, spec.Qubits, polKey)
	if cfg.Circuit != nil {
		// Explicit mode: the circuit is fixed, so Synthesize needs no cache
		// and Bind depends only on the layout inputs plus circuit content
		// (and the backend, whose Prepare annotates the binding).
		s.bindKey = fmt.Sprintf("bind|%s|circ=%016x|pol=%s", dev, cfg.Circuit.Fingerprint(), polKey) + s.keyBackend
		s.streamKey = fmt.Sprintf("stream|%s|circ=%016x|pol=%s", dev, cfg.Circuit.Fingerprint(), polKey) + s.keyBackend
		return s
	}
	if cfg.Program != nil {
		// The learned fingerprint is appended per evaluation by
		// streamEvalKey once progFP is populated.
		s.streamKey = fmt.Sprintf("stream|%s|q%d|pol=%s", dev, spec.Qubits, polKey) + s.keyBackend
		return s
	}
	s.keyWorkload = fmt.Sprintf("spec=%q/q%d/1q%d/2q%d", spec.Name, spec.Qubits, spec.OneQubitGates, spec.TwoQubitGates)
	placerKey, ok := policyKey(cfg.Placer)
	if !ok {
		return s
	}
	s.synthKey, s.bindKey = s.stageKeys(placerKey)
	s.streamKey = fmt.Sprintf("stream|%s|%s|pol=%s|placer=%s", s.keyDev, s.keyWorkload, s.keyPol, placerKey) + s.keyBackend
	if _, ok := cfg.Placer.(schedule.LayoutSearcher); ok {
		s.searchKey = searchKey{
			dev:      s.keyDev,
			workload: s.keyWorkload,
			pol:      s.keyPol,
			placer:   placerKey,
			backend:  cfg.Backend.CacheKey(),
		}.CacheKey()
	}
	return s
}

// searchKey fingerprints a search-stage artifact: the searched layout is a
// function of the device, the workload, the placement policy (it seeds the
// starting layout), the placer (whose fingerprint covers the search
// objective and budget), and the timing backend (whose delta weights score
// the moves). The trial seed is appended per artifact via seedKey.
type searchKey struct {
	dev      string
	workload string
	pol      string
	placer   string
	backend  string
}

// CacheKey implements cache.Keyer.
func (k searchKey) CacheKey() string {
	return fmt.Sprintf("search|%s|%s|pol=%s|placer=%s|be=%s", k.dev, k.workload, k.pol, k.placer, k.backend)
}

// stageKeys builds the synth/bind key prefixes for one placer fingerprint
// over the stages' device, workload, and placement-policy components.
func (s *Stages) stageKeys(placerKey string) (synthKey, bindKey string) {
	synthKey = fmt.Sprintf("synth|%s|%s|pol=%s|placer=%s", s.keyDev, s.keyWorkload, s.keyPol, placerKey)
	bindKey = fmt.Sprintf("bind|%s|%s|pol=%s|placer=%s", s.keyDev, s.keyWorkload, s.keyPol, placerKey) + s.keyBackend
	return synthKey, bindKey
}

// policyKey returns a policy's canonical fingerprint when it provides one.
// An empty fingerprint means the policy's behavior cannot be canonically
// described (e.g. placement.Annealed over an unfingerprintable Base) and is
// treated the same as providing none: no key ⇒ no caching.
func policyKey(v any) (string, bool) {
	k, ok := v.(cache.Keyer)
	if !ok {
		return "", false
	}
	key := k.CacheKey()
	return key, key != ""
}

// Device returns the derived machine.
func (s *Stages) Device() *ti.Device { return s.device }

// Spec returns the effective workload spec.
func (s *Stages) Spec() circuit.Spec { return s.spec }

// placeCompute runs the placement policy on a fresh RNG stream for seed.
func (s *Stages) placeCompute(seed int64) (*ti.Layout, error) {
	return s.cfg.Placement.Place(s.device, s.spec.Qubits, stats.NewRand(seed))
}

// Place produces the trial's layout (stage 1). The layout equals what the
// coupled trial path computes for the same seed: placement draws from the
// head of the trial's RNG stream.
func (s *Stages) Place(seed int64) (*ti.Layout, error) {
	if s.pl == nil || s.placeKey == "" {
		return s.placeCompute(seed)
	}
	v, err := s.pl.place.GetOrCompute(seedKey(s.placeKey, seed), func() (any, error) {
		return s.placeCompute(seed)
	})
	if err != nil {
		return nil, err
	}
	return v.(*ti.Layout), nil
}

// searchSeedTag derives the layout-search seed from the trial seed via
// stats.SplitSeed: the search draws from its own stream, so adding (or
// re-running) the search stage never perturbs the trial's placement and
// synthesis draws.
const searchSeedTag = 0x5ea2c4

// trial runs the coupled place+synthesize path exactly as one randomized
// trial does: one RNG stream, placement first, then the gate placer over
// whatever stream state placement left behind, then — for placers that
// implement schedule.LayoutSearcher — the layout search over the
// synthesized circuit. It returns the evaluator and the layout the trial
// binds against (the searched one when the stage applies). The pre-search
// layout is stored into the Place cache as a side effect: that cache holds
// stage-1 artifacts, and the searched layout lives in the search cache.
func (s *Stages) trial(seed int64) (*ti.Layout, *perf.Evaluator, error) {
	r := stats.NewRand(seed)
	layout, err := s.cfg.Placement.Place(s.device, s.spec.Qubits, r)
	if err != nil {
		return nil, nil, err
	}
	if s.pl != nil && s.placeKey != "" {
		s.pl.place.Put(seedKey(s.placeKey, seed), layout)
	}
	if s.shared != nil {
		return layout, s.shared, nil
	}
	c, err := s.cfg.Placer.Place(s.spec, layout, r)
	if err != nil {
		return nil, nil, err
	}
	ev := perf.NewEvaluator(c)
	layout, err = s.searchLayout(ev, layout, seed)
	if err != nil {
		return nil, nil, err
	}
	return layout, ev, nil
}

// searchLayout runs the optional search stage: placers that implement
// schedule.LayoutSearcher re-place the trial's layout against the
// synthesized circuit; all others pass the layout through unchanged. The
// result is content-keyed in the pipeline's search cache when the placer
// can fingerprint itself.
func (s *Stages) searchLayout(ev *perf.Evaluator, l *ti.Layout, seed int64) (*ti.Layout, error) {
	searcher, ok := s.cfg.Placer.(schedule.LayoutSearcher)
	if !ok {
		return l, nil
	}
	searchSeed := stats.SplitSeed(seed, searchSeedTag)
	if s.pl == nil || s.searchKey == "" {
		return searcher.SearchLayout(ev, l, s.cfg.Backend, searchSeed)
	}
	v, err := s.pl.search.GetOrCompute(seedKey(s.searchKey, seed), func() (any, error) {
		return searcher.SearchLayout(ev, l, s.cfg.Backend, searchSeed)
	})
	if err != nil {
		return nil, err
	}
	return v.(*ti.Layout), nil
}

// Synthesize produces the trial's evaluator-wrapped circuit (stage 2). In
// explicit mode the fixed circuit's shared evaluator is returned. In spec
// mode the compute must replay placement first — the gate placer consumes
// the RNG stream where the placement policy left it — and trial feeds the
// Place (and, when applicable, search) caches as a side effect.
func (s *Stages) Synthesize(seed int64) (*perf.Evaluator, error) {
	if s.shared != nil {
		return s.shared, nil
	}
	if s.pl == nil || s.synthKey == "" {
		_, ev, err := s.trial(seed)
		return ev, err
	}
	v, err := s.pl.synth.GetOrCompute(seedKey(s.synthKey, seed), func() (any, error) {
		_, ev, err := s.trial(seed)
		if err != nil {
			return nil, err
		}
		return ev, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*perf.Evaluator), nil
}

// Bind classifies the trial's gates against its layout (stage 3) — the last
// latency-independent artifact, shared by every timing model evaluated for
// the trial.
func (s *Stages) Bind(seed int64) (*perf.Binding, error) {
	if s.pl == nil || s.bindKey == "" {
		return s.bindCompute(seed)
	}
	v, err := s.pl.bind.GetOrCompute(seedKey(s.bindKey, seed), func() (any, error) {
		return s.bindCompute(seed)
	})
	if err != nil {
		return nil, err
	}
	return v.(*perf.Binding), nil
}

// bindCompute runs the coupled trial once and feeds the earlier stage
// caches on the way (trial itself stores the place and search artifacts).
func (s *Stages) bindCompute(seed int64) (*perf.Binding, error) {
	layout, ev, err := s.trial(seed)
	if err != nil {
		return nil, err
	}
	if s.pl != nil && s.synthKey != "" {
		s.pl.synth.Put(seedKey(s.synthKey, seed), ev)
	}
	b, err := ev.Bind(layout)
	if err != nil {
		return nil, err
	}
	// The backend's Prepare hook runs here, before the binding escapes to
	// the bind cache or to other goroutines: a published binding is fully
	// annotated (e.g. the shuttle transport plan) and immutable.
	if err := s.cfg.Backend.Prepare(b, layout); err != nil {
		return nil, err
	}
	return b, nil
}

// Time prices a binding under one timing model (stage 4) — the only stage
// where the timing model enters, and the only one re-run across an α
// sweep. Pricing is delegated to the configured timing backend; the
// default perf.WeakLink is the paper's model.
func (s *Stages) Time(b *perf.Binding, lat perf.Latencies) (perf.Result, error) {
	return s.cfg.Backend.Time(b, lat)
}

// TimeAll prices a binding under every timing model in lats with the
// backend's one-pass parametric kernel; lane j equals Time(b, lats[j])
// bit for bit — every backend owes that contract.
func (s *Stages) TimeAll(b *perf.Binding, lats []perf.Latencies) ([]perf.Result, error) {
	return s.cfg.Backend.TimeAll(b, lats)
}

func seedKey(prefix string, seed int64) string {
	return fmt.Sprintf("%s|seed=%d", prefix, seed)
}

// RunSweep executes the configured simulation under every timing model in
// lats, sharing the latency-independent stages across models: each trial is
// placed, synthesized, and bound once, then priced for all models by the
// parametric kernel. RunSweep(cfg, lats)[j] is bit-identical to Run with
// cfg.Latencies = lats[j] — same seeds, same trials, same floats — because
// only the Time stage reads the timing model.
func RunSweep(cfg Config, lats []perf.Latencies) ([]*Report, error) {
	return RunSweepContext(context.Background(), cfg, lats)
}

// RunSweepContext is RunSweep with cancellation, mirroring RunContext.
func RunSweepContext(ctx context.Context, cfg Config, lats []perf.Latencies) ([]*Report, error) {
	if len(lats) == 0 {
		return nil, verr.Inputf("core: sweep requires at least one timing model")
	}
	cfg = cfg.normalized()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for _, lat := range lats {
		if err := lat.Validate(); err != nil {
			return nil, err
		}
	}
	var err error
	if cfg, err = cfg.materializeProgram(); err != nil {
		return nil, err
	}
	spec := cfg.workloadSpec()
	device, err := ti.DeviceFor(spec.Qubits, cfg.ChainLength, cfg.Topology)
	if err != nil {
		return nil, err
	}
	st := newStages(cfg, spec, device)
	var perTrial [][]perf.Result
	var seeds []int64
	if cfg.Stream {
		var sst perf.StreamStats
		perTrial, seeds, sst, err = streamSweep(ctx, cfg, st, lats)
		if err != nil {
			return nil, err
		}
		spec = fillStreamedSpec(cfg, spec, sst)
	} else {
		perTrial = make([][]perf.Result, cfg.Runs)
		seeds = make([]int64, cfg.Runs)
		err = pool.Run(ctx, cfg.Workers, cfg.Runs, func(i int) error {
			seed := stats.SplitSeed(cfg.Seed, i)
			b, err := st.Bind(seed)
			if err != nil {
				return fmt.Errorf("core: trial %d: %w", i, err)
			}
			rs, err := st.TimeAll(b, lats)
			if err != nil {
				return fmt.Errorf("core: trial %d: %w", i, err)
			}
			seeds[i] = seed
			perTrial[i] = rs
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	reports := make([]*Report, len(lats))
	for j := range lats {
		trials := make([]TrialResult, cfg.Runs)
		for i := range trials {
			trials[i] = TrialResult{Seed: seeds[i], Perf: perTrial[i][j]}
		}
		reports[j] = buildReport(spec, device, trials)
	}
	return reports, nil
}
