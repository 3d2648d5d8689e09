package core

// This file is the stage graph of one randomized trial (spec+seed →
// circuit → layout → evaluate), split where the timing model enters:
//
//	Trial  device+spec+seed → placement policy, then gate placer on the
//	       same RNG stream, then (schedule.LayoutSearcher placers only)
//	       the layout search over the synthesized circuit
//	Bind   circuit+layout   → *perf.Binding (per-gate latency classes,
//	       plus the evaluator and the layout it was bound against),
//	       prepared by the timing backend, which fixes how it prices
//	Time   binding + Latencies → perf.Result (Binding.Time/TimeAll)
//
// The weak-link penalty α enters only at Time, so sweep cells that differ
// only in α share one Binding and re-run just the pricing step.
//
// Cache keys and the RNG stream. A trial draws placement and synthesis from
// ONE seeded RNG stream: the placer consumes whatever randomness the
// placement policy left behind. Layout, circuit and binding are therefore
// one coupled artifact, and the Binding — which carries the other two — is
// what the pipeline caches. Keys embed the canonical fingerprints of
// everything that influences it: device geometry, workload, policy
// configurations (cache.Keyer), the timing backend, and the trial seed. A
// policy that cannot describe itself as a canonical string disables
// caching — a wrong key would silently corrupt results, so "no key" means
// "no caching".

import (
	"context"
	"fmt"
	"sync/atomic"

	"velociti/internal/cache"
	"velociti/internal/circuit"
	"velociti/internal/perf"
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
// deterministic memo cache for each artifact something reads back — the
// trial's Binding and the streamed result. A single Pipeline is safe for
// concurrent use and is meant to be shared across every Config of a sweep
// (attach it via Config.Pipeline); artifacts are content-keyed, so configs
// that disagree on any behavior-relevant input never share them.
type Pipeline struct {
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
		bind:   cache.New(perStage),
		stream: cache.New(perStage),
	}
}

// StageStats is a point-in-time snapshot of a pipeline's per-stage cache
// counters; velociti-serve's /metrics reports it as is. Time is not
// listed: it is the parametric step that is always recomputed.
type StageStats struct {
	// Bind counts the materialized trial: one entry per (configuration,
	// seed), holding the binding with its circuit and layout.
	Bind cache.Stats `json:"bind"`
	// Stream counts the fused streaming-evaluation stage (place + emit +
	// price in one pass); unlike Bind its artifacts are latency-bearing,
	// so keys embed the priced lats.
	Stream cache.Stats `json:"stream"`
}

// Stats snapshots the per-stage counters.
func (p *Pipeline) Stats() StageStats {
	return StageStats{
		Bind:   p.bind.Stats(),
		Stream: p.stream.Stats(),
	}
}

// Stages executes the stage graph for one validated Config. It is
// immutable after construction and safe for concurrent use — the
// worker-pool trial runner calls Bind from many goroutines.
type Stages struct {
	cfg    Config
	spec   circuit.Spec
	device *ti.Device
	pl     *Pipeline

	// shared is the explicit-mode evaluator, built once for the fixed
	// circuit (it is immutable and concurrency-safe).
	shared *perf.Evaluator

	// bindKey is the canonical bind-cache key prefix ("" = not
	// cacheable); the trial seed is appended per artifact.
	bindKey string
	// streamKey is the streaming-evaluation prefix (stream.go); in
	// Program mode it lacks the content component until progFP learns the
	// program's fingerprint from the first keyed evaluation. progFP is
	// non-nil only in Program mode with a stream key, and 0 until learned.
	streamKey string
	progFP    *atomic.Uint64

	// Key components retained for BindAll, which rebuilds the bind prefix
	// per sweep lane (the placer fingerprint varies with the lane's timing
	// model). keyPol is "" when the placement policy cannot fingerprint
	// itself, which disables caching everywhere. keyBackend
	// ("|be=<fingerprint>") is appended to every bind key: a binding
	// carries backend-prepared annotations (the shuttle transport plan),
	// so bindings prepared for different timing backends must never
	// collide in a shared Pipeline.
	keyDev      string
	keyWorkload string
	keyPol      string
	keyBackend  string
}

// NewStages is the one constructor of a trial: it normalizes and validates
// cfg, materializes a non-streaming Program into its Circuit, derives the
// area-optimal device, and returns the stage executor. Caching is active
// only when cfg.Pipeline is set and the configured policies can
// fingerprint themselves (cache.Keyer).
func NewStages(cfg Config) (*Stages, error) {
	cfg = cfg.normalized()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg, err := cfg.materializeProgram()
	if err != nil {
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
	if cfg.Circuit != nil {
		// Explicit mode: the circuit is fixed, so Bind depends only on the
		// layout inputs plus circuit content (and the backend, whose
		// Prepare annotates the binding).
		fp := cfg.Circuit.Fingerprint()
		s.bindKey = fmt.Sprintf("bind|%s|circ=%016x|pol=%s", dev, fp, polKey) + s.keyBackend
		s.streamKey = fmt.Sprintf("stream|%s|circ=%016x|pol=%s", dev, fp, polKey) + s.keyBackend
		return s
	}
	if cfg.Program != nil {
		// Program mode (always streaming — materialized runs convert the
		// program to a Circuit up front): the body is opaque, so the
		// content component of the stream key is learned, not derived.
		// streamEvalKey appends it once progFP is populated.
		s.streamKey = fmt.Sprintf("stream|%s|q%d|pol=%s", dev, spec.Qubits, polKey) + s.keyBackend
		s.progFP = new(atomic.Uint64)
		return s
	}
	s.keyWorkload = fmt.Sprintf("spec=%q/q%d/1q%d/2q%d", spec.Name, spec.Qubits, spec.OneQubitGates, spec.TwoQubitGates)
	placerKey, ok := policyKey(cfg.Placer)
	if !ok {
		return s
	}
	// The placer fingerprint covers a layout searcher's objective and
	// budget, and the backend component covers the delta weights that
	// score its moves, so the bind key also keys the searched layout.
	s.bindKey = s.placerBindKey(placerKey)
	s.streamKey = fmt.Sprintf("stream|%s|%s|pol=%s|placer=%s", s.keyDev, s.keyWorkload, s.keyPol, placerKey) + s.keyBackend
	return s
}

// placerBindKey builds the bind key prefix for one placer fingerprint over
// the stages' device, workload, placement-policy, and backend components.
func (s *Stages) placerBindKey(placerKey string) string {
	return fmt.Sprintf("bind|%s|%s|pol=%s|placer=%s", s.keyDev, s.keyWorkload, s.keyPol, placerKey) + s.keyBackend
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

// searchSeedTag derives the layout-search seed from the trial seed via
// stats.SplitSeed: the search draws from its own stream, so adding (or
// re-running) the search stage never perturbs the trial's placement and
// synthesis draws.
const searchSeedTag = 0x5ea2c4

// trial runs the coupled place+synthesize path exactly as one randomized
// trial does: one RNG stream, placement first, then the gate placer over
// whatever stream state placement left behind, then — for placers that
// implement schedule.LayoutSearcher — the layout search over the
// synthesized circuit, on a seed split off the trial seed. It returns the
// evaluator and the layout the trial binds against (the searched one when
// the search applies).
func (s *Stages) trial(seed int64) (*ti.Layout, *perf.Evaluator, error) {
	r := stats.NewRand(seed)
	layout, err := s.cfg.Placement.Place(s.device, s.spec.Qubits, r)
	if err != nil {
		return nil, nil, err
	}
	if s.shared != nil {
		return layout, s.shared, nil
	}
	c, err := s.cfg.Placer.Place(s.spec, layout, r)
	if err != nil {
		return nil, nil, err
	}
	ev := perf.NewEvaluator(c)
	if searcher, ok := s.cfg.Placer.(schedule.LayoutSearcher); ok {
		layout, err = searcher.SearchLayout(ev, layout, s.cfg.Backend, stats.SplitSeed(seed, searchSeedTag))
		if err != nil {
			return nil, nil, err
		}
	}
	return layout, ev, nil
}

// Bind produces the trial's binding — the last latency-independent
// artifact, shared by every timing model evaluated for the trial. The
// binding carries the trial's circuit (Evaluator().Circuit()) and the
// layout it was bound against (Layout()).
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

// bindCompute runs the coupled trial once and binds its circuit to its
// layout.
func (s *Stages) bindCompute(seed int64) (*perf.Binding, error) {
	layout, ev, err := s.trial(seed)
	if err != nil {
		return nil, err
	}
	b, err := ev.Bind(layout)
	if err != nil {
		return nil, err
	}
	// The backend's Prepare hook runs here, before the binding escapes to
	// the bind cache or to other goroutines: a published binding is fully
	// annotated (e.g. the shuttle transport plan and costs), immutable,
	// and prices itself under the backend's model.
	if err := s.cfg.Backend.Prepare(b, layout); err != nil {
		return nil, err
	}
	return b, nil
}

// Time prices a binding under one timing model — the only stage where the
// timing model enters, and the only one re-run across an α sweep. It is
// b.Time: a binding from Bind or BindAll prices itself under the backend
// that prepared it.
func (s *Stages) Time(b *perf.Binding, lat perf.Latencies) (perf.Result, error) {
	return b.Time(lat)
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

// RunSweepContext is RunSweep with cancellation: when ctx is cancelled the
// trial loop stops dispatching and ctx's error is returned. It is the
// one-plan case of the trial loop (plan.go): the configured placer is
// fixed across lanes, so trial i derives its own seed from the master seed
// and is bound once and priced for every lane (Bind, then the binding's
// TimeAll), or streamed through the backend's frontier kernel for every
// lane at once when cfg.Stream is set (StreamEval). Results are
// bit-identical at every worker count.
func RunSweepContext(ctx context.Context, cfg Config, lats []perf.Latencies) ([]*Report, error) {
	if len(lats) == 0 {
		return nil, verr.Inputf("core: sweep requires at least one timing model")
	}
	st, err := NewStages(cfg)
	if err != nil {
		return nil, err
	}
	for _, lat := range lats {
		if err := lat.Validate(); err != nil {
			return nil, err
		}
	}
	plan := &Plan{lats: lats, stages: []*Stages{st}}
	reports, errs := runReports(ctx, []*Plan{plan}, st.cfg.Runs, st.cfg.Workers, st.cfg.Seed)
	if errs[0] != nil {
		return nil, errs[0]
	}
	return reports[0], nil
}
