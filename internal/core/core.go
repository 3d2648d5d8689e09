// Package core wires VelociTI's stages together: setup (boundary
// conditions), hardware implementation (place-and-route), and performance
// modeling — the software flow of the paper's Figures 2 and 4.
//
// A Config describes one simulation: a workload (an abstract circuit.Spec,
// or an explicit gate-level circuit in extension mode), a machine (chain
// length and weak-link topology; the chain count is derived area-optimally),
// a timing model, and the placement/scheduling policies. Run executes the
// configured number of independent randomized trials — the paper uses 35 —
// and aggregates serial/parallel times into summary statistics with
// min/max spread, matching how every figure in the evaluation reports data.
package core

import (
	"context"
	"fmt"

	"velociti/internal/circuit"
	"velociti/internal/perf"
	"velociti/internal/placement"
	"velociti/internal/schedule"
	"velociti/internal/stats"
	"velociti/internal/ti"
	"velociti/internal/verr"
)

// DefaultRuns is the number of randomized trials the paper averages over
// for every reported bar (§V-B, §VI-A).
const DefaultRuns = 35

// Config is the boundary-condition input of one VelociTI simulation
// (Table I plus policy choices).
type Config struct {
	// Spec is the abstract workload (qubits, 1q gates, 2q gates). It is
	// ignored when Circuit is set.
	Spec circuit.Spec
	// Circuit, when non-nil, selects explicit mode: the gate sequence is
	// fixed and only qubit placement is randomized per trial. Cross-chain
	// gates are charged α·γ per weak link traversed (forgiving routing).
	Circuit *circuit.Circuit
	// Program, when non-nil, selects program mode: the workload is a
	// deterministic generator body (circuit.Program) instead of a stored
	// gate list. Streaming runs (Stream=true) re-emit it gate by gate per
	// trial without ever materializing; the materialized entry points
	// convert it to a Circuit once up front. Mutually exclusive with
	// Circuit.
	Program *circuit.Program
	// ChainLength is the maximum ions per chain (paper range: 8–32,
	// scaled to 64 in §VI-B).
	ChainLength int
	// Topology is the weak-link arrangement; the zero value (ti.Ring)
	// matches the paper's weak-link counts.
	Topology ti.Topology
	// Latencies is the Table III timing model; zero value is replaced by
	// perf.DefaultLatencies.
	Latencies perf.Latencies
	// Placement assigns qubits to chains; nil selects the paper's random
	// policy.
	Placement placement.Policy
	// Placer synthesizes hardware-legal gate sequences from the spec;
	// nil selects the paper's random placer. Unused in explicit mode.
	Placer schedule.Placer
	// Runs is the number of independent randomized trials; zero selects
	// DefaultRuns (35).
	Runs int
	// Seed is the master seed; trial i uses stats.SplitSeed(Seed, i).
	Seed int64
	// Workers bounds the number of trials executed concurrently (further
	// capped at GOMAXPROCS by the shared pool runner). Zero or one runs
	// serially. Results are bit-identical regardless of worker count:
	// every trial derives its own seed and the report preserves trial
	// order.
	Workers int
	// Pipeline, when non-nil, memoizes each trial's latency-independent
	// artifact (its gate-class binding, which carries the circuit and
	// layout) and streamed results across runs that share it. Caching
	// never changes results — artifacts are keyed by everything that
	// influences them — it only skips recomputation; see stages.go.
	Pipeline *Pipeline
	// Backend selects the timing backend that prices bound circuits at
	// the Bind/Time seam: nil selects the paper's weak-link parallel
	// model (perf.WeakLink). Alternate backends (internal/shuttle) price
	// cross-chain gates as explicit ion transport; the Bind stage runs
	// the backend's Prepare hook before a binding is cached or shared,
	// and bind cache keys embed the backend fingerprint so bindings from
	// different backends never collide in a shared Pipeline.
	Backend perf.TimingBackend
	// Stream selects the memory-bounded evaluation path: gates flow from
	// the workload (explicit circuit, Program, or a streaming placer over
	// the spec) straight through the backend's frontier kernel, with peak
	// memory independent of the gate count. Results are bit-identical to
	// the materialized path except that per-trial critical paths are not
	// recovered (Result.CriticalPath stays empty — reconstructing the
	// argmax path needs memory linear in the gate count). In spec mode a
	// placer that searches layouts (schedule.LayoutSearcher) cannot
	// stream, and Validate rejects it. A streamed Program is never cached:
	// its body is opaque, so it has no content key.
	Stream bool
}

// normalized returns a copy of the config with defaults filled in.
func (c Config) normalized() Config {
	if c.Latencies == (perf.Latencies{}) {
		c.Latencies = perf.DefaultLatencies()
	}
	if c.Placement == nil {
		c.Placement = placement.Random{}
	}
	if c.Placer == nil {
		c.Placer = schedule.Random{}
	}
	if c.Runs <= 0 {
		c.Runs = DefaultRuns
	}
	if c.Backend == nil {
		c.Backend = perf.WeakLink{}
	}
	return c
}

// workloadSpec returns the effective spec: the explicit circuit's when in
// explicit mode, the program's identity (gate counts unknown until the
// stream is consumed) in program mode, the configured one otherwise.
func (c Config) workloadSpec() circuit.Spec {
	if c.Circuit != nil {
		return c.Circuit.Spec()
	}
	if c.Program != nil {
		return circuit.Spec{Name: c.Program.Name, Qubits: c.Program.Qubits}
	}
	return c.Spec
}

// materializeProgram converts program mode to explicit mode for the
// materialized entry points: a Program without Stream is built into a
// Circuit once, so every downstream stage sees the classic explicit-mode
// shape. Streaming configs keep the Program — that is the point.
func (c Config) materializeProgram() (Config, error) {
	if c.Program == nil || c.Stream {
		return c, nil
	}
	circ, err := c.Program.Circuit()
	if err != nil {
		return c, fmt.Errorf("core: program %q: %w", c.Program.Name, err)
	}
	c.Circuit = circ
	c.Program = nil
	return c, nil
}

// Validate reports configuration errors without running anything. All
// failures are input-kind (verr.ErrInput): a Config is assembled from user
// input (flags, JSON files), so rejection is a diagnostic, never a panic.
func (c Config) Validate() error {
	n := c.normalized()
	if n.Circuit != nil && n.Program != nil {
		return verr.Inputf("core: config sets both Circuit and Program; pick one workload form")
	}
	if n.Circuit != nil {
		if err := n.Circuit.Err(); err != nil {
			return fmt.Errorf("core: invalid circuit: %w", err)
		}
	}
	if n.Program != nil && n.Program.Body == nil {
		return verr.Inputf("core: program %q has no body", n.Program.Name)
	}
	spec := n.workloadSpec()
	if err := spec.Validate(); err != nil {
		return err
	}
	if n.ChainLength <= 0 {
		return verr.Inputf("core: chain length must be positive, got %d", n.ChainLength)
	}
	if err := n.Latencies.Validate(); err != nil {
		return err
	}
	if err := n.Backend.Validate(); err != nil {
		return err
	}
	if n.Stream && n.Circuit == nil && n.Program == nil {
		// Spec mode streams through the placer's emitter; placers that
		// search layouts need the materialized circuit (the annealer's
		// incidence structure), so they cannot stream.
		if _, ok := n.Placer.(schedule.LayoutSearcher); ok {
			return verr.Inputf("core: placer %T searches layouts over a materialized circuit and cannot stream; disable Stream or pick a non-searching placer", n.Placer)
		}
	}
	return nil
}

// TrialResult is the outcome of one randomized trial.
type TrialResult struct {
	// Seed is the trial's derived seed, for exact replay.
	Seed int64 `json:"seed"`
	// Perf carries the serial/parallel times and weak-link statistics.
	Perf perf.Result `json:"perf"`
}

// Report aggregates a full multi-trial simulation.
type Report struct {
	// Spec is the workload's boundary conditions.
	Spec circuit.Spec `json:"spec"`
	// Device describes the derived machine.
	Device DeviceInfo `json:"device"`
	// Trials holds every per-trial result in order.
	Trials []TrialResult `json:"trials"`
	// Serial and Parallel summarize execution times in µs across trials.
	Serial   stats.Summary `json:"serial_us"`
	Parallel stats.Summary `json:"parallel_us"`
	// SerialPerGate summarizes the per-gate-charged serial worst case.
	SerialPerGate stats.Summary `json:"serial_per_gate_us"`
	// WeakGates summarizes cross-chain 2-qubit gate counts across trials.
	WeakGates stats.Summary `json:"weak_gates"`
	// LinksUsed summarizes Table I's w (distinct weak links used).
	LinksUsed stats.Summary `json:"links_used"`
}

// DeviceInfo is the derived machine description recorded in reports
// (Table I's computed parameters).
type DeviceInfo struct {
	ChainLength  int    `json:"chain_length"`
	NumChains    int    `json:"num_chains"`
	Topology     string `json:"topology"`
	MaxWeakLinks int    `json:"max_weak_links"`
}

// MeanSpeedup returns the ratio of mean serial to mean parallel time — the
// per-application speedup the paper reports in Case Study 1.
func (r Report) MeanSpeedup() float64 {
	if r.Parallel.Mean == 0 {
		return 0
	}
	return r.Serial.Mean / r.Parallel.Mean
}

// Run executes the configured simulation: derive the area-optimal device,
// then for each trial place qubits, synthesize or reuse the gate sequence,
// and evaluate both performance models.
func Run(cfg Config) (*Report, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: a one-lane RunSweepContext priced
// under the configured timing model. Results are bit-identical to Run at
// every worker count.
func RunContext(ctx context.Context, cfg Config) (*Report, error) {
	reports, err := RunSweepContext(ctx, cfg, []perf.Latencies{cfg.normalized().Latencies})
	if err != nil {
		return nil, err
	}
	return reports[0], nil
}

// buildReport aggregates per-trial results into summary statistics, in
// trial order.
func buildReport(spec circuit.Spec, device *ti.Device, trials []TrialResult) *Report {
	report := &Report{
		Spec: spec,
		Device: DeviceInfo{
			ChainLength:  device.ChainLength(),
			NumChains:    device.NumChains(),
			Topology:     device.Topology().String(),
			MaxWeakLinks: device.MaxWeakLinks(),
		},
		Trials: trials,
	}
	serial := make([]float64, 0, len(trials))
	serialPG := make([]float64, 0, len(trials))
	parallel := make([]float64, 0, len(trials))
	weak := make([]float64, 0, len(trials))
	links := make([]float64, 0, len(trials))
	for _, tr := range trials {
		serial = append(serial, tr.Perf.SerialMicros)
		serialPG = append(serialPG, tr.Perf.SerialPerGateMicros)
		parallel = append(parallel, tr.Perf.ParallelMicros)
		weak = append(weak, float64(tr.Perf.WeakGates))
		links = append(links, float64(tr.Perf.LinksUsed))
	}
	report.Serial = stats.Summarize(serial)
	report.SerialPerGate = stats.Summarize(serialPG)
	report.Parallel = stats.Summarize(parallel)
	report.WeakGates = stats.Summarize(weak)
	report.LinksUsed = stats.Summarize(links)
	return report
}

// RunOnce executes a single trial with an explicit seed, returning the
// trial's prepared binding alongside its evaluation — the building block
// for detailed inspection (critical paths, DOT dumps, timelines, fidelity).
// The binding carries the placed circuit (Evaluator().Circuit()) and
// layout (Layout()), and prices itself under cfg's backend. It is trial i
// of Run when seed is stats.SplitSeed(cfg.Seed, i).
func RunOnce(cfg Config, seed int64) (*perf.Binding, perf.Result, error) {
	st, err := NewStages(cfg)
	if err != nil {
		return nil, perf.Result{}, err
	}
	if st.cfg.Stream {
		return nil, perf.Result{}, verr.Inputf("core: RunOnce inspects materialized artifacts (circuit, critical path); disable Stream")
	}
	b, err := st.Bind(seed)
	if err != nil {
		return nil, perf.Result{}, err
	}
	res, err := b.Time(st.cfg.Latencies)
	if err != nil {
		return nil, perf.Result{}, err
	}
	return b, res, nil
}
