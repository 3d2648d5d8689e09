// Package velociti is an architecture-level performance modeling framework
// for QCCD-based trapped-ion (TI) quantum computers, reproducing the system
// described in "VelociTI: An Architecture-level Performance Modeling
// Framework for Trapped Ion Quantum Computers" (IISWC 2023).
//
// A trapped-ion machine is a set of ion chains joined by weak links — slow
// optical connections that are the central scalability bottleneck the
// framework elevates to an architectural knob. Given a workload's boundary
// conditions (qubit count and 1-/2-qubit gate counts, or an explicit
// gate-level circuit), VelociTI performs randomized place-and-route onto an
// area-optimal set of chains and evaluates two timing models: the serial
// baseline of the paper's Eq. 1–2 and a parallel model that computes the
// longest weighted path through the gate dependency graph.
//
// # Quick start
//
//	cfg := velociti.Config{
//		Spec:        velociti.Spec{Name: "demo", Qubits: 64, TwoQubitGates: 560},
//		ChainLength: 16,
//	}
//	report, err := velociti.Run(cfg)
//	// report.Serial, report.Parallel, report.MeanSpeedup()
//
// The package is a facade over the internal implementation:
//
//   - internal/circuit — circuit IR, SSA gate labels, dependency extraction
//   - internal/ti — chains, weak-link ring/line topologies, layouts
//   - internal/placement, internal/schedule — place-and-route policies
//   - internal/perf — the serial and parallel performance models
//   - internal/apps — Table II application generators (QFT, QAOA, ...)
//   - internal/workload — random, quantum-volume, and ratio workloads
//   - internal/qasm — OpenQASM 2.0 import/export
//   - internal/statevec — functional validation on small systems
//   - internal/expt — drivers regenerating every paper table and figure
//   - internal/config — JSON persistence of parameters and circuits
//
// The cmd/ directory provides the velociti, velociti-sweep, and
// velociti-repro command-line tools; examples/ holds runnable programs
// exercising this API.
package velociti

import (
	"io"
	"math/rand"

	"velociti/internal/apps"
	"velociti/internal/circuit"
	"velociti/internal/config"
	"velociti/internal/core"
	"velociti/internal/dse"
	"velociti/internal/fidelity"
	"velociti/internal/perf"
	"velociti/internal/placement"
	"velociti/internal/qasm"
	"velociti/internal/route"
	"velociti/internal/schedule"
	"velociti/internal/shuttle"
	"velociti/internal/statevec"
	"velociti/internal/stats"
	"velociti/internal/ti"
	"velociti/internal/verr"
)

// Spec is a workload's boundary conditions: register width and the 1- and
// 2-qubit gate counts (the paper's Table I circuit description).
type Spec = circuit.Spec

// Circuit is an explicit gate-level circuit.
type Circuit = circuit.Circuit

// Gate is one operation in a Circuit.
type Gate = circuit.Gate

// Kind identifies a gate's logical operation.
type Kind = circuit.Kind

// NewCircuit returns an empty circuit over numQubits qubits. A non-positive
// width poisons the circuit (see Circuit.Err) rather than panicking.
func NewCircuit(name string, numQubits int) *Circuit {
	return circuit.New(name, numQubits)
}

// ErrInput is the sentinel matched (via errors.Is or IsInputError) by every
// validation failure provoked by user input — bad API arguments, malformed
// QASM or JSON, unknown policy names. Errors that do not match it indicate
// a bug in the framework itself. See internal/verr for the repo-wide
// contract.
var ErrInput = verr.ErrInput

// IsInputError reports whether err stems from invalid user input rather
// than an internal failure.
func IsInputError(err error) bool { return verr.IsInput(err) }

// Latencies is the timing configuration: δ (1-qubit), γ (2-qubit), and the
// weak-link penalty α (Table III).
type Latencies = perf.Latencies

// DefaultLatencies returns the paper's evaluation latencies: δ = 1 µs,
// γ = 100 µs, α = 2.
func DefaultLatencies() Latencies { return perf.DefaultLatencies() }

// Result is the outcome of evaluating both performance models on one
// placed circuit.
type Result = perf.Result

// Config describes one simulation: workload, machine, timing model,
// policies, and replication.
type Config = core.Config

// Report aggregates a multi-trial simulation.
type Report = core.Report

// DefaultRuns is the paper's replication count per data point (35).
const DefaultRuns = core.DefaultRuns

// Run executes a configured simulation: randomized place-and-route per
// trial, both performance models, and summary statistics across trials.
func Run(cfg Config) (*Report, error) { return core.Run(cfg) }

// RunOnce executes a single trial with an explicit seed, returning the
// placed circuit and chain layout alongside the evaluation for detailed
// inspection.
func RunOnce(cfg Config, seed int64) (*Circuit, *Layout, Result, error) {
	b, res, err := core.RunOnce(cfg, seed)
	if err != nil {
		return nil, nil, Result{}, err
	}
	return b.Evaluator().Circuit(), b.Layout(), res, nil
}

// RunSweep executes the configured simulation under every timing model in
// lats with shared placement, synthesis, and gate classification;
// RunSweep(cfg, lats)[j] is bit-identical to Run with cfg.Latencies =
// lats[j]. This is the engine behind the α sweeps of Figures 8(b)/9(b).
func RunSweep(cfg Config, lats []Latencies) ([]*Report, error) {
	return core.RunSweep(cfg, lats)
}

// Pipeline is a shared, content-keyed store of latency-independent trial
// artifacts (layouts, synthesized circuits, gate-class bindings). Attach one
// to Config.Pipeline to reuse artifacts across related simulations — caching
// never changes results.
type Pipeline = core.Pipeline

// NewPipeline returns an empty artifact store with the default per-stage
// capacity.
func NewPipeline() *Pipeline { return core.NewPipeline() }

// Device describes a fixed trapped-ion machine: chains of a given length
// joined by weak links.
type Device = ti.Device

// Layout is a concrete assignment of qubits onto a device's chains.
type Layout = ti.Layout

// Topology selects the weak-link arrangement.
type Topology = ti.Topology

// Weak-link topologies: Ring (the paper's, w_max = #chains) and Line
// (w_max = #chains − 1).
const (
	Ring = ti.Ring
	Line = ti.Line
)

// NewDevice constructs a machine with the given chain length, chain count,
// and topology.
func NewDevice(chainLength, numChains int, topo Topology) (*Device, error) {
	return ti.NewDevice(chainLength, numChains, topo)
}

// DeviceFor constructs the area-optimal machine for a workload:
// ⌈numQubits/chainLength⌉ chains.
func DeviceFor(numQubits, chainLength int, topo Topology) (*Device, error) {
	return ti.DeviceFor(numQubits, chainLength, topo)
}

// PlacementPolicy assigns qubits to chains.
type PlacementPolicy = placement.Policy

// Placement policies: the paper's random policy plus deterministic and
// interaction-aware extensions.
var (
	RandomPlacement     PlacementPolicy = placement.Random{}
	RoundRobinPlacement PlacementPolicy = placement.RoundRobin{}
	SequentialPlacement PlacementPolicy = placement.Sequential{}
)

// InteractionAwarePlacement clusters frequently interacting qubits onto the
// same chain, minimizing weak-link traffic for explicit circuits.
func InteractionAwarePlacement(interactions map[[2]int]int) PlacementPolicy {
	return placement.InteractionAware{Interactions: interactions}
}

// RefinedPlacement runs a base policy (nil = random) and then applies
// Kernighan–Lin-style local search to minimize the weighted cross-chain
// gate count.
func RefinedPlacement(base PlacementPolicy, interactions map[[2]int]int, passes int) PlacementPolicy {
	return placement.Refined{Base: base, Interactions: interactions, Passes: passes}
}

// RefineLayout locally optimizes an existing layout for the given
// interaction graph, returning the refined layout, its cross-chain gate
// weight, and whether the search converged (false means the pass budget
// ran out while swaps were still improving — retry with more passes for
// a local optimum).
func RefineLayout(l *Layout, interactions map[[2]int]int, passes int) (*Layout, int, bool, error) {
	return placement.Refine(l, interactions, passes)
}

// Placer synthesizes a gate sequence realizing a Spec on a Layout.
type Placer = schedule.Placer

// Gate placers: the paper's random scheduling plus the extension policies.
func RandomPlacer() Placer          { return schedule.Random{} }
func WeakAvoidingPlacer() Placer    { return schedule.WeakAvoiding{} }
func EdgeConstrainedPlacer() Placer { return schedule.EdgeConstrained{} }

// LoadBalancedPlacer greedily minimizes per-gate finish times under the
// given latency model.
func LoadBalancedPlacer(lat Latencies) Placer {
	return schedule.LoadBalanced{Latencies: lat}
}

// PlacerByName resolves "random", "weak-avoiding", "load-balanced", or
// "edge-constrained".
func PlacerByName(name string, lat Latencies) (Placer, error) {
	return schedule.ByName(name, lat)
}

// Evaluate runs both performance models on an explicitly placed circuit.
func Evaluate(c *Circuit, l *Layout, lat Latencies) (Result, error) {
	return perf.Evaluate(c, l, lat)
}

// ParallelTimeConstrained evaluates the parallel model under a per-chain
// concurrency budget (at most capacity gates per chain at once; ≤ 0 means
// unlimited) — modeling finite AOM control channels.
func ParallelTimeConstrained(c *Circuit, l *Layout, lat Latencies, capacity int) (float64, error) {
	return perf.ParallelTimeConstrained(c, l, lat, capacity)
}

// Apps returns the paper's Table II application workloads as abstract
// specs.
func Apps() []Spec { return apps.PaperSpecs() }

// AppByName returns the Table II workload with the given name along with a
// gate-level generator for it.
func AppByName(name string) (Spec, func() (*Circuit, error), error) {
	a, err := apps.ByName(name)
	if err != nil {
		return Spec{}, nil, err
	}
	return a.Spec, a.Build, nil
}

// Application circuit generators (gate-level extensions of Table II). Each
// validates its arguments and returns an input-kind error on nonsense.
func QFT(n int) (*Circuit, error) { return apps.QFT(n) }
func GHZ(n int) (*Circuit, error) { return apps.GHZ(n) }
func BernsteinVazirani(n int, secret []bool) (*Circuit, error) {
	return apps.BernsteinVazirani(n, secret)
}
func CuccaroAdder(bits int) (*Circuit, error) { return apps.CuccaroAdder(bits) }
func Grover(dataQubits, iterations int) (*Circuit, error) {
	return apps.Grover(dataQubits, iterations)
}
func Supremacy(rows, cols, cycles int, seed int64) (*Circuit, error) {
	return apps.Supremacy(rows, cols, cycles, seed)
}
func QAOA(n int, edges [][2]int, rounds int, seed int64) (*Circuit, error) {
	return apps.QAOA(n, edges, rounds, seed)
}
func QPE(countQubits int, phase float64) (*Circuit, error) { return apps.QPE(countQubits, phase) }
func VQEAnsatz(n, layers int, seed int64) (*Circuit, error) {
	return apps.VQEAnsatz(n, layers, seed)
}
func WState(n int) (*Circuit, error) { return apps.WState(n) }

// ParseQASM parses an OpenQASM 2.0 program into a Circuit.
func ParseQASM(name, src string) (*Circuit, error) { return qasm.ParseCircuit(name, src) }

// SerializeQASM renders a Circuit as an OpenQASM 2.0 program.
func SerializeQASM(c *Circuit) string { return qasm.Serialize(c) }

// Params is the JSON-serializable form of a simulation configuration.
type Params = config.Params

// DefaultParams returns the paper's evaluation configuration.
func DefaultParams() Params { return config.Default() }

// LoadParams reads a configuration from a JSON file.
func LoadParams(path string) (Params, error) { return config.LoadParams(path) }

// WriteCircuitJSON and ReadCircuitJSON persist circuits as JSON.
func WriteCircuitJSON(w io.Writer, c *Circuit) error { return config.WriteCircuit(w, c) }
func ReadCircuitJSON(r io.Reader) (*Circuit, error)  { return config.ReadCircuit(r) }

// FidelityModel holds per-gate-class error rates and the coherence time
// for success-probability estimation (extension; see internal/fidelity).
type FidelityModel = fidelity.Model

// FidelityEstimate is the success-probability breakdown of a placed
// circuit.
type FidelityEstimate = fidelity.Estimate

// DefaultFidelityModel returns literature-typical trapped-ion error rates.
func DefaultFidelityModel() FidelityModel { return fidelity.Default() }

// EstimateFidelity computes the success probability of a placed circuit
// under the given error model, using the parallel model's execution time
// for dephasing.
func EstimateFidelity(c *Circuit, l *Layout, lat Latencies, m FidelityModel) (FidelityEstimate, error) {
	return m.Estimate(c, l, lat)
}

// ShuttleParams prices ion-transport primitives (split, move, merge,
// recool) for the QCCD shuttling communication model (extension; see
// internal/shuttle).
type ShuttleParams = shuttle.Params

// ShuttleResult compares the weak-link and shuttling mechanisms on one
// placed circuit.
type ShuttleResult = shuttle.Result

// DefaultShuttleParams returns literature-order-of-magnitude transport
// costs.
func DefaultShuttleParams() ShuttleParams { return shuttle.Default() }

// CompareShuttle evaluates a placed circuit under both cross-chain
// communication mechanisms: photonic weak links (α·γ) versus physical ion
// shuttling.
func CompareShuttle(c *Circuit, l *Layout, lat Latencies, p ShuttleParams) (ShuttleResult, error) {
	return shuttle.Compare(c, l, lat, p)
}

// DesignPoint is one evaluated machine configuration in a design-space
// exploration: knobs (chain length, α, placer) plus mean parallel time and
// log-fidelity.
type DesignPoint = dse.Point

// DesignSpaceOptions configures the exploration grid.
type DesignSpaceOptions = dse.Options

// ExploreDesignSpace evaluates a workload across the configured grid of
// machine designs.
func ExploreDesignSpace(spec Spec, opt DesignSpaceOptions) ([]DesignPoint, error) {
	return dse.Explore(spec, opt)
}

// ParetoFrontier filters design points to the non-dominated time/fidelity
// frontier, fastest first.
func ParetoFrontier(points []DesignPoint) []DesignPoint { return dse.Pareto(points) }

// RoutedCircuit is the outcome of the localizing router: the rewritten
// circuit, the final logical-to-physical qubit permutation, and migration
// counts.
type RoutedCircuit = route.Result

// LocalizeCircuit routes an explicit circuit against a layout: cross-chain
// gate streaks past the migration break-even (3α/(α−1) interactions) are
// localized by swapping a qubit into the partner chain. Semantics are
// preserved up to the returned final permutation.
func LocalizeCircuit(c *Circuit, l *Layout, lat Latencies) (*RoutedCircuit, error) {
	return route.Localize(c, l, lat)
}

// Timeline is the ASAP gate schedule implied by the parallel model, with
// per-gate intervals, chain lanes, concurrency, and an ASCII Gantt view.
type Timeline = perf.Timeline

// BuildTimeline computes the schedule of a placed circuit.
func BuildTimeline(c *Circuit, l *Layout, lat Latencies) (*Timeline, error) {
	return perf.BuildTimeline(c, l, lat)
}

// StateVector is a pure quantum state produced by the built-in functional
// simulator.
type StateVector = statevec.State

// Simulate executes a circuit on the state-vector simulator (up to
// statevec.MaxQubits qubits). This is the "functional simulation for small
// systems" the paper lists as future work; the framework's tests use it to
// validate the application generators.
func Simulate(c *Circuit) (*StateVector, error) { return statevec.Run(c) }

// Summary holds aggregate statistics of a sample (mean, std, min, max,
// median).
type Summary = stats.Summary

// NewRand returns the deterministic PRNG used throughout the framework.
func NewRand(seed int64) *rand.Rand { return stats.NewRand(seed) }
