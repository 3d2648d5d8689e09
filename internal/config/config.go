// Package config provides JSON persistence for VelociTI's boundary
// conditions and circuits, mirroring the original tool's "functionality to
// configure, save, and load existing circuits to the software via json
// configuration files" (§V-A).
//
// Params captures everything in Table I's configured section plus the
// policy and replication choices; it converts to a core.Config for
// execution. Circuits round-trip through a stable gate-list JSON schema.
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"velociti/internal/circuit"
	"velociti/internal/core"
	"velociti/internal/perf"
	"velociti/internal/placement"
	"velociti/internal/schedule"
	"velociti/internal/shuttle"
	"velociti/internal/ti"
	"velociti/internal/verr"
)

// Params is the serializable form of a simulation configuration.
type Params struct {
	// Workload is the abstract circuit description (Table I: number of
	// qubits, 1-qubit gates q, 2-qubit gates p).
	Workload circuit.Spec `json:"workload"`
	// ChainLength is the maximum ions per chain.
	ChainLength int `json:"chain_length"`
	// Topology is "ring" (default) or "line".
	Topology string `json:"topology,omitempty"`
	// Latencies is the Table III timing model (δ, γ, α).
	Latencies perf.Latencies `json:"latencies"`
	// Placement names the qubit-placement policy: "random" (default),
	// "round-robin", or "sequential".
	Placement string `json:"placement,omitempty"`
	// Placer names the gate-placement policy: "random" (default),
	// "weak-avoiding", "load-balanced", "edge-constrained", or the
	// search-based "annealed".
	Placer string `json:"placer,omitempty"`
	// Runs is the number of randomized trials (default 35).
	Runs int `json:"runs,omitempty"`
	// Seed is the master random seed.
	Seed int64 `json:"seed,omitempty"`
	// Backend names the timing backend: "weaklink" (default; cross-chain
	// gates at α·γ) or "shuttle" (explicit ion transport: split +
	// per-hop move + merge + recool + local γ).
	Backend string `json:"backend,omitempty"`
	// Shuttle prices the shuttle backend's transport primitives; nil
	// selects shuttle.Default(). It is validated whenever present, even
	// under the weaklink backend, so a config that carries bad costs is
	// rejected regardless of which backend is selected.
	Shuttle *shuttle.Params `json:"shuttle,omitempty"`
	// Stream selects the memory-bounded streaming evaluation path
	// (core.Config.Stream): bit-identical results at any gate count, minus
	// per-trial critical paths.
	Stream bool `json:"stream,omitempty"`
}

// Default returns the paper's evaluation configuration: Table III
// latencies, 16-ion chains, ring topology, random policies, 35 runs.
func Default() Params {
	return Params{
		ChainLength: 16,
		Topology:    ti.Ring.String(),
		Latencies:   perf.DefaultLatencies(),
		Placement:   "random",
		Placer:      "random",
		Runs:        core.DefaultRuns,
	}
}

// placementByName resolves the placement policy names accepted in configs.
func placementByName(name string) (placement.Policy, error) {
	switch name {
	case "", "random":
		return placement.Random{}, nil
	case "round-robin":
		return placement.RoundRobin{}, nil
	case "sequential":
		return placement.Sequential{}, nil
	default:
		return nil, verr.Inputf("config: unknown placement policy %q (want random, round-robin, or sequential)", name)
	}
}

// ShuttleParams resolves the effective shuttle transport costs: the
// configured ones when present, shuttle.Default() otherwise.
func (p Params) ShuttleParams() shuttle.Params {
	if p.Shuttle != nil {
		return *p.Shuttle
	}
	return shuttle.Default()
}

// ToCoreConfig resolves the named policies and returns an executable
// core.Config.
func (p Params) ToCoreConfig() (core.Config, error) {
	return p.ToCoreConfigWithCircuit(nil)
}

// ToCoreConfigWithCircuit resolves like ToCoreConfig and, when c is
// non-nil, attaches it as an explicit gate-level workload (the configured
// abstract workload is then ignored).
func (p Params) ToCoreConfigWithCircuit(c *circuit.Circuit) (core.Config, error) {
	return p.toCoreConfig(c, nil)
}

// ToCoreConfigWithProgram resolves like ToCoreConfig and attaches prog as
// a generator-driven workload (core.Config.Program) — the streaming
// counterpart of an explicit circuit.
func (p Params) ToCoreConfigWithProgram(prog *circuit.Program) (core.Config, error) {
	return p.toCoreConfig(nil, prog)
}

func (p Params) toCoreConfig(c *circuit.Circuit, prog *circuit.Program) (core.Config, error) {
	topoName := p.Topology
	if topoName == "" {
		topoName = ti.Ring.String()
	}
	topo, err := ti.ParseTopology(topoName)
	if err != nil {
		return core.Config{}, err
	}
	pol, err := placementByName(p.Placement)
	if err != nil {
		return core.Config{}, err
	}
	lat := p.Latencies
	if lat == (perf.Latencies{}) {
		lat = perf.DefaultLatencies()
	}
	placerName := p.Placer
	if placerName == "" {
		placerName = "random"
	}
	placer, err := schedule.ByName(placerName, lat)
	if err != nil {
		return core.Config{}, err
	}
	backend, err := shuttle.Resolve(p.Backend, p.Shuttle)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{
		Spec:        p.Workload,
		Circuit:     c,
		Program:     prog,
		ChainLength: p.ChainLength,
		Topology:    topo,
		Latencies:   lat,
		Placement:   pol,
		Placer:      placer,
		Runs:        p.Runs,
		Seed:        p.Seed,
		Backend:     backend,
		Stream:      p.Stream,
	}
	return cfg, cfg.Validate()
}

// Write serializes the params as indented JSON.
func (p Params) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// Save writes the params to a file.
func (p Params) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return p.Write(f)
}

// ReadParams parses params from JSON. Unknown fields are rejected to catch
// config typos early. All failures are input-kind errors: a config file is
// untrusted input.
func ReadParams(r io.Reader) (Params, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var p Params
	if err := dec.Decode(&p); err != nil {
		return Params{}, verr.Inputf("config: parsing params: %w", err)
	}
	return p, nil
}

// LoadParams reads params from a file.
func LoadParams(path string) (Params, error) {
	f, err := os.Open(path)
	if err != nil {
		return Params{}, verr.Mark(err)
	}
	defer f.Close()
	return ReadParams(f)
}

// gateJSON is the serialized form of one gate.
type gateJSON struct {
	Kind   string    `json:"kind"`
	Qubits []int     `json:"qubits"`
	Params []float64 `json:"params,omitempty"`
}

// circuitJSON is the serialized form of a circuit.
type circuitJSON struct {
	Name   string     `json:"name"`
	Qubits int        `json:"qubits"`
	Gates  []gateJSON `json:"gates"`
}

// WriteCircuit serializes a circuit as indented JSON.
func WriteCircuit(w io.Writer, c *circuit.Circuit) error {
	out := circuitJSON{
		Name:   c.Name,
		Qubits: c.NumQubits(),
		Gates:  make([]gateJSON, 0, c.NumGates()),
	}
	for _, g := range c.Gates() {
		out.Gates = append(out.Gates, gateJSON{
			Kind:   g.Kind.Name(),
			Qubits: g.Qubits,
			Params: g.Params,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// SaveCircuit writes a circuit to a file.
func SaveCircuit(path string, c *circuit.Circuit) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return WriteCircuit(f, c)
}

// ReadCircuit parses a circuit from JSON, validating gate kinds, arities,
// and qubit ranges through the circuit builder's sticky-error contract.
// Every rejection is an input-kind diagnostic; no JSON input can panic.
func ReadCircuit(r io.Reader) (*circuit.Circuit, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var in circuitJSON
	if err := dec.Decode(&in); err != nil {
		return nil, verr.Inputf("config: parsing circuit: %w", err)
	}
	if in.Qubits <= 0 {
		return nil, verr.Inputf("config: circuit %q has non-positive qubit count %d", in.Name, in.Qubits)
	}
	out := circuit.New(in.Name, in.Qubits)
	for i, g := range in.Gates {
		kind, ok := circuit.KindByName(g.Kind)
		if !ok {
			return nil, verr.Inputf("config: circuit %q gate %d: unknown kind %q", in.Name, i, g.Kind)
		}
		if out.Append(kind, g.Qubits, g.Params...) < 0 {
			return nil, fmt.Errorf("config: circuit %q gate %d: %w", in.Name, i, out.Err())
		}
	}
	return out, nil
}

// LoadCircuit reads a circuit from a file.
func LoadCircuit(path string) (*circuit.Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, verr.Mark(err)
	}
	defer f.Close()
	return ReadCircuit(f)
}
