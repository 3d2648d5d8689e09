package serve

// Request schemas and decoding. Every request mirrors the corresponding
// CLI's knobs — evaluate takes the config.Params shape velociti persists,
// sweep takes velociti-sweep's workload selector and grid lists, explore
// takes the dse grid — plus two execution-only knobs (workers, timeout_ms)
// that can never change a result byte.
//
// Decoding is strict: unknown fields are rejected (a typo'd knob silently
// selecting a default would return results for the wrong question), bodies
// are size-capped, and every rejection is an input-kind error so handlers
// can answer 4xx-vs-5xx from the error value alone.
//
// Each request type normalizes to a canonical form with every default made
// explicit; the coalescing key is that canonical form minus the
// execution-only knobs, so requests that must produce identical bytes —
// and only those — share a flight.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"velociti/internal/circuit"
	"velociti/internal/config"
	"velociti/internal/core"
	"velociti/internal/dse"
	"velociti/internal/perf"
	"velociti/internal/shuttle"
	"velociti/internal/ti"
	"velociti/internal/verr"
	"velociti/internal/workload"
)

// execKnobs are the request fields that steer execution without
// influencing any output byte: trial-level parallelism and the per-request
// deadline. They are excluded from coalescing keys.
type execKnobs struct {
	// Workers bounds trials evaluated concurrently inside the request;
	// zero selects the server's default. Results are bit-identical at any
	// value (the repo-wide worker-pool contract).
	Workers int `json:"workers,omitempty"`
	// TimeoutMillis caps this request's evaluation deadline; zero selects
	// the server's default. Values above the server's maximum are
	// clamped, never an error.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// timeout resolves the effective deadline against the server cap.
func (e execKnobs) timeout(serverMax time.Duration) time.Duration {
	if e.TimeoutMillis <= 0 {
		return serverMax
	}
	d := time.Duration(e.TimeoutMillis) * time.Millisecond
	if d > serverMax {
		return serverMax
	}
	return d
}

// EvaluateRequest is the POST /v1/evaluate body: one simulation in the
// config.Params shape (workload boundary conditions, machine, timing
// model, policies, runs, seed), equivalent to one velociti invocation.
type EvaluateRequest struct {
	config.Params
	execKnobs
}

// normalize fills every default explicitly, mirroring the velociti CLI's
// flag defaults (seed 1, chain length 16, ring, random policies, 35
// runs), so equivalent requests share one canonical form.
func (r EvaluateRequest) normalize() EvaluateRequest {
	def := config.Default()
	if r.ChainLength == 0 {
		r.ChainLength = def.ChainLength
	}
	if r.Topology == "" {
		r.Topology = def.Topology
	}
	if r.Latencies == (perf.Latencies{}) {
		r.Latencies = def.Latencies
	}
	if r.Placement == "" {
		r.Placement = def.Placement
	}
	if r.Placer == "" {
		r.Placer = def.Placer
	}
	if r.Runs == 0 {
		r.Runs = def.Runs
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	r.Backend, r.Shuttle = normalizeBackend(r.Backend, r.Shuttle)
	return r
}

// normalizeBackend canonicalizes a (backend name, shuttle params) pair: the
// empty name becomes the explicit weak-link default, and a shuttle
// selection with no configured costs gets shuttle.Default() spelled out.
// Backend participates in coalescing keys through the normalized request,
// so weak-link and shuttle requests can never share a flight, while
// implicit and explicit defaults always do. A shuttle block present under
// the weak-link backend is kept (it is still validated, and keeping it
// keys conservatively).
func normalizeBackend(name string, p *shuttle.Params) (string, *shuttle.Params) {
	if name == "" {
		name = perf.WeakLink{}.Name()
	}
	if name == "shuttle" && p == nil {
		def := shuttle.Default()
		p = &def
	}
	return name, p
}

// key is the canonical coalescing key: the normalized request minus the
// execution-only knobs, JSON-encoded (struct field order is fixed, so the
// encoding is canonical).
func (r EvaluateRequest) key() string {
	r.execKnobs = execKnobs{}
	return canonicalKey("evaluate", r)
}

// SweepRequest is the POST /v1/sweep body: a velociti-sweep grid. The
// workload selector fields (app / qv / ratio / qubits / qubit_range) and
// the grid lists mirror the CLI flags of the same names.
type SweepRequest struct {
	workload.Selector
	// ChainLengths, Alphas, and Placers span the grid; defaults mirror
	// the CLI flags: {16}, {2.0}, {"random"}.
	ChainLengths []int     `json:"chain_lengths,omitempty"`
	Alphas       []float64 `json:"alphas,omitempty"`
	Placers      []string  `json:"placers,omitempty"`
	// Topology is ring (default) or line.
	Topology string `json:"topology,omitempty"`
	// Backend names the timing backend shared by every cell: "weaklink"
	// (default) or "shuttle". Shuttle prices the transport primitives;
	// nil selects shuttle.Default().
	Backend string          `json:"backend,omitempty"`
	Shuttle *shuttle.Params `json:"shuttle,omitempty"`
	// Runs per cell (default 35) and the master seed (default 1).
	Runs int   `json:"runs,omitempty"`
	Seed int64 `json:"seed,omitempty"`
	// Stream evaluates every cell through the memory-bounded streaming
	// path (core.Grid.Stream); the CSV bytes are identical, so it keys
	// with the rest of the canonical form rather than as an exec knob —
	// a cell that cannot stream fails only under Stream.
	Stream bool `json:"stream,omitempty"`
	execKnobs
}

func (r SweepRequest) normalize() SweepRequest {
	if len(r.ChainLengths) == 0 {
		r.ChainLengths = []int{16}
	}
	if len(r.Alphas) == 0 {
		r.Alphas = []float64{2.0}
	}
	if len(r.Placers) == 0 {
		r.Placers = []string{"random"}
	}
	if r.Topology == "" {
		r.Topology = ti.Ring.String()
	}
	r.Backend, r.Shuttle = normalizeBackend(r.Backend, r.Shuttle)
	if r.Runs == 0 {
		r.Runs = core.DefaultRuns
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	return r
}

func (r SweepRequest) key() string {
	r.execKnobs = execKnobs{}
	return canonicalKey("sweep", r)
}

// grid lowers the request onto the shared sweep machinery — the same
// workload.Selector + core.Grid path the CLI runs, which is what makes
// the response body byte-identical to velociti-sweep's stdout.
func (r SweepRequest) grid(workers int, pipeline *core.Pipeline) (core.Grid, error) {
	specs, err := r.Selector.Specs()
	if err != nil {
		return core.Grid{}, err
	}
	topo, err := ti.ParseTopology(r.Topology)
	if err != nil {
		return core.Grid{}, err
	}
	backend, err := shuttle.Resolve(r.Backend, r.Shuttle)
	if err != nil {
		return core.Grid{}, err
	}
	return core.Grid{
		Specs:        specs,
		ChainLengths: r.ChainLengths,
		Alphas:       r.Alphas,
		Placers:      r.Placers,
		Topology:     topo,
		Runs:         r.Runs,
		Seed:         r.Seed,
		Workers:      workers,
		Pipeline:     pipeline,
		Backend:      backend,
		Stream:       r.Stream,
	}, nil
}

// ExploreRequest is the POST /v1/explore body: a design-space exploration
// (spec + grid knobs), answered with every point and the Pareto frontier
// as a dse.Response. The grid fields mirror dse.Options; the execution
// knobs live here so "workers" means the same thing on every endpoint.
type ExploreRequest struct {
	// Spec is the workload's boundary conditions.
	Spec circuit.Spec `json:"spec"`
	// ChainLengths, Alphas, and Placers define the grid; defaults are the
	// dse package's: 8/16/24/32, 2.0/1.5/1.0, random + load-balanced.
	ChainLengths []int     `json:"chain_lengths,omitempty"`
	Alphas       []float64 `json:"alphas,omitempty"`
	Placers      []string  `json:"placers,omitempty"`
	// Backends names the timing-backend axis ("weaklink", "shuttle");
	// empty selects {"weaklink"}. Shuttle prices the shuttle backend's
	// transport primitives; nil selects shuttle.Default().
	Backends []string        `json:"backends,omitempty"`
	Shuttle  *shuttle.Params `json:"shuttle,omitempty"`
	// Runs per configuration (default 10) and the master seed.
	Runs int   `json:"runs,omitempty"`
	Seed int64 `json:"seed,omitempty"`
	execKnobs
}

func (r ExploreRequest) normalize() ExploreRequest {
	if len(r.ChainLengths) == 0 {
		r.ChainLengths = []int{8, 16, 24, 32}
	}
	if len(r.Alphas) == 0 {
		r.Alphas = []float64{2.0, 1.5, 1.0}
	}
	if len(r.Placers) == 0 {
		r.Placers = []string{"random", "load-balanced"}
	}
	if len(r.Backends) == 0 {
		r.Backends = []string{perf.WeakLink{}.Name()}
	}
	for _, name := range r.Backends {
		if name == "shuttle" && r.Shuttle == nil {
			def := shuttle.Default()
			r.Shuttle = &def
			break
		}
	}
	if r.Runs == 0 {
		r.Runs = 10
	}
	return r
}

func (r ExploreRequest) key() string {
	r.execKnobs = execKnobs{}
	return canonicalKey("explore", r)
}

// options lowers the grid onto the explorer with the effective worker
// count and the shared pipeline.
func (r ExploreRequest) options(workers int, pipeline *core.Pipeline) dse.Options {
	return dse.Options{
		ChainLengths: r.ChainLengths,
		Alphas:       r.Alphas,
		Placers:      r.Placers,
		Backends:     r.Backends,
		Shuttle:      r.Shuttle,
		Runs:         r.Runs,
		Seed:         r.Seed,
		Workers:      workers,
		Pipeline:     pipeline,
	}
}

// canonicalKey renders endpoint-tagged canonical request JSON. Encoding a
// normalized fixed-shape struct cannot fail; a failure would be a schema
// bug, so it degrades to a non-coalescing unique-ish key rather than a
// panic.
func canonicalKey(endpoint string, req any) string {
	b, err := json.Marshal(req)
	if err != nil {
		return fmt.Sprintf("%s|unkeyed|%p", endpoint, req)
	}
	return endpoint + "|" + string(b)
}

// decodeRequest reads and strictly decodes a JSON request body into dst.
// Every failure is input-kind except the body-size cap, which keeps its
// *http.MaxBytesError type for the 413 mapping.
func decodeRequest(w http.ResponseWriter, r *http.Request, maxBytes int64, dst any) error {
	body := http.MaxBytesReader(w, r.Body, maxBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return err
		}
		return verr.Inputf("invalid request body: %w", err)
	}
	// A second document in the body is almost always a client bug
	// (concatenated requests); reject it rather than silently ignoring.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return verr.Inputf("invalid request body: trailing data after JSON document")
	}
	return nil
}
