// Package serve is velociti's long-lived sweep service: a stdlib net/http
// layer exposing the evaluate / sweep / explore pipelines as JSON-in
// endpoints, built for many clients asking overlapping questions.
//
// Three mechanisms make one process serve a design-space workload that
// would otherwise be N independent CLI runs:
//
//   - a shared cross-request artifact cache (one core.Pipeline for the
//     whole process, content-keyed by internal/cache fingerprints), so a
//     trial bound for one request — layout, circuit and gate classes,
//     cached together as its Binding — is free for every later request
//     that agrees on the inputs;
//   - single-flight coalescing (coalesce.go): concurrent identical plans
//     cost one synthesis and receive bit-identical bodies;
//   - bounded admission with backpressure (admission.go): a fixed number
//     of evaluation slots plus a small queue, 429 + Retry-After beyond.
//
// The service inherits the repo's determinism contract and adds one of
// its own: a response body is byte-identical to the corresponding CLI
// run's output for the same request (velociti -json for /v1/evaluate,
// velociti-sweep's stdout for /v1/sweep) — guaranteed by lowering onto
// the same request-shaped entry points the CLIs run (core.RunGrid,
// workload.Selector), never by a second rendering implementation.
//
// Every user-provoked failure is a typed JSON error derived from the
// verr input-kind contract: 400 for bad requests, 408 for deadlines, 413
// for oversized bodies, 429 for saturation; 5xx is reserved for actual
// framework bugs.
package serve

import (
	"context"
	"net/http"
	"time"

	"velociti/internal/core"
	"velociti/internal/pool"
)

// Options configures a Server. The zero value is usable: every field has
// a production default.
type Options struct {
	// MaxInFlight bounds concurrently executing evaluations (flight
	// leaders; coalesced joiners don't count). Zero selects GOMAXPROCS.
	MaxInFlight int
	// MaxQueue bounds leaders waiting for a slot; arrivals beyond it get
	// 429 immediately. Zero selects 2×MaxInFlight; negative means no
	// queue (reject the moment all slots are busy).
	MaxQueue int
	// RequestTimeout is the per-request evaluation deadline and the cap
	// for request-supplied timeout_ms. Zero selects 60s.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies (413 beyond). Zero selects 1 MiB.
	MaxBodyBytes int64
	// CacheCapacity bounds each stage cache of the shared pipeline; zero
	// selects core.DefaultStageCapacity, negative disables the bound.
	CacheCapacity int
	// Workers is the default per-evaluation trial parallelism when a
	// request doesn't carry its own; zero selects GOMAXPROCS. Results
	// are bit-identical at any value.
	Workers int
	// RetryAfter is the backoff hint attached to 429 responses, rounded
	// up to whole seconds. Zero selects 1s.
	RetryAfter time.Duration
}

func (o Options) normalized() Options {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = pool.Workers(0)
	}
	switch {
	case o.MaxQueue == 0:
		o.MaxQueue = 2 * o.MaxInFlight
	case o.MaxQueue < 0:
		o.MaxQueue = 0
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 60 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.CacheCapacity == 0 {
		o.CacheCapacity = core.DefaultStageCapacity
	}
	if o.Workers <= 0 {
		o.Workers = pool.Workers(0)
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	return o
}

// retryAfterSeconds renders the Retry-After hint, rounding up so a
// sub-second hint never becomes "Retry-After: 0".
func (o Options) retryAfterSeconds() int {
	s := int((o.RetryAfter + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// Server wires the endpoints to the shared pipeline, coalescer,
// admission gate, and metrics. Construct with New; a Server is safe for
// concurrent use by the http layer.
type Server struct {
	opt      Options
	pipeline *core.Pipeline
	adm      *admission
	flights  *coalescer
	metrics  *metrics
	mux      *http.ServeMux

	// baseCtx owns every flight's lifetime: flights are shared property,
	// so they are cancelled by server teardown (Close), never by one
	// joiner's disconnect.
	baseCtx context.Context
	stop    context.CancelFunc

	// hookComputeStarted, when non-nil, is called on the leader's
	// goroutine as its flight begins computing — a test seam for the
	// coalescing stress tests.
	hookComputeStarted func(key string)
}

// New returns a ready-to-serve Server.
func New(opt Options) *Server {
	opt = opt.normalized()
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		opt:      opt,
		pipeline: core.NewPipelineCapacity(opt.CacheCapacity),
		adm:      newAdmission(opt.MaxInFlight, opt.MaxQueue),
		flights:  newCoalescer(),
		metrics:  &metrics{started: time.Now()},
		mux:      http.NewServeMux(),
		baseCtx:  ctx,
		stop:     stop,
	}
	s.mux.HandleFunc("/v1/evaluate", s.handleEvaluate)
	s.mux.HandleFunc("/v1/sweep", s.handleSweep)
	s.mux.HandleFunc("/v1/explore", s.handleExplore)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// Handler returns the server's routing handler, for http.Server or
// httptest wiring.
func (s *Server) Handler() http.Handler { return s.mux }

// Pipeline exposes the shared artifact store (tests assert cross-request
// cache sharing through it).
func (s *Server) Pipeline() *core.Pipeline { return s.pipeline }

// MetricsSnapshot returns the current /metrics payload.
func (s *Server) MetricsSnapshot() Snapshot {
	return s.metrics.snapshot(s.pipeline, s.adm)
}

// Close cancels every in-flight evaluation. Call it after the http layer
// has drained (http.Server.Shutdown) so graceful shutdown lets in-flight
// work finish; calling earlier turns the drain into an abort.
func (s *Server) Close() { s.stop() }

// workers resolves a request's effective trial parallelism.
func (s *Server) workers(reqWorkers int) int {
	if reqWorkers > 0 {
		return reqWorkers
	}
	return s.opt.Workers
}
