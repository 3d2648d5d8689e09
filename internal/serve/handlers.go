package serve

// Endpoint handlers. Each POST handler has the same spine: strict decode,
// normalize, derive the canonical coalescing key, then hand a compute
// closure to serveRequest, which owns coalescing, admission, deadlines,
// metrics, and the write. Compute closures return a fully rendered
// *response so coalesced joiners share exact bytes, not re-rendered
// values.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"velociti/internal/core"
	"velociti/internal/dse"
	"velociti/internal/verr"
)

// response is a fully rendered endpoint answer: what gets shared across a
// coalesced flight.
type response struct {
	status        int
	contentType   string
	retryAfterSec int // > 0 attaches Retry-After (429)
	skippedCells  int // > 0 attaches X-Velociti-Skipped-Cells (sweep)
	body          []byte
}

// errorBody is the JSON error envelope of every non-2xx answer.
type errorBody struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	// Kind classifies the failure: "input" (the request is at fault),
	// "timeout" (the deadline fired), "overloaded" (admission rejected),
	// or "internal" (a framework bug).
	Kind string `json:"kind"`
	// Message is the human-readable diagnostic.
	Message string `json:"message"`
}

// jsonError renders a typed error response.
func jsonError(status int, kind, message string) *response {
	b, err := json.Marshal(errorBody{Error: errorDetail{Kind: kind, Message: message}})
	if err != nil {
		// Marshalling two plain strings cannot fail; keep a literal
		// fallback rather than a panic path.
		b = []byte(`{"error":{"kind":"internal","message":"error encoding failed"}}`)
	}
	return &response{status: status, contentType: "application/json", body: append(b, '\n')}
}

func errorResponseInternal(message string) *response {
	return jsonError(http.StatusInternalServerError, "internal", message)
}

// errorResponse maps an error onto the typed envelope, applying the
// verr input-kind contract: input errors are the client's 4xx, deadline
// and saturation get their dedicated statuses, everything else is a 500.
func (s *Server) errorResponse(err error) *response {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return jsonError(http.StatusRequestEntityTooLarge, "input",
			fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
	case errors.Is(err, errSaturated):
		r := jsonError(http.StatusTooManyRequests, "overloaded", err.Error())
		r.retryAfterSec = s.opt.retryAfterSeconds()
		return r
	case errors.Is(err, context.DeadlineExceeded):
		return jsonError(http.StatusRequestTimeout, "timeout",
			"evaluation deadline exceeded; retry with a smaller request or a larger timeout_ms")
	case errors.Is(err, context.Canceled):
		return jsonError(http.StatusServiceUnavailable, "internal", "server is shutting down")
	case verr.IsInput(err):
		return jsonError(http.StatusBadRequest, "input", err.Error())
	default:
		return errorResponseInternal(err.Error())
	}
}

// serveRequest runs one coalescable endpoint request end to end.
func (s *Server) serveRequest(w http.ResponseWriter, r *http.Request, m *endpointMetrics,
	key string, timeout time.Duration, compute func(ctx context.Context) *response) {
	start := time.Now()
	// The wait context bounds THIS caller: its deadline 408s the caller
	// without touching a shared flight.
	waitCtx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	resp, joined, err := s.flights.do(waitCtx, key, func() *response {
		if s.hookComputeStarted != nil {
			s.hookComputeStarted(key)
		}
		// The flight context is owned by the server: a joiner's (or even
		// the leader's) disconnect must not cancel work other callers
		// are waiting on.
		fctx, fcancel := context.WithTimeout(s.baseCtx, timeout)
		defer fcancel()
		release, err := s.adm.acquire(fctx)
		if err != nil {
			return s.errorResponse(err)
		}
		defer release()
		return compute(fctx)
	})
	if err != nil {
		resp = s.errorResponse(err)
	}
	s.write(w, m, resp, joined, start)
}

// write emits the response and records it.
func (s *Server) write(w http.ResponseWriter, m *endpointMetrics, resp *response, joined bool, start time.Time) {
	h := w.Header()
	h.Set("Content-Type", resp.contentType)
	h.Set("Content-Length", strconv.Itoa(len(resp.body)))
	if resp.retryAfterSec > 0 {
		h.Set("Retry-After", strconv.Itoa(resp.retryAfterSec))
	}
	if resp.skippedCells > 0 {
		h.Set("X-Velociti-Skipped-Cells", strconv.Itoa(resp.skippedCells))
	}
	w.WriteHeader(resp.status)
	if _, err := w.Write(resp.body); err != nil {
		m.writeErrors.Add(1)
	}
	m.observe(resp.status, joined, time.Since(start))
}

// requirePOST answers non-POST methods with the typed 405.
func (s *Server) requirePOST(w http.ResponseWriter, r *http.Request, m *endpointMetrics) bool {
	if r.Method == http.MethodPost {
		return true
	}
	start := time.Now()
	w.Header().Set("Allow", http.MethodPost)
	s.write(w, m, jsonError(http.StatusMethodNotAllowed, "input",
		fmt.Sprintf("method %s not allowed; POST a JSON request", r.Method)), false, start)
	return false
}

// handleEvaluate answers POST /v1/evaluate: one simulation, body
// byte-identical to `velociti -json` for the same parameters.
func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	m := &s.metrics.evaluate
	if !s.requirePOST(w, r, m) {
		return
	}
	var req EvaluateRequest
	if err := decodeRequest(w, r, s.opt.MaxBodyBytes, &req); err != nil {
		s.write(w, m, s.errorResponse(err), false, time.Now())
		return
	}
	req = req.normalize()
	workers := s.workers(req.execKnobs.Workers)
	s.serveRequest(w, r, m, req.key(), req.timeout(s.opt.RequestTimeout), func(ctx context.Context) *response {
		cfg, err := req.Params.ToCoreConfig()
		if err != nil {
			return s.errorResponse(err)
		}
		cfg.Workers = workers
		cfg.Pipeline = s.pipeline
		report, err := core.RunContext(ctx, cfg)
		if err != nil {
			return s.errorResponse(err)
		}
		body, err := encodeIndentedJSON(report)
		if err != nil {
			return s.errorResponse(err)
		}
		return &response{status: http.StatusOK, contentType: "application/json", body: body}
	})
}

// handleSweep answers POST /v1/sweep: a grid rendered as the CLI's CSV,
// byte-identical to velociti-sweep's stdout for the same request. Failed
// cells degrade into skipped rows (count in X-Velociti-Skipped-Cells),
// exactly as the CLI degrades them into stderr diagnostics.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	m := &s.metrics.sweep
	if !s.requirePOST(w, r, m) {
		return
	}
	var req SweepRequest
	if err := decodeRequest(w, r, s.opt.MaxBodyBytes, &req); err != nil {
		s.write(w, m, s.errorResponse(err), false, time.Now())
		return
	}
	req = req.normalize()
	workers := s.workers(req.execKnobs.Workers)
	s.serveRequest(w, r, m, req.key(), req.timeout(s.opt.RequestTimeout), func(ctx context.Context) *response {
		grid, err := req.grid(workers, s.pipeline)
		if err != nil {
			return s.errorResponse(err)
		}
		res, err := core.RunGrid(ctx, grid)
		if err != nil {
			return s.errorResponse(err)
		}
		// RunGrid degrades cancelled cells into skips; a sweep cut short by
		// the deadline must be a 408, never a silently partial 200.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return s.errorResponse(ctxErr)
		}
		if err := res.Err(); err != nil {
			// Every cell failed: surface the first failure (usually
			// input-kind — bad placer, impossible device) instead of an
			// empty CSV.
			return s.errorResponse(err)
		}
		var buf bytes.Buffer
		if err := res.WriteCSV(&buf); err != nil {
			return s.errorResponse(err)
		}
		return &response{
			status:       http.StatusOK,
			contentType:  "text/csv; charset=utf-8",
			skippedCells: res.Failed(),
			body:         buf.Bytes(),
		}
	})
}

// handleExplore answers POST /v1/explore: the full grid plus its Pareto
// frontier as indented JSON.
func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	m := &s.metrics.explore
	if !s.requirePOST(w, r, m) {
		return
	}
	var req ExploreRequest
	if err := decodeRequest(w, r, s.opt.MaxBodyBytes, &req); err != nil {
		s.write(w, m, s.errorResponse(err), false, time.Now())
		return
	}
	req = req.normalize()
	workers := s.workers(req.execKnobs.Workers)
	s.serveRequest(w, r, m, req.key(), req.timeout(s.opt.RequestTimeout), func(ctx context.Context) *response {
		points, err := dse.ExploreContext(ctx, req.Spec, req.options(workers, s.pipeline))
		if err != nil {
			return s.errorResponse(err)
		}
		body, err := encodeIndentedJSON(dse.Response{Points: points, Pareto: dse.Pareto(points)})
		if err != nil {
			return s.errorResponse(err)
		}
		return &response{status: http.StatusOK, contentType: "application/json", body: body}
	})
}

// handleMetrics answers GET /metrics with the counter snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		resp := jsonError(http.StatusMethodNotAllowed, "input", "GET /metrics")
		s.writeBare(w, resp)
		return
	}
	body, err := encodeIndentedJSON(s.MetricsSnapshot())
	if err != nil {
		s.writeBare(w, errorResponseInternal(err.Error()))
		return
	}
	s.writeBare(w, &response{status: http.StatusOK, contentType: "application/json", body: body})
}

// handleHealthz answers GET /healthz; 200 means the process accepts
// requests (readiness is the listener's job — see cmd/velociti-serve).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeBare(w, &response{status: http.StatusOK, contentType: "text/plain; charset=utf-8", body: []byte("ok\n")})
}

// writeBare writes a response without per-endpoint metrics (the
// observability endpoints don't observe themselves).
func (s *Server) writeBare(w http.ResponseWriter, resp *response) {
	h := w.Header()
	h.Set("Content-Type", resp.contentType)
	h.Set("Content-Length", strconv.Itoa(len(resp.body)))
	w.WriteHeader(resp.status)
	_, _ = w.Write(resp.body) //vet:allow errcheck-lite -- nothing to do when an observability response fails mid-write
}

// encodeIndentedJSON renders v exactly as the CLIs do: two-space indent
// plus a trailing newline (json.Encoder.Encode semantics) — the encoding
// the byte-identity guarantee is stated against.
func encodeIndentedJSON(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
