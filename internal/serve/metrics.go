package serve

// The metrics registry behind GET /metrics: per-endpoint request, error,
// coalescing, and latency counters (lock-free atomics on the request
// path), joined at snapshot time with the stage-cache counters the
// pipeline already keeps (internal/cache) and the worker pool's
// process-wide totals (internal/pool). Everything serializes from fixed
// structs — no map iteration anywhere near the output, per the repo's
// determinism contract.

import (
	"sync/atomic"
	"time"

	"velociti/internal/core"
	"velociti/internal/pool"
)

// endpointMetrics is the hot-path counter block of one endpoint.
type endpointMetrics struct {
	requests     atomic.Uint64
	coalesced    atomic.Uint64
	rejected     atomic.Uint64
	timeouts     atomic.Uint64
	clientErrors atomic.Uint64
	serverErrors atomic.Uint64
	writeErrors  atomic.Uint64

	latencyCount     atomic.Uint64
	latencyMicros    atomic.Uint64
	latencyMaxMicros atomic.Uint64
}

// observe records one finished request.
func (m *endpointMetrics) observe(status int, joined bool, d time.Duration) {
	m.requests.Add(1)
	if joined {
		m.coalesced.Add(1)
	}
	switch {
	case status == 429:
		m.rejected.Add(1)
	case status == 408:
		m.timeouts.Add(1)
	case status >= 500:
		m.serverErrors.Add(1)
	case status >= 400:
		m.clientErrors.Add(1)
	}
	us := uint64(d.Microseconds())
	m.latencyCount.Add(1)
	m.latencyMicros.Add(us)
	for {
		cur := m.latencyMaxMicros.Load()
		if us <= cur || m.latencyMaxMicros.CompareAndSwap(cur, us) {
			return
		}
	}
}

// EndpointStats is the serialized snapshot of one endpoint's counters.
type EndpointStats struct {
	// Requests counts every finished request, including coalesced and
	// rejected ones.
	Requests uint64 `json:"requests"`
	// Coalesced counts requests that shared another request's in-flight
	// computation.
	Coalesced uint64 `json:"coalesced"`
	// Rejected counts 429 admission rejections.
	Rejected uint64 `json:"rejected"`
	// Timeouts counts 408 deadline expirations.
	Timeouts uint64 `json:"timeouts"`
	// ClientErrors counts other 4xx responses; ServerErrors counts 5xx.
	ClientErrors uint64 `json:"client_errors"`
	ServerErrors uint64 `json:"server_errors"`
	// WriteErrors counts response bodies the client connection failed to
	// accept (the work was already done; nothing to retry server-side).
	WriteErrors uint64 `json:"write_errors"`
	// Latency counters: completed observations, their sum, and the max.
	LatencyCount     uint64 `json:"latency_count"`
	LatencyMicros    uint64 `json:"latency_micros_total"`
	LatencyMaxMicros uint64 `json:"latency_max_micros"`
}

func (m *endpointMetrics) snapshot() EndpointStats {
	return EndpointStats{
		Requests:         m.requests.Load(),
		Coalesced:        m.coalesced.Load(),
		Rejected:         m.rejected.Load(),
		Timeouts:         m.timeouts.Load(),
		ClientErrors:     m.clientErrors.Load(),
		ServerErrors:     m.serverErrors.Load(),
		WriteErrors:      m.writeErrors.Load(),
		LatencyCount:     m.latencyCount.Load(),
		LatencyMicros:    m.latencyMicros.Load(),
		LatencyMaxMicros: m.latencyMaxMicros.Load(),
	}
}

// EndpointsSnapshot lists every request endpoint by name.
type EndpointsSnapshot struct {
	Evaluate EndpointStats `json:"evaluate"`
	Sweep    EndpointStats `json:"sweep"`
	Explore  EndpointStats `json:"explore"`
}

// Snapshot is the GET /metrics payload.
type Snapshot struct {
	// UptimeSeconds since the server was constructed.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// InFlight and Queued are admission gauges: evaluations holding a
	// slot, and leaders waiting in the bounded queue.
	InFlight int   `json:"in_flight"`
	Queued   int64 `json:"queued"`
	// Endpoints holds the per-endpoint counters.
	Endpoints EndpointsSnapshot `json:"endpoints"`
	// Cache is the cross-request stage-artifact cache (hit/miss/eviction
	// counters from internal/cache), one entry per pipeline stage.
	Cache core.StageStats `json:"cache"`
	// Pool is the worker pool's process-wide batch/job/panic totals.
	Pool pool.Counters `json:"pool"`
}

// metrics groups the per-endpoint blocks with the server's start time.
type metrics struct {
	started  time.Time
	evaluate endpointMetrics
	sweep    endpointMetrics
	explore  endpointMetrics
}

// snapshot assembles the full /metrics payload.
func (r *metrics) snapshot(pl *core.Pipeline, adm *admission) Snapshot {
	return Snapshot{
		UptimeSeconds: time.Since(r.started).Seconds(),
		InFlight:      adm.inFlight(),
		Queued:        adm.waiting(),
		Endpoints: EndpointsSnapshot{
			Evaluate: r.evaluate.snapshot(),
			Sweep:    r.sweep.snapshot(),
			Explore:  r.explore.snapshot(),
		},
		Cache: pl.Stats(),
		Pool:  pool.Stats(),
	}
}
