package serve

// Streaming knob over the HTTP surface: "stream": true must produce the
// same bytes as the materialized path on both report-bearing endpoints
// (the evaluate report drops only critical_path, which is omitempty; the
// sweep CSV never carried paths), must participate in the request's
// canonical form, and must reject unstreamable configurations with the
// typed 4xx envelope.

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

func TestEvaluateStreamMatchesMaterialized(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := `{"workload": {"name": "w", "qubits": 12, "one_qubit_gates": 6, "two_qubit_gates": 20}, "chain_length": 6, "runs": 3, "seed": 4}`
	resp, want := doJSON(t, ts, http.MethodPost, "/v1/evaluate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("materialized: status %d: %s", resp.StatusCode, want)
	}
	sbody := strings.TrimSuffix(strings.TrimSpace(body), "}") + `, "stream": true}`
	resp, got := doJSON(t, ts, http.MethodPost, "/v1/evaluate", sbody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streaming: status %d: %s", resp.StatusCode, got)
	}
	// critical_path is omitempty, and the weak-link model attaches no
	// paths to abstract-spec reports' JSON beyond per-trial results; the
	// two payloads must agree field for field once both are decoded.
	var wantAny, gotAny map[string]any
	if err := json.Unmarshal(want, &wantAny); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got, &gotAny); err != nil {
		t.Fatal(err)
	}
	stripCriticalPaths(wantAny)
	if len(wantAny) == 0 || len(gotAny) == 0 {
		t.Fatal("empty report payloads")
	}
	wb, _ := json.Marshal(wantAny)
	gb, _ := json.Marshal(gotAny)
	if string(wb) != string(gb) {
		t.Fatalf("streaming evaluate diverges\ngot  %s\nwant %s", gb, wb)
	}
}

// stripCriticalPaths removes critical_path entries from a decoded report.
func stripCriticalPaths(report map[string]any) {
	trials, _ := report["trials"].([]any)
	for _, tr := range trials {
		m, _ := tr.(map[string]any)
		if m == nil {
			continue
		}
		if p, _ := m["perf"].(map[string]any); p != nil {
			delete(p, "critical_path")
		}
	}
}

func TestSweepStreamMatchesMaterialized(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := `{"qubits": 16, "two_qubit_gates": 40, "chain_lengths": [8], "alphas": [1, 3], "runs": 2, "seed": 9}`
	resp, want := doJSON(t, ts, http.MethodPost, "/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("materialized: status %d: %s", resp.StatusCode, want)
	}
	sbody := strings.TrimSuffix(strings.TrimSpace(body), "}") + `, "stream": true}`
	resp, got := doJSON(t, ts, http.MethodPost, "/v1/sweep", sbody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streaming: status %d: %s", resp.StatusCode, got)
	}
	if string(got) != string(want) {
		t.Fatalf("streaming sweep CSV diverges\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestStreamKeysCanonicalForm(t *testing.T) {
	var plain, streaming EvaluateRequest
	if err := json.Unmarshal([]byte(validEvaluateBody), &plain); err != nil {
		t.Fatal(err)
	}
	streaming = plain
	streaming.Stream = true
	if plain.normalize().key() == streaming.normalize().key() {
		t.Fatal("stream does not participate in the evaluate coalescing key")
	}
	sp := SweepRequest{}
	sp.Qubits = 8
	st := sp
	st.Stream = true
	if sp.normalize().key() == st.normalize().key() {
		t.Fatal("stream does not participate in the sweep coalescing key")
	}
}

func TestEvaluateStreamRejectsUnstreamable(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := `{"workload": {"name": "w", "qubits": 8, "two_qubit_gates": 4}, "placer": "annealed", "runs": 1, "stream": true}`
	resp, b := doJSON(t, ts, http.MethodPost, "/v1/evaluate", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, b)
	}
	detail := readErrorBody(t, b)
	if !strings.Contains(detail.Message, "cannot stream") {
		t.Fatalf("error message %q does not explain the streaming rejection", detail.Message)
	}
}

// TestMetricsReportStreamCache pins the streaming stage's cache counters
// on /metrics: a "stream": true sweep must move cache.stream, the stage
// the snapshot once dropped.
func TestMetricsReportStreamCache(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := `{"qubits": 16, "two_qubit_gates": 40, "chain_lengths": [8], "runs": 2, "seed": 9, "stream": true}`
	for i := 0; i < 2; i++ {
		if resp, got := doJSON(t, ts, http.MethodPost, "/v1/sweep", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep %d: status %d: %s", i, resp.StatusCode, got)
		}
	}
	resp, raw := doJSON(t, ts, http.MethodGet, "/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d\n%s", resp.StatusCode, raw)
	}
	var snap struct {
		Cache struct {
			Stream struct {
				Hits   uint64 `json:"hits"`
				Misses uint64 `json:"misses"`
			} `json:"stream"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if st := snap.Cache.Stream; st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("cache.stream = %+v after a cold and a warm streamed sweep, want misses and hits\n%s", st, raw)
	}
}
