package serve

// CLI-equivalence golden tests: a service response body must be
// byte-identical to what the corresponding CLI writes for the same
// request. Expected bytes are produced the way the CLIs produce them —
// config.Params -> core.RunContext -> indented JSON for velociti -json,
// workload.Selector -> core.RunGrid -> WriteCSV for velociti-sweep — with
// a fresh pipeline, so the comparison also pins that the server's shared
// cache never changes a byte. The end-to-end variant against the real
// compiled binaries lives in e2e/.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"velociti/internal/circuit"
	"velociti/internal/config"
	"velociti/internal/core"
	"velociti/internal/dse"
	"velociti/internal/shuttle"
	"velociti/internal/ti"
	"velociti/internal/workload"
)

func TestEvaluateMatchesCLIBytes(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := `{"workload": {"name": "eq", "qubits": 12, "one_qubit_gates": 6, "two_qubit_gates": 8}, "seed": 7, "runs": 5}`
	resp, got := doJSON(t, ts, http.MethodPost, "/v1/evaluate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate = %d\n%s", resp.StatusCode, got)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}

	// The velociti CLI path: flag defaults -> Params -> core.RunContext ->
	// json.Encoder with two-space indent.
	p := config.Default()
	p.Workload = circuit.Spec{Name: "eq", Qubits: 12, OneQubitGates: 6, TwoQubitGates: 8}
	p.Seed = 7
	p.Runs = 5
	cfg, err := p.ToCoreConfig()
	if err != nil {
		t.Fatalf("ToCoreConfig: %v", err)
	}
	report, err := core.RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("response differs from CLI bytes:\n got: %s\nwant: %s", got, want.Bytes())
	}
}

func TestSweepMatchesCLIBytes(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := `{"qv": true, "qubit_range": "8:48:20", "chain_lengths": [8, 16], "alphas": [2.0, 1.0],
		"placers": ["random", "load-balanced"], "runs": 4, "seed": 3}`
	resp, got := doJSON(t, ts, http.MethodPost, "/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep = %d\n%s", resp.StatusCode, got)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}

	// The velociti-sweep CLI path: Selector -> RunGrid -> WriteCSV, on a
	// fresh pipeline (byte-identity must not depend on cache state).
	sel := workload.Selector{QV: true, QubitRange: "8:48:20"}
	specs, err := sel.Specs()
	if err != nil {
		t.Fatalf("Specs: %v", err)
	}
	res, err := core.RunGrid(context.Background(), core.Grid{
		Specs:        specs,
		ChainLengths: []int{8, 16},
		Alphas:       []float64{2.0, 1.0},
		Placers:      []string{"random", "load-balanced"},
		Topology:     ti.Ring,
		Runs:         4,
		Seed:         3,
		Workers:      1,
		Pipeline:     core.NewPipeline(),
	})
	if err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	var want bytes.Buffer
	if err := res.WriteCSV(&want); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("response differs from CLI bytes:\n got: %s\nwant: %s", got, want.Bytes())
	}
}

// TestExploreMatchesRequestRunBytes: a /v1/explore body is byte-identical
// to running the request's grid as a library call, ExploreContext then
// Pareto, encoded as a dse.Response.
func TestExploreMatchesRequestRunBytes(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := `{"spec": {"name": "eq", "qubits": 10, "two_qubit_gates": 5}, "chain_lengths": [8, 16],
		"alphas": [2.0, 1.0], "runs": 3, "seed": 2}`
	resp, got := doJSON(t, ts, http.MethodPost, "/v1/explore", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explore = %d\n%s", resp.StatusCode, got)
	}

	points, err := dse.ExploreContext(context.Background(), circuit.Spec{Name: "eq", Qubits: 10, TwoQubitGates: 5}, dse.Options{
		ChainLengths: []int{8, 16},
		Alphas:       []float64{2.0, 1.0},
		Placers:      []string{"random", "load-balanced"},
		Runs:         3,
		Seed:         2,
		Workers:      1,
	})
	if err != nil {
		t.Fatalf("ExploreContext: %v", err)
	}
	want, err := json.MarshalIndent(dse.Response{Points: points, Pareto: dse.Pareto(points)}, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	want = append(want, '\n')
	if !bytes.Equal(got, want) {
		t.Errorf("response differs from ExploreContext + Pareto bytes:\n got: %s\nwant: %s", got, want)
	}
}

// TestSweepShuttleMatchesCLIBytes is the shuttle-backend variant of the
// sweep golden test: a sweep with "backend": "shuttle" must be
// byte-identical to velociti-sweep -backend shuttle, i.e. RunGrid with the
// shuttle backend on a fresh pipeline.
func TestSweepShuttleMatchesCLIBytes(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body := `{"qubits": 24, "two_qubit_gates": 60, "chain_lengths": [8, 12], "alphas": [2.0, 1.0],
		"backend": "shuttle", "runs": 4, "seed": 9}`
	resp, got := doJSON(t, ts, http.MethodPost, "/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep = %d\n%s", resp.StatusCode, got)
	}

	sel := workload.Selector{Qubits: 24, TwoQubitGates: 60}
	specs, err := sel.Specs()
	if err != nil {
		t.Fatalf("Specs: %v", err)
	}
	res, err := core.RunGrid(context.Background(), core.Grid{
		Specs:        specs,
		ChainLengths: []int{8, 12},
		Alphas:       []float64{2.0, 1.0},
		Placers:      []string{"random"},
		Topology:     ti.Ring,
		Runs:         4,
		Seed:         9,
		Workers:      1,
		Pipeline:     core.NewPipeline(),
		Backend:      shuttle.Backend{Params: shuttle.Default()},
	})
	if err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	var want bytes.Buffer
	if err := res.WriteCSV(&want); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("response differs from CLI bytes:\n got: %s\nwant: %s", got, want.Bytes())
	}

	// And the backend must matter: the weak-link body for the same grid
	// differs.
	respW, gotW := doJSON(t, ts, http.MethodPost, "/v1/sweep",
		`{"qubits": 24, "two_qubit_gates": 60, "chain_lengths": [8, 12], "alphas": [2.0, 1.0], "runs": 4, "seed": 9}`)
	if respW.StatusCode != http.StatusOK {
		t.Fatalf("weak-link sweep = %d", respW.StatusCode)
	}
	if bytes.Equal(got, gotW) {
		t.Errorf("shuttle and weak-link sweeps returned identical bytes")
	}
}

// TestBackendCoalescingKeys pins the flight-sharing rules for the backend
// axis: implicit and explicit weak-link defaults share a key, shuttle with
// implicit and explicit default costs share a key, weak-link and shuttle
// never do, and altered shuttle costs key separately from the default.
func TestBackendCoalescingKeys(t *testing.T) {
	sweepKey := func(t *testing.T, body string) string {
		t.Helper()
		var r SweepRequest
		if err := json.Unmarshal([]byte(body), &r); err != nil {
			t.Fatal(err)
		}
		return r.normalize().key()
	}
	base := `{"qubits": 16, "two_qubit_gates": 8, "runs": 3, "seed": 5`
	weakImplicit := sweepKey(t, base+`}`)
	weakExplicit := sweepKey(t, base+`, "backend": "weaklink"}`)
	shuttleImplicit := sweepKey(t, base+`, "backend": "shuttle"}`)
	shuttleExplicit := sweepKey(t, base+`, "backend": "shuttle",
		"shuttle": {"split_us": 80, "move_per_hop_us": 10, "merge_us": 80, "recool_us": 100}}`)
	shuttleAltered := sweepKey(t, base+`, "backend": "shuttle", "shuttle": {"split_us": 1}}`)
	if weakImplicit != weakExplicit {
		t.Errorf("implicit and explicit weak-link requests should share a flight")
	}
	if shuttleImplicit != shuttleExplicit {
		t.Errorf("implicit and explicit default shuttle costs should share a flight")
	}
	if weakImplicit == shuttleImplicit {
		t.Errorf("weak-link and shuttle requests must never share a flight")
	}
	if shuttleImplicit == shuttleAltered {
		t.Errorf("altered shuttle costs must key separately from the default")
	}

	// Same rules through the evaluate and explore schemas.
	var e1, e2 EvaluateRequest
	if err := json.Unmarshal([]byte(`{"workload": {"qubits": 8, "two_qubit_gates": 4}}`), &e1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(`{"workload": {"qubits": 8, "two_qubit_gates": 4}, "backend": "shuttle"}`), &e2); err != nil {
		t.Fatal(err)
	}
	if e1.normalize().key() == e2.normalize().key() {
		t.Errorf("evaluate: weak-link and shuttle requests must never share a flight")
	}
	var x1, x2 ExploreRequest
	if err := json.Unmarshal([]byte(`{"spec": {"qubits": 8, "two_qubit_gates": 4}}`), &x1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(`{"spec": {"qubits": 8, "two_qubit_gates": 4}, "backends": ["weaklink", "shuttle"]}`), &x2); err != nil {
		t.Fatal(err)
	}
	if x1.normalize().key() == x2.normalize().key() {
		t.Errorf("explore: backend axes must key separately")
	}
}

// TestPlacerCoalescingKeys: requests that differ only in their placer
// selection — including the search-based "annealed" — must never share a
// flight, on every endpoint whose schema carries a placer axis.
func TestPlacerCoalescingKeys(t *testing.T) {
	placers := []string{"random", "weak-avoiding", "load-balanced", "edge-constrained", "annealed"}

	evalKeys := map[string]string{}
	sweepKeys := map[string]string{}
	exploreKeys := map[string]string{}
	for _, name := range placers {
		var e EvaluateRequest
		body := `{"workload": {"qubits": 8, "two_qubit_gates": 4}, "placer": "` + name + `"}`
		if err := json.Unmarshal([]byte(body), &e); err != nil {
			t.Fatal(err)
		}
		evalKeys[name] = e.normalize().key()

		var s SweepRequest
		body = `{"qubits": 16, "two_qubit_gates": 8, "placers": ["` + name + `"]}`
		if err := json.Unmarshal([]byte(body), &s); err != nil {
			t.Fatal(err)
		}
		sweepKeys[name] = s.normalize().key()

		var x ExploreRequest
		body = `{"spec": {"qubits": 8, "two_qubit_gates": 4}, "placers": ["` + name + `"]}`
		if err := json.Unmarshal([]byte(body), &x); err != nil {
			t.Fatal(err)
		}
		exploreKeys[name] = x.normalize().key()
	}
	for endpoint, keys := range map[string]map[string]string{
		"evaluate": evalKeys, "sweep": sweepKeys, "explore": exploreKeys,
	} {
		seen := map[string]string{}
		for name, k := range keys {
			if prev, dup := seen[k]; dup {
				t.Errorf("%s: placers %q and %q share a flight (key %q)", endpoint, prev, name, k)
			}
			seen[k] = name
		}
	}
	// The default placer and an explicit "random" are the same request and
	// must coalesce.
	var implicit EvaluateRequest
	if err := json.Unmarshal([]byte(`{"workload": {"qubits": 8, "two_qubit_gates": 4}}`), &implicit); err != nil {
		t.Fatal(err)
	}
	if implicit.normalize().key() != evalKeys["random"] {
		t.Errorf("evaluate: implicit default and explicit random placer should share a flight")
	}
}

// TestWorkerKnobNeverChangesBytes pins the execution-knob contract: the
// same plan at different worker counts returns identical bodies (and
// coalesces under the same key).
func TestWorkerKnobNeverChangesBytes(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	base := `{"qubits": 16, "two_qubit_gates": 8, "runs": 3, "seed": 5`
	resp1, b1 := doJSON(t, ts, http.MethodPost, "/v1/sweep", base+`}`)
	resp2, b2 := doJSON(t, ts, http.MethodPost, "/v1/sweep", base+`, "workers": 4}`)
	if resp1.StatusCode != http.StatusOK || resp2.StatusCode != http.StatusOK {
		t.Fatalf("sweeps = %d, %d", resp1.StatusCode, resp2.StatusCode)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("worker count changed response bytes")
	}

	var r1, r2 SweepRequest
	if err := json.Unmarshal([]byte(base+`}`), &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(base+`, "workers": 4}`), &r2); err != nil {
		t.Fatal(err)
	}
	if r1.normalize().key() != r2.normalize().key() {
		t.Errorf("worker count changed the coalescing key")
	}
}
