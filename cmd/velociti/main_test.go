package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"velociti/internal/core"
	"velociti/internal/fidelity"
	"velociti/internal/verr"
)

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return buf.String()
}

func runCLIErr(t *testing.T, args ...string) error {
	t.Helper()
	var buf bytes.Buffer
	return run(args, &buf)
}

func TestAbstractWorkload(t *testing.T) {
	out := runCLI(t, "-qubits", "32", "-two-qubit-gates", "100", "-chain-length", "8", "-runs", "3")
	for _, want := range []string{"32 qubits", "4 chains of 8 ions", "speedup:", "weak-link gates"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestAppWorkloadQFTAnchor(t *testing.T) {
	out := runCLI(t, "-app", "QFT", "-runs", "3")
	// The paper's exact serial time for QFT on 16-ion chains.
	if !strings.Contains(out, "serial:   403.600 ms") {
		t.Errorf("QFT serial should be 403.600 ms:\n%s", out)
	}
}

func TestAppGateLevelMode(t *testing.T) {
	out := runCLI(t, "-app", "BV", "-app-gates", "-runs", "2")
	if !strings.Contains(out, "bv64") {
		t.Errorf("gate-level BV workload expected:\n%s", out)
	}
}

func TestJSONOutput(t *testing.T) {
	out := runCLI(t, "-qubits", "16", "-two-qubit-gates", "20", "-chain-length", "8", "-runs", "2", "-json")
	var rep core.Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if len(rep.Trials) != 2 || rep.Device.NumChains != 2 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestVerboseAndDot(t *testing.T) {
	dot := filepath.Join(t.TempDir(), "g.dot")
	out := runCLI(t, "-qubits", "8", "-two-qubit-gates", "10", "-chain-length", "4",
		"-runs", "2", "-verbose", "-dot", dot)
	if !strings.Contains(out, "critical path") || !strings.Contains(out, "chain 0:") {
		t.Errorf("verbose detail missing:\n%s", out)
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "digraph") {
		t.Errorf("dot file malformed: %s", data)
	}
}

func TestConfigRoundTripViaFlags(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "params.json")
	runCLI(t, "-qubits", "16", "-two-qubit-gates", "30", "-chain-length", "8",
		"-runs", "2", "-save-config", cfgPath)
	out := runCLI(t, "-config", cfgPath)
	if !strings.Contains(out, "16 qubits") {
		t.Errorf("config-driven run wrong:\n%s", out)
	}
}

func TestQASMWorkload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.qasm")
	src := "OPENQASM 2.0;\nqreg q[4];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\ncx q[2],q[3];\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runCLI(t, "-qasm", path, "-chain-length", "2", "-runs", "2")
	if !strings.Contains(out, "4 qubits") || !strings.Contains(out, "3 2q gates") {
		t.Errorf("qasm workload wrong:\n%s", out)
	}
}

func TestCircuitJSONWorkload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.json")
	body := `{"name":"j","qubits":4,"gates":[{"kind":"cx","qubits":[0,1]},{"kind":"cx","qubits":[2,3]}]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runCLI(t, "-circuit", path, "-chain-length", "4", "-runs", "2")
	if !strings.Contains(out, "2 2q gates") {
		t.Errorf("json circuit workload wrong:\n%s", out)
	}
}

func TestErrorCases(t *testing.T) {
	cases := [][]string{
		{},                          // no workload
		{"-app", "Shor"},            // unknown app
		{"-qubits", "8"},            // fine actually? zero gates is valid
		{"-qasm", "/nonexistent.q"}, // missing file
		{"-qubits", "8", "-two-qubit-gates", "4", "-alpha", "0.5"},    // bad alpha
		{"-qubits", "8", "-two-qubit-gates", "4", "-topology", "hex"}, // bad topology
		{"-qubits", "8", "-two-qubit-gates", "4", "-placer", "x"},     // bad placer
		{"-config", "/nonexistent.json"},
	}
	for i, args := range cases {
		if i == 2 {
			// Zero gates is a legal degenerate workload.
			if err := runCLIErr(t, args...); err != nil {
				t.Errorf("case %d (%v): unexpected error %v", i, args, err)
			}
			continue
		}
		if err := runCLIErr(t, args...); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

func TestAlphaAffectsParallelTime(t *testing.T) {
	hi := runCLI(t, "-qubits", "64", "-two-qubit-gates", "128", "-chain-length", "16", "-runs", "5", "-json")
	lo := runCLI(t, "-qubits", "64", "-two-qubit-gates", "128", "-chain-length", "16", "-runs", "5", "-alpha", "1.0", "-json")
	var repHi, repLo core.Report
	if err := json.Unmarshal([]byte(hi), &repHi); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lo), &repLo); err != nil {
		t.Fatal(err)
	}
	if repLo.Parallel.Mean >= repHi.Parallel.Mean {
		t.Errorf("α=1 parallel %v should beat α=2 %v", repLo.Parallel.Mean, repHi.Parallel.Mean)
	}
}

func TestGanttFidelityShuttleFlags(t *testing.T) {
	out := runCLI(t, "-app", "BV", "-runs", "2", "-gantt", "-fidelity", "-shuttle", "-workers", "3")
	for _, want := range []string{"gantt:", "chain  0", "fidelity", "expected errors", "break-even"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTimelineJSONFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tl.json")
	out := runCLI(t, "-qubits", "8", "-two-qubit-gates", "12", "-chain-length", "4",
		"-runs", "2", "-timeline-json", path)
	if !strings.Contains(out, "wrote timeline") {
		t.Fatalf("missing confirmation:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tl struct {
		Intervals []struct {
			Label string `json:"label"`
		} `json:"intervals"`
		Makespan float64 `json:"makespan_us"`
	}
	if err := json.Unmarshal(data, &tl); err != nil {
		t.Fatalf("timeline json invalid: %v", err)
	}
	if len(tl.Intervals) != 12 || tl.Makespan <= 0 {
		t.Fatalf("timeline content wrong: %d intervals, makespan %v", len(tl.Intervals), tl.Makespan)
	}
}

func TestBackendFlagShuttle(t *testing.T) {
	base := []string{"-qubits", "16", "-two-qubit-gates", "20", "-chain-length", "8", "-runs", "2", "-json"}
	var weak, shut core.Report
	if err := json.Unmarshal([]byte(runCLI(t, base...)), &weak); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(runCLI(t, append([]string{"-backend", "shuttle"}, base...)...)), &shut); err != nil {
		t.Fatal(err)
	}
	if weak.Parallel.Mean == shut.Parallel.Mean {
		t.Fatalf("shuttle backend should change the parallel time, both %v", weak.Parallel.Mean)
	}
	if weak.WeakGates.Mean != shut.WeakGates.Mean {
		t.Fatalf("weak-gate counts are timing-independent")
	}
	if err := runCLIErr(t, append([]string{"-backend", "bogus"}, base...)...); err == nil {
		t.Fatalf("unknown backend should error")
	}
}

// TestFidelityFollowsBackend: -fidelity dephases every qubit over trial
// 0's makespan under the selected backend, so under -backend shuttle the
// coherence term follows the transport makespan, not the weak-link one.
func TestFidelityFollowsBackend(t *testing.T) {
	t2 := fidelity.Default().T2Micros
	coherence := map[string]string{}
	for _, backend := range []string{"weaklink", "shuttle"} {
		args := []string{"-app", "QFT", "-runs", "3", "-backend", backend}
		var rep core.Report
		if err := json.Unmarshal([]byte(runCLI(t, append(args, "-json")...)), &rep); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("coherence %.3g;", math.Exp(-float64(rep.Spec.Qubits)*rep.Trials[0].Perf.ParallelMicros/t2))
		if out := runCLI(t, append(args, "-fidelity")...); !strings.Contains(out, want) {
			t.Errorf("%s: fidelity line lacks %q:\n%s", backend, want, out)
		}
		coherence[backend] = want
	}
	if coherence["weaklink"] == coherence["shuttle"] {
		t.Errorf("both backends dephase alike: %s", coherence["shuttle"])
	}
}

// TestScheduleViewsRejectShuttle: -dot, -gantt and -timeline-json draw the
// weak-link schedule and graph, so under the shuttle backend, selected by
// flag or by a config file, they are an input error, as under -stream.
func TestScheduleViewsRejectShuttle(t *testing.T) {
	dir := t.TempDir()
	cfg := filepath.Join(dir, "shuttle.json")
	runCLI(t, "-qubits", "16", "-two-qubit-gates", "20", "-chain-length", "8", "-runs", "2",
		"-backend", "shuttle", "-save-config", cfg)
	views := [][]string{{"-dot", filepath.Join(dir, "g.dot")}, {"-gantt"}, {"-timeline-json", filepath.Join(dir, "tl.json")}}
	for _, view := range views {
		for _, args := range [][]string{
			append([]string{"-qubits", "16", "-two-qubit-gates", "20", "-chain-length", "8", "-runs", "2", "-backend", "shuttle"}, view...),
			append([]string{"-config", cfg}, view...),
		} {
			if err := runCLIErr(t, args...); err == nil || !verr.IsInput(err) {
				t.Errorf("%v: err = %v, want an input error", args, err)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "g.dot")); err == nil {
		t.Error("a rejected -dot still wrote its file")
	}
}
