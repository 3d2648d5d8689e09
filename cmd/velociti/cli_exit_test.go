package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain turns this test binary into the real CLI when the re-exec
// marker is set: the exit-status tests below exec os.Args[0] with the
// marker, so they observe main()'s true exit code and stderr rather
// than a simulation of them.
func TestMain(m *testing.M) {
	if os.Getenv("VELOCITI_CLI_EXIT_TEST") == "1" {
		args := []string{os.Args[0]}
		if raw := os.Getenv("VELOCITI_CLI_EXIT_ARGS"); raw != "" {
			args = append(args, strings.Split(raw, "\x1f")...)
		}
		os.Args = args
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// execMain re-runs this test binary as the CLI with the given arguments,
// returning the exit code and captured stderr.
func execMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"VELOCITI_CLI_EXIT_TEST=1",
		"VELOCITI_CLI_EXIT_ARGS="+strings.Join(args, "\x1f"))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	cmd.Stdout = io.Discard
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("re-exec failed: %v", err)
		}
		code = ee.ExitCode()
	}
	return code, stderr.String()
}

// checkDiagnostic asserts the errors-not-panics CLI contract: exit
// status 1, a single prefixed stderr line, and no stack trace.
func checkDiagnostic(t *testing.T, code int, stderr, prefix, substr string) {
	t.Helper()
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %q)", code, stderr)
	}
	if strings.Contains(stderr, "goroutine ") || strings.Contains(stderr, "panic:") {
		t.Fatalf("stderr contains a stack trace:\n%s", stderr)
	}
	line := strings.TrimSuffix(stderr, "\n")
	if line == "" || strings.Contains(line, "\n") {
		t.Errorf("stderr should be exactly one diagnostic line, got %q", stderr)
	}
	if !strings.HasPrefix(line, prefix) {
		t.Errorf("stderr = %q, want prefix %q", line, prefix)
	}
	if !strings.Contains(line, substr) {
		t.Errorf("stderr = %q, want it to mention %q", line, substr)
	}
}

func TestMalformedInputExitStatus(t *testing.T) {
	dir := t.TempDir()
	badQASM := filepath.Join(dir, "bad.qasm")
	if err := os.WriteFile(badQASM, []byte("OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[9];\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A parameter expression nested far past the parser's bound: it must
	// be one invalid-input line, not a stack overflow.
	deepQASM := filepath.Join(dir, "deep.qasm")
	deep := "OPENQASM 2.0;\nqreg q[1];\nrx(" + strings.Repeat("(", 100000) + "1" + strings.Repeat(")", 100000) + ") q[0];\n"
	if err := os.WriteFile(deepQASM, []byte(deep), 0o644); err != nil {
		t.Fatal(err)
	}
	// Nested doubling definitions asking for 2^30 gates: rejected by the
	// expansion budget before any gate is built.
	doublingQASM := filepath.Join(dir, "doubling.qasm")
	doubling := "OPENQASM 2.0;\nqreg q[1];\ngate g1 a { h a; h a; }\n"
	for i := 2; i <= 30; i++ {
		doubling += fmt.Sprintf("gate g%d a { g%d a; g%d a; }\n", i, i-1, i-1)
	}
	doubling += "g30 q[0];\n"
	if err := os.WriteFile(doublingQASM, []byte(doubling), 0o644); err != nil {
		t.Fatal(err)
	}
	badJSON := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badJSON, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		args   []string
		substr string
	}{
		{"no workload", nil, "no workload"},
		{"conflicting app and qubits", []string{"-app", "QFT", "-qubits", "32"}, "conflicting workload flags -app and -qubits"},
		{"unknown app", []string{"-app", "Nope"}, "unknown application"},
		{"gate counts without qubits", []string{"-two-qubit-gates", "50"}, "-qubits"},
		{"bad topology", []string{"-qubits", "8", "-two-qubit-gates", "4", "-topology", "torus"}, "topology"},
		{"missing circuit file", []string{"-circuit", filepath.Join(dir, "nope.json")}, "no such file"},
		{"malformed circuit json", []string{"-circuit", badJSON}, "config"},
		{"qasm out-of-range qubit", []string{"-qasm", badQASM}, "qasm"},
		{"qasm deep expression", []string{"-qasm", deepQASM}, "parameter expression longer than"},
		{"qasm expansion budget", []string{"-qasm", doublingQASM}, `line 33: gate "g30" would expand the program past`},
		{"gantt under shuttle", []string{"-app", "QFT", "-runs", "1", "-backend", "shuttle", "-gantt"}, "drop -backend shuttle"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stderr := execMain(t, tc.args...)
			checkDiagnostic(t, code, stderr, "velociti:", tc.substr)
		})
	}
}
