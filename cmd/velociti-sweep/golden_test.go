package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden file under testdata/golden")

// doneLine is the wall-clock line main prints last; the golden masks it.
var doneLine = regexp.MustCompile(`(?m)^velociti-sweep: done in \S+$`)

// TestSweepGolden pins what velociti-sweep prints, byte for byte: the CSV on
// stdout and the skip diagnostics on stderr, with the closing wall-clock line
// masked. The grids cover a Table II application and a quantum-volume range,
// two chain lengths, a valid and an invalid α, every kind of placer (batched,
// latency-steered, layout-searching, unknown) and both backends, with and
// without -stream. Regenerate with
//
//	go test ./cmd/velociti-sweep -run TestSweepGolden -update
func TestSweepGolden(t *testing.T) {
	workloads := [][]string{
		{"-app", "QFT"},
		{"-qv", "-qubit-range", "8:48:20"},
	}
	var got bytes.Buffer
	for _, w := range workloads {
		for _, backend := range []string{"weaklink", "shuttle"} {
			for _, stream := range []bool{false, true} {
				args := append(append([]string{}, w...),
					"-chain-lengths", "8,16", "-alphas", "2.0,1.0,0.5",
					"-placers", "random,load-balanced,annealed,no-such",
					"-backend", backend, "-runs", "2", "-seed", "3")
				if stream {
					args = append(args, "-stream")
				}
				code, stdout, stderr := execMainOutput(t, args...)
				fmt.Fprintf(&got, "== velociti-sweep %s (exit %d)\n%s-- stderr\n%s",
					strings.Join(args, " "), code, stdout, doneLine.ReplaceAllString(stderr, "velociti-sweep: done in <masked>"))
			}
		}
	}
	path := filepath.Join("testdata", "golden", "sweep.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("velociti-sweep output differs from %s:\ngot:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}

// execMainOutput runs main in a child process, like execMain, and returns
// its exit code, stdout and stderr.
func execMainOutput(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"VELOCITI_CLI_EXIT_TEST=1",
		"VELOCITI_CLI_EXIT_ARGS="+strings.Join(args, "\x1f"))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := 0
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("re-exec failed: %v", err)
		}
		code = ee.ExitCode()
	}
	return code, stdout.String(), stderr.String()
}
