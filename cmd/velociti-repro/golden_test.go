package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// TestReproGolden pins the whole reproduction at two runs per data point —
// stdout, every CSV and every SVG — byte for byte, and the -cache-stats
// counter lines on stderr with their durations masked. Figure 5 records
// host wall time, so its timing rows and scaling line are masked in stdout
// and its CSV and SVG are skipped. Regenerate with
//
//	go test ./cmd/velociti-repro -run TestReproGolden -update
func TestReproGolden(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	if err := run(context.Background(), []string{"-runs", "2", "-cache-stats",
		"-csv", filepath.Join(dir, "csv"), "-svg", filepath.Join(dir, "svg")}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	got := map[string][]byte{
		"stdout.txt": []byte(maskFig5(strings.ReplaceAll(out.String(), dir, "$DIR"))),
		"stderr.txt": clockRE.ReplaceAll(errOut.Bytes(), []byte("$1 in <wall time>")),
	}
	for _, sub := range []string{"csv", "svg"} {
		entries, err := os.ReadDir(filepath.Join(dir, sub))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), "fig5.") {
				continue
			}
			got[e.Name()] = readFile(t, filepath.Join(dir, sub, e.Name()))
		}
	}
	golden := filepath.Join("testdata", "golden")
	if *update {
		if err := os.MkdirAll(golden, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, data := range got {
		path := filepath.Join(golden, name)
		if *update {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if want := readFile(t, path); !bytes.Equal(data, want) {
			t.Errorf("%s differs from %s (%d vs %d bytes)", name, path, len(data), len(want))
		}
	}
	entries, err := os.ReadDir(golden)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, ok := got[e.Name()]; !ok {
			t.Errorf("%s has no counterpart in this run's output", filepath.Join(golden, e.Name()))
		}
	}
}

// clockRE matches the duration of a per-experiment clock line.
var clockRE = regexp.MustCompile(`(?m)^(velociti-repro: \S+) in \S+`)

// maskFig5 replaces the wall times in Figure 5's table — the mean sim time
// column of each row and the scaling line beneath it — with a marker.
func maskFig5(stdout string) string {
	lines := strings.Split(stdout, "\n")
	in := false
	for i, line := range lines {
		switch {
		case strings.HasPrefix(line, "Figure 5:"):
			in = true
		case !in:
		case strings.HasPrefix(line, "scaling factor"):
			lines[i], in = "scaling factor: <wall time>", false
		default:
			if f := strings.Fields(line); len(f) == 3 && f[0] != "Qubits" && !strings.HasPrefix(f[0], "-") {
				lines[i] = f[0] + "  " + f[1] + "  <wall time>"
			}
		}
	}
	return strings.Join(lines, "\n")
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
