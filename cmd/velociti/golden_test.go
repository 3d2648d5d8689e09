package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// TestInspectionGolden pins the inspection outputs of one trial — stdout
// with -verbose and -gantt, the -dot graph, and the -timeline-json
// schedule — byte for byte, for the paper's Figure 3 circuit (placed as
// in the figure: q0–q3 on chain 0, q4–q6 on chain 1) and for the
// gate-level Bernstein–Vazirani app of Table II. Regenerate with
//
//	go test ./cmd/velociti -run TestInspectionGolden -update
func TestInspectionGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"fig3", []string{"-circuit", filepath.Join("testdata", "golden", "fig3.json"),
			"-chain-length", "4", "-topology", "line", "-placement", "sequential", "-runs", "2"}},
		{"bv", []string{"-app", "BV", "-app-gates", "-runs", "2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			dot := filepath.Join(dir, "graph.dot")
			tl := filepath.Join(dir, "timeline.json")
			args := append(append([]string(nil), tc.args...),
				"-verbose", "-gantt", "-dot", dot, "-timeline-json", tl)
			var out bytes.Buffer
			if err := run(args, &out); err != nil {
				t.Fatal(err)
			}
			stdout := strings.ReplaceAll(out.String(), dir, "$DIR")
			got := map[string][]byte{
				tc.name + ".stdout":        []byte(stdout),
				tc.name + ".dot":           readFile(t, dot),
				tc.name + ".timeline.json": readFile(t, tl),
			}
			for name, data := range got {
				path := filepath.Join("testdata", "golden", name)
				if *update {
					if err := os.WriteFile(path, data, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want := readFile(t, path)
				if !bytes.Equal(data, want) {
					t.Errorf("%s differs from %s (%d vs %d bytes)", name, path, len(data), len(want))
				}
			}
		})
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
