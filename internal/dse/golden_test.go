package dse

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"velociti/internal/circuit"
	"velociti/internal/core"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// renderPoints writes one line per point with every float in its shortest
// round-tripping form, so equal text means equal bits.
func renderPoints(pts []Point) []byte {
	var buf bytes.Buffer
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, p := range pts {
		fmt.Fprintf(&buf, "L=%d alpha=%s placer=%s backend=%s parallel_us=%s log_fidelity=%s weak_gates=%s\n",
			p.ChainLength, f(p.Alpha), p.Placer, p.Backend, f(p.ParallelMicros), f(p.LogFidelity), f(p.WeakGates))
	}
	return buf.Bytes()
}

// TestExploreGolden pins the explorer's points byte for byte over both
// timing backends and every built-in placer, annealed included: the
// grouped explorer with and without a Pipeline, serially and on four
// workers, and the per-cell reference must all render the committed file.
// Regenerate with
//
//	go test ./internal/dse -run TestExploreGolden -update
func TestExploreGolden(t *testing.T) {
	sp := circuit.Spec{Name: "golden", Qubits: 40, OneQubitGates: 60, TwoQubitGates: 180}
	opt := Options{
		ChainLengths: []int{8, 16},
		Alphas:       []float64{2.0, 1.5, 1.0},
		Placers:      []string{"random", "weak-avoiding", "edge-constrained", "load-balanced", "annealed"},
		Backends:     []string{"weaklink", "shuttle"},
		Runs:         3,
		Seed:         17,
	}
	plain, err := Explore(sp, opt)
	if err != nil {
		t.Fatal(err)
	}
	got := renderPoints(plain)
	path := filepath.Join("testdata", "golden", "explore.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		name string
		pts  []Point
	}
	runs := []run{{"Explore", plain}}
	for _, workers := range []int{1, 4} {
		for _, pl := range []*core.Pipeline{nil, core.NewPipeline()} {
			o := opt
			o.Workers, o.Pipeline = workers, pl
			pts, err := Explore(sp, o)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, run{fmt.Sprintf("Explore workers=%d pipeline=%t", workers, pl != nil), pts})
		}
	}
	perCell, err := ExplorePerCell(context.Background(), sp, opt)
	if err != nil {
		t.Fatal(err)
	}
	runs = append(runs, run{"ExplorePerCell", perCell})
	for _, r := range runs {
		if data := renderPoints(r.pts); !bytes.Equal(data, want) {
			t.Errorf("%s differs from %s:\ngot:\n%s\nwant:\n%s", r.name, path, data, want)
		}
	}
}
