package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"velociti/internal/circuit"
	"velociti/internal/perf"
	"velociti/internal/schedule"
	"velociti/internal/shuttle"
	"velociti/internal/verr"
)

func testGrid() Grid {
	return Grid{
		Specs:        []circuit.Spec{{Name: "g", Qubits: 12, OneQubitGates: 12, TwoQubitGates: 24}},
		ChainLengths: []int{4, 6},
		Alphas:       []float64{2.0, 1.0},
		Placers:      []string{"random"},
		Runs:         3,
		Seed:         7,
	}
}

// runCell is the one-cell reference RunGrid must reproduce: resolve the
// cell's placer under its α, then one RunContext.
func runCell(g Grid, c GridCell) (*Report, error) {
	lat := g.baseLatencies()
	lat.WeakPenalty = c.Alpha
	placer, err := schedule.ByName(c.Placer, lat)
	if err != nil {
		return nil, err
	}
	return Run(Config{
		Spec: c.Spec, ChainLength: c.ChainLength, Topology: g.Topology, Latencies: lat,
		Placer: placer, Runs: g.Runs, Seed: g.Seed, Backend: g.Backend, Stream: g.Stream,
	})
}

// TestRunGridCSVMatchesPerCellRuns is the per-cell oracle of the plan-lane
// trial loop: every cell's report deep-equals a one-cell Run of it,
// critical paths included, every skipped cell carries the one-cell Run's
// error text, and the CSV is the per-cell rendering the sweep CLI inlined
// before RunGrid existed. The grids mix every placer kind (batched,
// latency-steered, layout-searching, unknown), valid and invalid α (an
// invalid lane first, and NaN), an invalid chain length and one whose
// trials fail, both backends, and streaming, at one and four workers, with
// and without a shared Pipeline.
func TestRunGridCSVMatchesPerCellRuns(t *testing.T) {
	for _, backend := range []perf.TimingBackend{nil, shuttle.Backend{Params: shuttle.Default()}} {
		for _, stream := range []bool{false, true} {
			g := testGrid()
			g.ChainLengths = []int{4, 1, 0}
			g.Alphas = []float64{0.5, 2.0, math.NaN(), 1.0}
			g.Placers = []string{"random", "weak-avoiding", "load-balanced", "annealed", "no-such"}
			g.Backend, g.Stream = backend, stream
			name := fmt.Sprintf("backend=%v stream=%t", backend, stream)

			var want bytes.Buffer
			fmt.Fprintln(&want, CSVHeader)
			reports := make([]*Report, len(g.cells()))
			errs := make([]error, len(reports))
			for i, c := range g.cells() {
				reports[i], errs[i] = runCell(g, c)
				if errs[i] != nil {
					continue
				}
				rep := reports[i]
				fmt.Fprintf(&want, "%s,%d,%d,%d,%d,%d,%g,%s,%.3f,%.3f,%.3f,%.3f,%.3f,%.1f\n",
					c.Spec.Name, c.Spec.Qubits, c.Spec.TwoQubitGates,
					c.ChainLength, rep.Device.NumChains, rep.Device.MaxWeakLinks, c.Alpha, c.Placer,
					rep.Serial.Mean, rep.Parallel.Mean, rep.Parallel.Min, rep.Parallel.Max,
					rep.MeanSpeedup(), rep.WeakGates.Mean)
			}
			pl := NewPipeline()
			for _, workers := range []int{1, 4} {
				for _, shared := range []*Pipeline{nil, pl} {
					g.Workers, g.Pipeline = workers, shared
					res, err := RunGrid(context.Background(), g)
					if err != nil {
						t.Fatal(err)
					}
					run := fmt.Sprintf("%s workers=%d pipeline=%t", name, workers, shared != nil)
					skipped := 0
					for i, c := range res.Cells {
						var got error
						if res.Errs != nil {
							got = res.Errs[i]
						}
						if (got == nil) != (errs[i] == nil) || got != nil && got.Error() != errs[i].Error() {
							t.Fatalf("%s: cell %+v: error %v, one-cell Run error %v", run, c, got, errs[i])
						}
						if got != nil {
							skipped++
							continue
						}
						if !reflect.DeepEqual(res.Reports[i], reports[i]) {
							t.Fatalf("%s: cell %+v: report diverges from a one-cell Run", run, c)
						}
					}
					if skipped == 0 || skipped == len(res.Cells) {
						t.Fatalf("%s: %d of %d cells skipped; the grid should mix both", run, skipped, len(res.Cells))
					}
					var got bytes.Buffer
					if err := res.WriteCSV(&got); err != nil {
						t.Fatal(err)
					}
					if got.String() != want.String() {
						t.Errorf("%s: grid CSV diverges from per-cell runs:\ngot:\n%s\nwant:\n%s", run, got.String(), want.String())
					}
				}
			}
		}
	}
	res, err := RunGrid(context.Background(), testGrid())
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() != 0 || res.Err() != nil {
		t.Errorf("Failed() = %d, Err() = %v on an all-good grid", res.Failed(), res.Err())
	}
}

// One bad cell must degrade into one skipped row, not abort the sweep.
func TestRunGridCellIsolation(t *testing.T) {
	g := testGrid()
	g.Placers = []string{"random", "no-such-placer"}
	res, err := RunGrid(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(res.Cells) / 2; res.Failed() != want {
		t.Fatalf("Failed() = %d, want %d", res.Failed(), want)
	}
	if res.Err() != nil {
		t.Errorf("Err() = %v with surviving cells", res.Err())
	}
	skips := 0
	res.EachSkip(func(c GridCell, err error) {
		skips++
		if c.Placer != "no-such-placer" {
			t.Errorf("skip on cell %+v", c)
		}
		if !verr.IsInput(err) {
			t.Errorf("skip error not input-kind: %v", err)
		}
	})
	if skips != res.Failed() {
		t.Errorf("EachSkip visited %d cells, Failed() = %d", skips, res.Failed())
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(buf.String(), "\n") - 1; rows != len(res.Cells)-res.Failed() {
		t.Errorf("CSV rows = %d, want %d", rows, len(res.Cells)-res.Failed())
	}
}

func TestRunGridAllFailedAndEmpty(t *testing.T) {
	g := testGrid()
	g.Placers = []string{"no-such-placer"}
	res, err := RunGrid(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err == nil || !strings.Contains(err.Error(), "all 4 sweep configurations failed") {
		t.Errorf("Err() = %v, want all-failed diagnostic", err)
	}

	if _, err := RunGrid(context.Background(), Grid{}); !verr.IsInput(err) {
		t.Errorf("empty grid error = %v, want input-kind", err)
	}
}

// A shared pipeline must not change a single output byte.
func TestRunGridPipelineByteIdentical(t *testing.T) {
	g := testGrid()
	plain, err := RunGrid(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	g.Pipeline = NewPipeline()
	g.Workers = 4
	cached, err := RunGrid(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := plain.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := cached.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("pipeline/workers changed CSV bytes:\n%s\nvs\n%s", a.String(), b.String())
	}
}
