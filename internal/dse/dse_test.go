package dse

import (
	"context"
	"strings"
	"testing"

	"velociti/internal/circuit"
	"velociti/internal/perf"
	"velociti/internal/placement"
	"velociti/internal/stats"
	"velociti/internal/verr"
)

func spec() circuit.Spec {
	return circuit.Spec{Name: "dse", Qubits: 64, TwoQubitGates: 300}
}

func explore(t *testing.T, opt Options) []Point {
	t.Helper()
	pts, err := Explore(spec(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

func TestExploreGridSize(t *testing.T) {
	pts := explore(t, Options{Runs: 3, Seed: 1})
	// Defaults: 4 chain lengths × 3 alphas × 2 placers.
	if len(pts) != 24 {
		t.Fatalf("points = %d, want 24", len(pts))
	}
	for _, p := range pts {
		if p.ParallelMicros <= 0 || p.LogFidelity >= 0 {
			t.Fatalf("implausible point %+v", p)
		}
	}
}

func TestExploreDeterministic(t *testing.T) {
	a := explore(t, Options{Runs: 3, Seed: 7})
	b := explore(t, Options{Runs: 3, Seed: 7})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("point %d differs across runs", i)
		}
	}
}

func TestExploreKnobDirections(t *testing.T) {
	pts := explore(t, Options{
		ChainLengths: []int{8, 32},
		Alphas:       []float64{2.0, 1.0},
		Placers:      []string{"random"},
		Runs:         8,
		Seed:         3,
	})
	byKey := map[[2]interface{}]Point{}
	for _, p := range pts {
		byKey[[2]interface{}{p.ChainLength, p.Alpha}] = p
	}
	// Longer chains: faster and higher fidelity at fixed α.
	if !(byKey[[2]interface{}{32, 2.0}].ParallelMicros < byKey[[2]interface{}{8, 2.0}].ParallelMicros) {
		t.Errorf("L=32 should beat L=8 on time")
	}
	if !(byKey[[2]interface{}{32, 2.0}].LogFidelity > byKey[[2]interface{}{8, 2.0}].LogFidelity) {
		t.Errorf("L=32 should beat L=8 on fidelity")
	}
	// Lower α: faster at fixed L (fidelity unchanged by α in the model).
	if !(byKey[[2]interface{}{32, 1.0}].ParallelMicros < byKey[[2]interface{}{32, 2.0}].ParallelMicros) {
		t.Errorf("α=1 should beat α=2 on time")
	}
}

// TestExploreAnnealedMatchesPerCell: the search-based placer takes the
// per-lane fallback inside plan groups, and its grouped results must equal
// the independent per-cell path bit for bit at any worker count.
func TestExploreAnnealedMatchesPerCell(t *testing.T) {
	opt := Options{
		ChainLengths: []int{8},
		Alphas:       []float64{2.0, 1.0},
		Placers:      []string{"random", "annealed"},
		Runs:         3,
		Seed:         7,
	}
	sp := spec()
	want, err := ExplorePerCell(context.Background(), sp, opt)
	if err != nil {
		t.Fatal(err)
	}
	hasAnnealed := false
	for _, p := range want {
		if p.Placer == "annealed" {
			hasAnnealed = true
		}
	}
	if !hasAnnealed {
		t.Fatal("grid dropped the annealed axis")
	}
	for _, workers := range []int{1, 4} {
		opt.Workers = workers
		got, err := Explore(sp, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d points, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d point %d: grouped %+v, per-cell %+v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestParetoIsNonDominated(t *testing.T) {
	pts := explore(t, Options{Runs: 4, Seed: 2})
	frontier := Pareto(pts)
	if len(frontier) == 0 || len(frontier) > len(pts) {
		t.Fatalf("frontier size = %d of %d", len(frontier), len(pts))
	}
	for i, p := range frontier {
		for _, q := range pts {
			if q.Dominates(p) {
				t.Fatalf("frontier point %d dominated: %v by %v", i, p, q)
			}
		}
	}
	// Sorted by time ascending.
	for i := 1; i < len(frontier); i++ {
		if frontier[i].ParallelMicros < frontier[i-1].ParallelMicros {
			t.Fatalf("frontier unsorted at %d", i)
		}
	}
	// Some point with the minimum parallel time is always on the frontier
	// (ties are broken by fidelity, so the specific tied point may be
	// dominated).
	minTime := pts[0].ParallelMicros
	for _, p := range pts {
		if p.ParallelMicros < minTime {
			minTime = p.ParallelMicros
		}
	}
	if frontier[0].ParallelMicros != minTime {
		t.Fatalf("frontier head %v does not achieve the minimum time %v", frontier[0], minTime)
	}
}

func TestDominates(t *testing.T) {
	a := Point{ParallelMicros: 100, LogFidelity: -5}
	b := Point{ParallelMicros: 200, LogFidelity: -10}
	c := Point{ParallelMicros: 50, LogFidelity: -20}
	if !a.Dominates(b) {
		t.Errorf("a should dominate b")
	}
	if a.Dominates(c) || c.Dominates(a) {
		t.Errorf("a and c are incomparable")
	}
	if a.Dominates(a) {
		t.Errorf("a point never dominates itself (no strict improvement)")
	}
}

func TestExploreValidation(t *testing.T) {
	if _, err := Explore(circuit.Spec{Qubits: 0}, Options{}); err == nil {
		t.Errorf("invalid spec should fail")
	}
	if _, err := Explore(spec(), Options{Placers: []string{"bogus"}}); err == nil {
		t.Errorf("unknown placer should fail")
	}
}

// TestExploreRejectsBadInput: a bad spec or placer name is an input-kind
// error, which velociti-serve answers with 400.
func TestExploreRejectsBadInput(t *testing.T) {
	_, err := Explore(circuit.Spec{Name: "bad", Qubits: -1}, Options{})
	if !verr.IsInput(err) {
		t.Fatalf("err = %v, want input-kind", err)
	}
	_, err = Explore(circuit.Spec{Name: "p", Qubits: 8, TwoQubitGates: 8}, Options{Placers: []string{"no-such-placer"}})
	if !verr.IsInput(err) {
		t.Fatalf("placer err = %v, want input-kind", err)
	}
}

func TestPointString(t *testing.T) {
	p := Point{ChainLength: 16, Alpha: 2, Placer: "random", ParallelMicros: 1234, LogFidelity: -3.2}
	s := p.String()
	if !strings.Contains(s, "L=16") || !strings.Contains(s, "random") {
		t.Fatalf("string = %q", s)
	}
}

// TestExploreMatchesLegacyTrialPath pins the stage-pipeline rewiring
// against the pre-pipeline per-trial computation, reimplemented inline:
// place randomly, synthesize with the cell's placer, estimate fidelity,
// count weak gates — all from one RNG stream per trial seed. Every grid
// point must agree exactly, and sharing one pipeline across worker counts
// must not change anything.
func TestExploreMatchesLegacyTrialPath(t *testing.T) {
	opt := Options{
		ChainLengths: []int{8, 16},
		Alphas:       []float64{2.0, 1.5, 1.0},
		Placers:      []string{"random", "load-balanced"},
		Runs:         4,
		Seed:         13,
	}.normalized()
	sp := spec()
	cells, err := opt.grid(sp)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Point, len(cells))
	for ci, cell := range cells {
		var parSum, logSum, weakSum float64
		for i := 0; i < opt.Runs; i++ {
			r := stats.NewRand(stats.SplitSeed(opt.Seed, i))
			layout, err := placement.Random{}.Place(cell.device, sp.Qubits, r)
			if err != nil {
				t.Fatal(err)
			}
			c, err := cell.placer.Place(sp, layout, r)
			if err != nil {
				t.Fatal(err)
			}
			est, err := opt.Fidelity.Estimate(c, layout, cell.lat)
			if err != nil {
				t.Fatal(err)
			}
			parSum += est.MakespanMicros
			logSum += est.LogTotal
			weakSum += float64(perf.WeakGates(c, layout))
		}
		n := float64(opt.Runs)
		want[ci] = Point{
			ChainLength:    cell.chainLength,
			Alpha:          cell.alpha,
			Placer:         cell.placerName,
			Backend:        cell.backendName,
			ParallelMicros: parSum / n,
			LogFidelity:    logSum / n,
			WeakGates:      weakSum / n,
		}
	}
	for _, workers := range []int{1, 4} {
		opt.Workers = workers
		got, err := Explore(sp, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d point %d: pipeline path %+v, legacy path %+v", workers, i, got[i], want[i])
			}
		}
	}
}
