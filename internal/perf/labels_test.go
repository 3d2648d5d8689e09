package perf_test

import (
	"reflect"
	"sync"
	"testing"

	"velociti/internal/circuit"
	"velociti/internal/perf"
	"velociti/internal/placement"
	"velociti/internal/stats"
	"velociti/internal/ti"
	"velociti/internal/workload"
)

// labelFixture is two different circuits over one 24-qubit layout, so a
// recycled evaluator that kept its first circuit's labels would be caught.
func labelFixture(t *testing.T) (a, b *circuit.Circuit, l *ti.Layout) {
	t.Helper()
	a = genc(t)(workload.RandomCircuit(24, 300, 0.3, 1))
	b = genc(t)(workload.RandomCircuit(24, 240, 0.5, 2))
	d, err := ti.DeviceFor(24, 6, ti.Ring)
	if err != nil {
		t.Fatal(err)
	}
	l, err = placement.Random{}.Place(d, 24, stats.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	return a, b, l
}

// checkPathLabels asserts that e labels its circuit exactly as the circuit
// does, and that a binding's critical path equals the reference's.
func checkPathLabels(t *testing.T, tag string, bd *perf.Binding, l *ti.Layout) {
	t.Helper()
	e := bd.Evaluator()
	if got, want := e.Labels(), e.Circuit().Labels(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Evaluator.Labels differs from Circuit.Labels", tag)
	}
	lat := perf.DefaultLatencies()
	got, err := bd.Time(lat)
	if err != nil {
		t.Fatal(err)
	}
	want, err := perf.Evaluate(e.Circuit(), l, lat)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.CriticalPath, want.CriticalPath) {
		t.Fatalf("%s: critical path %v, want %v", tag, got.CriticalPath, want.CriticalPath)
	}
}

func TestEvaluatorLabelsMatchCircuit(t *testing.T) {
	a, _, l := labelFixture(t)
	e := perf.NewEvaluator(a)
	bd, err := e.Bind(l)
	if err != nil {
		t.Fatal(err)
	}
	checkPathLabels(t, "fresh", bd, l)
	// Time first, Labels after: the memo serves both in either order.
	bd, err = perf.NewEvaluator(a).Bind(l)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bd.Time(perf.DefaultLatencies()); err != nil {
		t.Fatal(err)
	}
	if got, want := bd.Evaluator().Labels(), a.Labels(); !reflect.DeepEqual(got, want) {
		t.Fatal("Labels after Time differs from Circuit.Labels")
	}
	empty := circuit.New("empty", 4)
	if got := perf.NewEvaluator(empty).Labels(); len(got) != 0 {
		t.Fatalf("empty circuit labels = %v", got)
	}
}

// TestRecycledEvaluatorRelabels moves a pooled evaluator between two
// circuits the way the explorer's batched trials do —
// NewEvaluatorScratch(c).Bind(l), then RecycleEvaluator(b.Evaluator()) —
// and checks that each reuse labels the circuit it was rebuilt for.
// sync.Pool may drop an item, so the round trip repeats until a reuse is
// seen.
func TestRecycledEvaluatorRelabels(t *testing.T) {
	a, b, l := labelFixture(t)
	circuits := []*circuit.Circuit{a, b}
	reused := false
	for i := 0; i < 16; i++ {
		prev, err := perf.NewEvaluatorScratch(circuits[i%2]).Bind(l)
		if err != nil {
			t.Fatal(err)
		}
		checkPathLabels(t, "before recycle", prev, l)
		perf.RecycleEvaluator(prev.Evaluator())
		next, err := perf.NewEvaluatorScratch(circuits[(i+1)%2]).Bind(l)
		if err != nil {
			t.Fatal(err)
		}
		reused = reused || next.Evaluator() == prev.Evaluator()
		checkPathLabels(t, "after recycle", next, l)
		perf.RecycleEvaluator(next.Evaluator())
	}
	if !reused {
		t.Fatal("no evaluator was reused")
	}
}

// TestConcurrentFirstTimeLabels races the first Time calls on one fresh,
// shared binding: the label memo is built once, and every goroutine gets
// the same critical path. Run under -race.
func TestConcurrentFirstTimeLabels(t *testing.T) {
	a, _, l := labelFixture(t)
	bd, err := perf.NewEvaluator(a).Bind(l)
	if err != nil {
		t.Fatal(err)
	}
	lat := perf.DefaultLatencies()
	want, err := perf.Evaluate(a, l, lat)
	if err != nil {
		t.Fatal(err)
	}
	paths := make([][]string, 8)
	var wg sync.WaitGroup
	for i := range paths {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if res, err := bd.Time(lat); err == nil {
				paths[i] = res.CriticalPath
			}
		}(i)
	}
	wg.Wait()
	for i, p := range paths {
		if !reflect.DeepEqual(p, want.CriticalPath) {
			t.Fatalf("goroutine %d: critical path %v, want %v", i, p, want.CriticalPath)
		}
	}
}
