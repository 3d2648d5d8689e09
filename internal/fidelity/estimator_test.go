package fidelity

import (
	"strings"
	"testing"

	"velociti/internal/circuit"
	"velociti/internal/perf"
	"velociti/internal/schedule"
	"velociti/internal/stats"
)

// estBinding synthesizes a representative mixed circuit and binds it, so the
// estimator tests exercise every gate class (1q, 2q, weak).
func estBinding(t *testing.T, seed int64) *perf.Binding {
	t.Helper()
	l := layout(t, 32, 8)
	s := circuit.Spec{Name: "est", Qubits: 32, OneQubitGates: 40, TwoQubitGates: 160}
	c, err := schedule.Random{}.Place(s, l, stats.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	b, err := perf.NewEvaluator(c).Bind(l)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func sameEstimate(t *testing.T, label string, got, want Estimate) {
	t.Helper()
	if got != want {
		t.Fatalf("%s:\n got %+v\nwant %+v", label, got, want)
	}
}

// TestEstimateAllMatchesEstimateBinding pins the batched estimator's
// bit-exactness contract: lane j of EstimateAll equals the per-α
// EstimateBinding field for field, including at lane count 1.
func TestEstimateAllMatchesEstimateBinding(t *testing.T) {
	b := estBinding(t, 5)
	m := Default()
	e, err := NewEstimator(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, alphas := range [][]float64{{2.0}, {3.0, 2.0, 1.5, 1.2, 1.0}} {
		lats := make([]perf.Latencies, len(alphas))
		for j, a := range alphas {
			lats[j] = perf.DefaultLatencies()
			lats[j].WeakPenalty = a
		}
		ests, err := e.EstimateAll(b, lats)
		if err != nil {
			t.Fatal(err)
		}
		if len(ests) != len(lats) {
			t.Fatalf("%d estimates, want %d", len(ests), len(lats))
		}
		for j, lat := range lats {
			want, err := m.EstimateBinding(b, lat)
			if err != nil {
				t.Fatal(err)
			}
			sameEstimate(t, "EstimateAll lane", ests[j], want)
		}
	}
}

// TestEstimateAllPricesTransportMakespan: on a binding the shuttle
// backend prepared, the dephasing window is the transport model's makespan
// — lane j of EstimateAll, and EstimateBinding, read TimeAll(lats)[j]'s
// ParallelMicros bit for bit, not the weak-link model's.
func TestEstimateAllPricesTransportMakespan(t *testing.T) {
	weak := estBinding(t, 7)
	b, err := perf.NewEvaluator(weak.Evaluator().Circuit()).Bind(weak.Layout())
	if err != nil {
		t.Fatal(err)
	}
	costs := perf.TransportCosts{SplitMicros: 12.3, MovePerHopMicros: 7.7, MergeMicros: 45.6, RecoolMicros: 33.1}
	if err := b.AttachTransport(b.Layout(), costs); err != nil {
		t.Fatal(err)
	}
	lats := make([]perf.Latencies, 3)
	for j := range lats {
		lats[j] = perf.DefaultLatencies()
		lats[j].WeakPenalty = 2.0 - 0.5*float64(j)
		lats[j].TwoQubit = 100 + 10*float64(j)
	}
	res, err := b.TimeAll(lats)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEstimator(Default())
	if err != nil {
		t.Fatal(err)
	}
	ests, err := e.EstimateAll(b, lats)
	if err != nil {
		t.Fatal(err)
	}
	for j, lat := range lats {
		if ests[j].MakespanMicros != res[j].ParallelMicros {
			t.Fatalf("lane %d: EstimateAll window %v, transport makespan %v", j, ests[j].MakespanMicros, res[j].ParallelMicros)
		}
		if weak.ParallelTime(lat) == res[j].ParallelMicros {
			t.Fatalf("lane %d: transport and weak-link makespans coincide (%v); the check cannot tell them apart", j, res[j].ParallelMicros)
		}
		one, err := Default().EstimateBinding(b, lat)
		if err != nil {
			t.Fatal(err)
		}
		sameEstimate(t, "EstimateBinding under transport", one, ests[j])
	}
}

// TestEstimatorReuse verifies the estimator's internal buffers are reusable:
// a second call with different lane counts still matches the reference.
func TestEstimatorReuse(t *testing.T) {
	b := estBinding(t, 9)
	e, err := NewEstimator(Default())
	if err != nil {
		t.Fatal(err)
	}
	wide := make([]perf.Latencies, 4)
	for j := range wide {
		wide[j] = perf.DefaultLatencies()
		wide[j].WeakPenalty = 1.0 + float64(j)
	}
	if _, err := e.EstimateAll(b, wide); err != nil {
		t.Fatal(err)
	}
	narrow := wide[:2]
	ests, err := e.EstimateAll(b, narrow)
	if err != nil {
		t.Fatal(err)
	}
	for j, lat := range narrow {
		want, err := Default().EstimateBinding(b, lat)
		if err != nil {
			t.Fatal(err)
		}
		sameEstimate(t, "after reuse", ests[j], want)
	}
}

func TestEstimatorValidation(t *testing.T) {
	if _, err := NewEstimator(Model{T2Micros: 0}); err == nil {
		t.Fatal("want error for invalid model")
	}
	b := estBinding(t, 1)
	e, err := NewEstimator(Default())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EstimateAll(b, nil); err == nil || !strings.Contains(err.Error(), "at least one") {
		t.Fatalf("empty lats: %v", err)
	}
	bad := []perf.Latencies{perf.DefaultLatencies()}
	bad[0].OneQubit = -1
	if _, err := e.EstimateAll(b, bad); err == nil {
		t.Fatal("want error for invalid lane latencies")
	}
}
