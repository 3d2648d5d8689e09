package perf

// Tests for the shuttle transport pricing kernel: the zero-cost
// equivalence with the weak-link model at α = 1, the batched-lane
// bit-exactness contract, the junction-contention hand case, and the
// input-error boundaries (bad costs, disconnected chains). A binding
// prices under transport once AttachTransport has run, so each cost set
// gets its own binding.

import (
	"math"
	"reflect"
	"testing"

	"velociti/internal/circuit"
	"velociti/internal/ti"
	"velociti/internal/verr"
)

func transportBinding(t *testing.T, c *circuit.Circuit, l *ti.Layout, costs TransportCosts) *Binding {
	t.Helper()
	b, err := NewEvaluator(c).Bind(l)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.AttachTransport(l, costs); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestZeroCostTransportEqualsWeakLinkAlphaOne pins the degenerate-shuttle
// equivalence the backend seam relies on: with every transport cost at
// zero, a cross-chain gate costs exactly the local γ — the weak-link
// model at α = 1 — and the kernel must reproduce that model bit for bit,
// critical path included, whatever α the input lats carry (transport
// replaces α, so it must never be read).
func TestZeroCostTransportEqualsWeakLinkAlphaOne(t *testing.T) {
	c := randCircuit(t, "zero-cost", 48, 60, 240, 11)
	l := testLayout(t, 48, 12)
	b := transportBinding(t, c, l, TransportCosts{})
	weak, err := NewEvaluator(c).Bind(l)
	if err != nil {
		t.Fatal(err)
	}
	alphas := []float64{3.0, 2.0, 1.5, 1.0}
	lats := make([]Latencies, len(alphas))
	ones := make([]Latencies, len(alphas))
	for j, a := range alphas {
		lats[j] = DefaultLatencies()
		lats[j].WeakPenalty = a
		ones[j] = lats[j]
		ones[j].WeakPenalty = 1
	}
	got, err := b.TimeAll(lats)
	if err != nil {
		t.Fatal(err)
	}
	want, err := weak.TimeAll(ones)
	if err != nil {
		t.Fatal(err)
	}
	for j := range got {
		if !reflect.DeepEqual(got[j], want[j]) {
			t.Fatalf("lane %d (α=%g): zero-cost transport %+v != weak-link α=1 %+v", j, alphas[j], got[j], want[j])
		}
	}
}

// TestTransportTimeAllMatchesTime pins the batched contract on a
// transport-prepared binding: lane j of TimeAll equals the single-model
// Time bit for bit at every lane count, including the busy-table
// interleaving, and the makespan-only fold (ParallelTime and
// ParallelTimeAll, which price the fidelity window) reads the same
// ParallelMicros.
func TestTransportTimeAllMatchesTime(t *testing.T) {
	c := randCircuit(t, "lanes", 40, 30, 200, 5)
	l := testLayout(t, 40, 8)
	b := transportBinding(t, c, l, TransportCosts{SplitMicros: 80, MovePerHopMicros: 10, MergeMicros: 80, RecoolMicros: 100})
	alphas := []float64{2.0, 1.6, 1.2, 1.0}
	for lanes := 1; lanes <= len(alphas); lanes++ {
		lats := make([]Latencies, lanes)
		for j := 0; j < lanes; j++ {
			lats[j] = DefaultLatencies()
			lats[j].WeakPenalty = alphas[j]
			lats[j].TwoQubit = 100 + 10*float64(j) // vary γ so lanes truly differ
		}
		all, err := b.TimeAll(lats)
		if err != nil {
			t.Fatal(err)
		}
		makespans := b.ParallelTimeAll(lats, nil)
		for j, lat := range lats {
			one, err := b.Time(lat)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(all[j], one) {
				t.Fatalf("lanes=%d lane %d: %+v != %+v", lanes, j, all[j], one)
			}
			if want := all[j].ParallelMicros; math.Float64bits(makespans[j]) != math.Float64bits(want) ||
				math.Float64bits(b.ParallelTime(lat)) != math.Float64bits(want) {
				t.Fatalf("lanes=%d lane %d: makespan-only fold %v / %v, TimeAll %v",
					lanes, j, makespans[j], b.ParallelTime(lat), want)
			}
		}
	}
}

// TestTransportContentionHandCase checks the junction serialization on a
// device with a single weak-link segment: two data-independent cross-chain
// gates cannot move ions through the one segment concurrently, so the
// second transport waits for the first to clear.
func TestTransportContentionHandCase(t *testing.T) {
	d, err := ti.NewDevice(4, 2, ti.Line) // one segment between the two chains
	if err != nil {
		t.Fatal(err)
	}
	l := seqLayout(t, d, 8)
	c := circuit.New("contend", 8)
	c.CX(0, 4) // chain 0 ↔ chain 1
	c.CX(1, 5) // disjoint qubits, same segment
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	b := transportBinding(t, c, l, TransportCosts{SplitMicros: 50, MovePerHopMicros: 10, MergeMicros: 40, RecoolMicros: 100})
	over := 200.0 // 50+10+40+100
	lat := DefaultLatencies()
	res, err := b.Time(lat)
	if err != nil {
		t.Fatal(err)
	}
	// Gate 0: transport [0,200], gate ends 300. Gate 1: data-ready at 0
	// but the segment is busy until 200; transport [200,400], ends 500.
	if want := 2*over + lat.TwoQubit; res.ParallelMicros != want {
		t.Fatalf("contended parallel = %v, want %v", res.ParallelMicros, want)
	}
	// With free transport the two gates overlap fully.
	free, err := transportBinding(t, c, l, TransportCosts{}).Time(lat)
	if err != nil {
		t.Fatal(err)
	}
	if free.ParallelMicros != lat.TwoQubit {
		t.Fatalf("uncontended parallel = %v, want %v", free.ParallelMicros, lat.TwoQubit)
	}
}

// TestTransportCostsValidate rejects negative and NaN costs as typed
// input errors, both directly and when AttachTransport is handed them,
// which then leaves the binding unprepared.
func TestTransportCostsValidate(t *testing.T) {
	c := randCircuit(t, "bad-costs", 16, 10, 30, 3)
	l := testLayout(t, 16, 8)
	bad := []TransportCosts{
		{SplitMicros: -1},
		{MovePerHopMicros: -0.5},
		{MergeMicros: math.NaN()},
		{RecoolMicros: math.Inf(-1)},
	}
	for i, costs := range bad {
		err := costs.Validate()
		if err == nil {
			t.Errorf("costs %d should be invalid", i)
			continue
		}
		if !verr.IsInput(err) {
			t.Errorf("costs %d: error should be input-kind, got %v", i, err)
		}
		b, err := NewEvaluator(c).Bind(l)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.AttachTransport(l, costs); err == nil || !verr.IsInput(err) {
			t.Errorf("costs %d: AttachTransport error = %v, want input-kind", i, err)
		}
		if b.transport != nil {
			t.Errorf("costs %d: a rejected AttachTransport attached a plan", i)
		}
	}
	if err := (TransportCosts{}).Validate(); err != nil {
		t.Errorf("zero costs should be valid: %v", err)
	}
}

// TestAttachTransportDisconnected: a weak gate across disconnected chain
// groups has no shuttle path; AttachTransport must surface a typed input
// error, not invent a finite cost (the regression the linear-tape work
// fixed).
func TestAttachTransportDisconnected(t *testing.T) {
	// Chains {0,1} linked, chain 2 isolated.
	d, err := ti.NewDeviceLinks(4, 3, []ti.WeakLink{
		{A: ti.Port{Chain: 0, Side: ti.Right}, B: ti.Port{Chain: 1, Side: ti.Left}},
	})
	if err != nil {
		t.Fatal(err)
	}
	l := seqLayout(t, d, 12)
	c := circuit.New("disc", 12)
	c.CX(0, 8) // chain 0 ↔ chain 2: no path
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	b, err := NewEvaluator(c).Bind(l)
	if err != nil {
		t.Fatal(err)
	}
	err = b.AttachTransport(l, TransportCosts{})
	if err == nil {
		t.Fatal("disconnected chains should fail AttachTransport")
	}
	if !verr.IsInput(err) {
		t.Fatalf("error should be input-kind, got %v", err)
	}
}
