package shuttle

import (
	"math"
	"math/rand"
	"testing"

	"velociti/internal/circuit"
	"velociti/internal/perf"
	"velociti/internal/placement"
	"velociti/internal/schedule"
	"velociti/internal/stats"
	"velociti/internal/ti"
)

func layout(t *testing.T, qubits, chainLen int) *ti.Layout {
	t.Helper()
	d, err := ti.DeviceFor(qubits, chainLen, ti.Ring)
	if err != nil {
		t.Fatal(err)
	}
	l, err := placement.Sequential{}.Place(d, qubits, nil)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestDefaultsValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateNegativeCosts(t *testing.T) {
	bad := []Params{
		{SplitMicros: -1},
		{MergeMicros: -1},
		{MovePerHopMicros: -1},
		{RecoolMicros: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("params %d should be invalid", i)
		}
	}
}

func TestCrossChainOverhead(t *testing.T) {
	p := Params{SplitMicros: 50, MergeMicros: 40, MovePerHopMicros: 10, RecoolMicros: 100}
	if got := p.CrossChainOverhead(0); got != 0 {
		t.Errorf("0 hops = %v", got)
	}
	if got := p.CrossChainOverhead(1); got != 200 {
		t.Errorf("1 hop = %v, want 200", got)
	}
	if got := p.CrossChainOverhead(3); got != 220 {
		t.Errorf("3 hops = %v, want 220", got)
	}
}

func TestCompareHandCase(t *testing.T) {
	l := layout(t, 4, 2)
	c := circuit.New("t", 4)
	c.CX(1, 2) // cross-chain
	res, err := Compare(c, l, perf.DefaultLatencies(), Default())
	if err != nil {
		t.Fatal(err)
	}
	if res.WeakLinkMicros != 200 {
		t.Errorf("weak link = %v, want α·γ = 200", res.WeakLinkMicros)
	}
	if res.ShuttleMicros != 370 {
		t.Errorf("shuttle = %v, want 80+10+80+100+100 = 370", res.ShuttleMicros)
	}
	if res.CrossGates != 1 {
		t.Errorf("cross gates = %d", res.CrossGates)
	}
	if !res.WeakLinkWins() {
		t.Errorf("weak link should win at α = 2 with default shuttle costs")
	}
}

func TestWeakLinkLosesAtHighAlpha(t *testing.T) {
	l := layout(t, 4, 2)
	c := circuit.New("t", 4)
	c.CX(1, 2)
	lat := perf.DefaultLatencies()
	lat.WeakPenalty = 5 // a very slow photonic link
	res, err := Compare(c, l, lat, Default())
	if err != nil {
		t.Fatal(err)
	}
	if res.WeakLinkWins() {
		t.Errorf("shuttle (%v) should beat a 500µs weak gate (%v)", res.ShuttleMicros, res.WeakLinkMicros)
	}
}

func TestBreakEvenAlpha(t *testing.T) {
	p := Default()
	lat := perf.DefaultLatencies()
	// overhead(1) = 270, so break-even α = (270+100)/100 = 3.7.
	got, err := p.BreakEvenAlpha(lat)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-3.7) > 1e-12 {
		t.Fatalf("break-even α = %v, want 3.7", got)
	}
	// At exactly break-even the two mechanisms tie on a 1-hop gate.
	l := layout(t, 4, 2)
	c := circuit.New("t", 4)
	c.CX(1, 2)
	lat.WeakPenalty = got
	res, err := Compare(c, l, lat, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.WeakLinkMicros-res.ShuttleMicros) > 1e-9 {
		t.Fatalf("break-even mismatch: %v vs %v", res.WeakLinkMicros, res.ShuttleMicros)
	}
}

func TestCompareOnRandomWorkload(t *testing.T) {
	d, err := ti.DeviceFor(64, 16, ti.Ring)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRand(2)
	l, err := placement.Random{}.Place(d, 64, r)
	if err != nil {
		t.Fatal(err)
	}
	spec := circuit.Spec{Name: "w", Qubits: 64, TwoQubitGates: 300}
	c, err := schedule.Random{}.Place(spec, l, r)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compare(c, l, perf.DefaultLatencies(), Default())
	if err != nil {
		t.Fatal(err)
	}
	if res.CrossGates == 0 {
		t.Fatalf("expected cross-chain gates")
	}
	// Shuttle parallel time never exceeds its own serial baseline.
	if res.ShuttleMicros > res.ShuttleSerialMicros+1e-9 {
		t.Fatalf("shuttle parallel %v > serial %v", res.ShuttleMicros, res.ShuttleSerialMicros)
	}
	// Default shuttle costs are slower than α=2 weak links per gate, so
	// the whole circuit follows.
	if !res.WeakLinkWins() {
		t.Fatalf("weak link should win: %v vs %v", res.WeakLinkMicros, res.ShuttleMicros)
	}
}

func TestCompareValidation(t *testing.T) {
	l := layout(t, 4, 2)
	c := circuit.New("t", 4)
	if _, err := Compare(c, l, perf.DefaultLatencies(), Params{SplitMicros: -1}); err == nil {
		t.Errorf("bad params should fail")
	}
	if _, err := Compare(c, l, perf.Latencies{}, Default()); err == nil {
		t.Errorf("bad latencies should fail")
	}
	wide := circuit.New("wide", 99)
	if _, err := Compare(wide, l, perf.DefaultLatencies(), Default()); err == nil {
		t.Errorf("width mismatch should fail")
	}
}

func TestMultiHopShuttleCheaperThanMultiWeak(t *testing.T) {
	// On a 4-chain ring, a 2-hop transport adds only one extra move step
	// (10 µs), while the flat weak-link model charges distance-blind α·γ.
	d, err := ti.NewDevice(2, 4, ti.Ring)
	if err != nil {
		t.Fatal(err)
	}
	l, err := placement.Sequential{}.Place(d, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New("far", 8)
	c.CX(0, 4) // chains 0 and 2: distance 2
	p := Default()
	lat := perf.DefaultLatencies()
	oneHop := p.CrossChainOverhead(1)
	twoHop := p.CrossChainOverhead(2)
	if twoHop-oneHop != p.MovePerHopMicros {
		t.Fatalf("hop increment = %v", twoHop-oneHop)
	}
	res, err := Compare(c, l, lat, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShuttleMicros != twoHop+lat.TwoQubit {
		t.Fatalf("2-hop shuttle = %v, want %v", res.ShuttleMicros, twoHop+lat.TwoQubit)
	}
}

// randomPlaced returns a random circuit of 1-qubit gates and CX gates
// between arbitrary qubit pairs, so transports span any number of hops,
// on a random layout of a topo device; it has 1 to maxTwoQ CX gates.
func randomPlaced(t *testing.T, r *rand.Rand, topo ti.Topology, maxTwoQ int) (*circuit.Circuit, *ti.Layout) {
	t.Helper()
	n := 4 + r.Intn(29)
	d, err := ti.DeviceFor(n, 2+r.Intn(5), topo)
	if err != nil {
		t.Fatal(err)
	}
	l, err := placement.Random{}.Place(d, n, r)
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New("rand", n)
	for twoQ := 1 + r.Intn(maxTwoQ); twoQ > 0; {
		if r.Intn(3) == 0 {
			c.X(r.Intn(n))
			continue
		}
		a, b := r.Intn(n), r.Intn(n-1)
		if b >= a {
			b++
		}
		c.CX(a, b)
		twoQ--
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	return c, l
}

// TestCompareIsTheDeltaSurrogate pins Compare's shuttle columns to the
// delta evaluator under Backend's weights, bit for bit, at non-integer
// costs and latencies: ShuttleMicros is the from-scratch FullCost and
// ShuttleSerialMicros the latency sum before any swap.
func TestCompareIsTheDeltaSurrogate(t *testing.T) {
	r := stats.NewRand(11)
	for trial := 0; trial < 120; trial++ {
		topo := []ti.Topology{ti.Ring, ti.Line}[trial%2]
		c, l := randomPlaced(t, r, topo, 150)
		p := Params{SplitMicros: 100 * r.Float64(), MergeMicros: 100 * r.Float64(),
			MovePerHopMicros: 20 * r.Float64(), RecoolMicros: 150 * r.Float64()}
		lat := perf.Latencies{OneQubit: 5 * r.Float64(), TwoQubit: 50 + 100*r.Float64(), WeakPenalty: 1 + 2*r.Float64()}
		got, err := Compare(c, l, lat, p)
		if err != nil {
			t.Fatal(err)
		}
		de, err := perf.NewDeltaEval(perf.NewEvaluator(c), l, Backend{Params: p}, lat)
		if err != nil {
			t.Fatal(err)
		}
		full, err := de.FullCost()
		if err != nil {
			t.Fatal(err)
		}
		if got.ShuttleMicros != full || got.ShuttleSerialMicros != de.LatencySum() {
			t.Fatalf("trial %d (%+v): Compare = %v / %v serial, delta evaluator %v / %v",
				trial, p, got.ShuttleMicros, got.ShuttleSerialMicros, full, de.LatencySum())
		}
	}
}

// TestCompareBoundsTheBackend checks Compare against a binding the shuttle
// backend prepared, at integer costs, where both sum exactly: the serial
// per-gate time is the same sum, and the backend's makespan, whose
// transports queue on shared segments, is never earlier than the
// contention-free one, and equal when at most one gate crosses chains.
func TestCompareBoundsTheBackend(t *testing.T) {
	r := stats.NewRand(3)
	lat := perf.DefaultLatencies()
	single := 0
	for _, p := range []Params{Default(), {SplitMicros: 5, MergeMicros: 7, MovePerHopMicros: 3, RecoolMicros: 11}, {}} {
		for _, topo := range []ti.Topology{ti.Ring, ti.Line} {
			for trial := 0; trial < 35; trial++ {
				c, l := randomPlaced(t, r, topo, []int{2, 40, 150}[trial%3])
				cmp, err := Compare(c, l, lat, p)
				if err != nil {
					t.Fatal(err)
				}
				b, err := perf.NewEvaluator(c).Bind(l)
				if err != nil {
					t.Fatal(err)
				}
				if err := (Backend{Params: p}).Prepare(b, l); err != nil {
					t.Fatal(err)
				}
				res, err := b.Time(lat)
				if err != nil {
					t.Fatal(err)
				}
				if res.SerialPerGateMicros != cmp.ShuttleSerialMicros {
					t.Fatalf("%+v %v trial %d: backend serial %v, Compare %v", p, topo, trial, res.SerialPerGateMicros, cmp.ShuttleSerialMicros)
				}
				if res.ParallelMicros < cmp.ShuttleMicros {
					t.Fatalf("%+v %v trial %d: backend makespan %v earlier than contention-free %v", p, topo, trial, res.ParallelMicros, cmp.ShuttleMicros)
				}
				if cmp.CrossGates <= 1 {
					single++
					if res.ParallelMicros != cmp.ShuttleMicros {
						t.Fatalf("%+v %v trial %d: %d cross gates, backend %v, Compare %v", p, topo, trial, cmp.CrossGates, res.ParallelMicros, cmp.ShuttleMicros)
					}
				}
			}
		}
	}
	if single == 0 {
		t.Fatal("no trial had at most one cross-chain gate")
	}
}
