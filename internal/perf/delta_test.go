package perf_test

// Delta-evaluation bit-exactness: after arbitrary swap sequences, the
// incremental objective must equal the reference walk on the materialized
// layout — ParallelTime for the weak-link backend (the paper's model) and
// ParallelTimeFunc under the shuttle delta latencies — and FullCost, which
// re-derives latencies and finishes with no incremental state.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"velociti/internal/circuit"
	"velociti/internal/perf"
	"velociti/internal/placement"
	"velociti/internal/shuttle"
	"velociti/internal/stats"
	"velociti/internal/ti"
	"velociti/internal/verr"
)

// randomCircuit synthesizes a random gate sequence over n qubits.
func randomCircuit(r *rand.Rand, n, oneQ, twoQ int) *circuit.Circuit {
	c := circuit.NewScratch("delta-test", n)
	for oneQ > 0 || twoQ > 0 {
		if twoQ > 0 && (oneQ == 0 || r.Intn(2) == 0) {
			a := r.Intn(n)
			b := r.Intn(n - 1)
			if b >= a {
				b++
			}
			c.CX(a, b)
			twoQ--
			continue
		}
		c.X(r.Intn(n))
		oneQ--
	}
	return c
}

func deltaBackends(t *testing.T) map[string]perf.TimingBackend {
	t.Helper()
	return map[string]perf.TimingBackend{
		"weaklink": perf.WeakLink{},
		"shuttle":  shuttle.Backend{Params: shuttle.Default()},
	}
}

// deltaReference is the reference walk of DeltaEval's objective: the
// parallel model under backend's delta latencies on layout l.
func deltaReference(t *testing.T, c *circuit.Circuit, l *ti.Layout, backend perf.TimingBackend, lat perf.Latencies) float64 {
	t.Helper()
	if _, ok := backend.(perf.WeakLink); ok {
		return perf.ParallelTime(c, l, lat)
	}
	base, perHop, err := backend.(perf.DeltaWeigher).DeltaWeights(lat)
	if err != nil {
		t.Fatal(err)
	}
	nc := l.Device().NumChains()
	dist := l.Device().ChainDistances()
	return perf.ParallelTimeFunc(c, func(g circuit.Gate) float64 {
		if !g.IsTwoQubit() {
			return base[perf.ClassOneQ]
		}
		ca, cb := l.ChainOf(g.Qubits[0]), l.ChainOf(g.Qubits[1])
		if ca == cb {
			return base[perf.ClassTwoQIntra]
		}
		return base[perf.ClassTwoQWeak] + float64(dist[ca*nc+cb])*perHop
	})
}

// checkDeltaCost fails unless de's incremental cost equals FullCost and
// the reference walk on the materialized layout.
func checkDeltaCost(t *testing.T, tag string, de *perf.DeltaEval, c *circuit.Circuit, backend perf.TimingBackend, lat perf.Latencies) {
	t.Helper()
	got := de.Cost()
	if again := de.Cost(); again != got {
		t.Fatalf("%s: a second Cost with nothing stale moved %v to %v", tag, got, again)
	}
	full, err := de.FullCost()
	if err != nil {
		t.Fatal(err)
	}
	ml, err := de.Layout()
	if err != nil {
		t.Fatal(err)
	}
	if want := deltaReference(t, c, ml, backend, lat); got != want || full != want {
		t.Fatalf("%s: delta cost %v, full %v, reference %v", tag, got, full, want)
	}
}

// TestDeltaEvalMatchesFullAfterRandomSwaps is the tentpole property: delta
// ≡ full ≡ reference on randomized swap sequences, both backends, several
// seeds.
func TestDeltaEvalMatchesFullAfterRandomSwaps(t *testing.T) {
	const qubits, chainLen = 24, 6
	lat := perf.DefaultLatencies()
	for name, backend := range deltaBackends(t) {
		for _, seed := range []int64{1, 5, 99} {
			r := stats.NewRand(seed)
			c := randomCircuit(r, qubits, 40, 120)
			device, err := ti.DeviceFor(qubits, chainLen, ti.Ring)
			if err != nil {
				t.Fatal(err)
			}
			l, err := placement.Random{}.Place(device, qubits, r)
			if err != nil {
				t.Fatal(err)
			}
			de, err := perf.NewDeltaEval(perf.NewEvaluator(c), l, backend, lat)
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 80; step++ {
				a := r.Intn(qubits)
				b := r.Intn(qubits - 1)
				if b >= a {
					b++
				}
				if err := de.Swap(a, b); err != nil {
					t.Fatal(err)
				}
				checkDeltaCost(t, fmt.Sprintf("%s seed %d step %d", name, seed, step), de, c, backend, lat)
			}
		}
	}
}

// TestDeltaEvalEmptyCircuit: with no gates there is nothing to price, and
// swaps still move qubits.
func TestDeltaEvalEmptyCircuit(t *testing.T) {
	c := circuit.New("empty", 4)
	d, err := ti.NewDevice(2, 2, ti.Line)
	if err != nil {
		t.Fatal(err)
	}
	l, err := ti.NewLayout(d, [][]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	de, err := perf.NewDeltaEval(perf.NewEvaluator(c), l, perf.WeakLink{}, perf.DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	if err := de.Swap(0, 3); err != nil {
		t.Fatal(err)
	}
	checkDeltaCost(t, "empty", de, c, perf.WeakLink{}, perf.DefaultLatencies())
	if de.Cost() != 0 || de.ChainOf(0) != 1 {
		t.Fatalf("empty circuit: cost %v, qubit 0 on chain %d", de.Cost(), de.ChainOf(0))
	}
}

// TestDeltaEvalSharedPredecessor: when both operands of a 2-qubit gate
// wait on the same gate, a change to that gate marks its successor twice
// and the refresh must still settle every finish.
func TestDeltaEvalSharedPredecessor(t *testing.T) {
	c := circuit.New("shared", 4)
	c.CX(0, 2) // both operands of the next gate wait on this one
	c.CX(2, 0)
	c.X(0)
	c.CX(0, 1)
	c.CX(2, 3)
	c.CX(1, 3)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	d, err := ti.NewDevice(2, 2, ti.Line)
	if err != nil {
		t.Fatal(err)
	}
	l, err := ti.NewLayout(d, [][]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	lat := perf.DefaultLatencies()
	for name, backend := range deltaBackends(t) {
		de, err := perf.NewDeltaEval(perf.NewEvaluator(c), l, backend, lat)
		if err != nil {
			t.Fatal(err)
		}
		checkDeltaCost(t, name+" start", de, c, backend, lat)
		for step, pair := range [][2]int{{1, 2}, {0, 3}, {1, 2}, {0, 1}, {2, 1}} {
			if err := de.Swap(pair[0], pair[1]); err != nil {
				t.Fatal(err)
			}
			checkDeltaCost(t, fmt.Sprintf("%s step %d", name, step), de, c, backend, lat)
		}
	}
}

// TestDeltaEvalCountsIsolatedGates: a gate with no predecessor and no
// successor still takes its own latency. Four weak CX gates on disjoint
// pairs run concurrently at α·γ each.
func TestDeltaEvalCountsIsolatedGates(t *testing.T) {
	c, l := isolatedPairs(t)
	lat := perf.DefaultLatencies()
	de, err := perf.NewDeltaEval(perf.NewEvaluator(c), l, perf.WeakLink{}, lat)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := de.Cost(), perf.ParallelTime(c, l, lat); got != want || got != 200 {
		t.Fatalf("delta cost %v, ParallelTime %v, want 200", got, want)
	}
	// Co-locating one pair leaves three weak gates at α·γ.
	if err := de.Swap(4, 1); err != nil {
		t.Fatal(err)
	}
	checkDeltaCost(t, "after one swap", de, c, perf.WeakLink{}, lat)
}

// isolatedPairs is four CX gates on the disjoint pairs (0,4) (1,5) (2,6)
// (3,7), with qubits 0–3 on one chain and 4–7 on the other, so every gate
// is isolated and weak.
func isolatedPairs(t *testing.T) (*circuit.Circuit, *ti.Layout) {
	t.Helper()
	c := circuit.New("isolated", 8)
	for q := 0; q < 4; q++ {
		c.CX(q, q+4)
	}
	d, err := ti.NewDevice(4, 2, ti.Line)
	if err != nil {
		t.Fatal(err)
	}
	l, err := ti.NewLayout(d, [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}})
	if err != nil {
		t.Fatal(err)
	}
	return c, l
}

// TestDeltaEvalSwapIsInvolution: Swap(a,b) twice restores the assignment
// and the objective bit for bit — the revert path the annealer leans on
// for rejected moves, including deferred (batched) refreshes.
func TestDeltaEvalSwapIsInvolution(t *testing.T) {
	const qubits = 16
	lat := perf.DefaultLatencies()
	r := stats.NewRand(7)
	c := randomCircuit(r, qubits, 20, 60)
	device, err := ti.DeviceFor(qubits, 4, ti.Ring)
	if err != nil {
		t.Fatal(err)
	}
	l, err := placement.Random{}.Place(device, qubits, r)
	if err != nil {
		t.Fatal(err)
	}
	de, err := perf.NewDeltaEval(perf.NewEvaluator(c), l, perf.WeakLink{}, lat)
	if err != nil {
		t.Fatal(err)
	}
	initial := de.Cost()
	var asg []int32
	asg = de.ChainAssignments(asg)
	for step := 0; step < 40; step++ {
		a, b := r.Intn(qubits), r.Intn(qubits-1)
		if b >= a {
			b++
		}
		if err := de.Swap(a, b); err != nil {
			t.Fatal(err)
		}
		// Deliberately do NOT refresh between the swap and its revert:
		// the stale marks of both must settle to the initial finishes.
		if err := de.Swap(a, b); err != nil {
			t.Fatal(err)
		}
		if got := de.Cost(); got != initial {
			t.Fatalf("step %d: cost %v after revert, want %v", step, got, initial)
		}
		for q, ch := range de.ChainAssignments(nil) {
			if ch != asg[q] {
				t.Fatalf("step %d: qubit %d on chain %d after revert, want %d", step, q, ch, asg[q])
			}
		}
	}
}

// TestDeltaEvalSwapValidation: out-of-range and identical qubits are typed
// input errors and leave the evaluator untouched.
func TestDeltaEvalSwapValidation(t *testing.T) {
	const qubits = 8
	r := stats.NewRand(3)
	c := randomCircuit(r, qubits, 4, 12)
	device, err := ti.DeviceFor(qubits, 4, ti.Ring)
	if err != nil {
		t.Fatal(err)
	}
	l, err := placement.Random{}.Place(device, qubits, r)
	if err != nil {
		t.Fatal(err)
	}
	de, err := perf.NewDeltaEval(perf.NewEvaluator(c), l, perf.WeakLink{}, perf.DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	before := de.Cost()
	for _, pair := range [][2]int{{-1, 0}, {0, qubits}, {3, 3}} {
		if err := de.Swap(pair[0], pair[1]); err == nil {
			t.Fatalf("Swap(%d, %d) accepted", pair[0], pair[1])
		}
	}
	if after := de.Cost(); after != before {
		t.Fatalf("rejected swaps changed the cost: %v != %v", after, before)
	}
}

// TestDeltaEvalSwapRollsBackOnDisconnectedChains: a swap that would put a
// gate across disconnected chains is an input error and leaves the
// assignment, the latency sum and the cost as they were.
func TestDeltaEvalSwapRollsBackOnDisconnectedChains(t *testing.T) {
	// Chains 0 and 1 linked, chain 2 isolated.
	d, err := ti.NewDeviceLinks(2, 3, []ti.WeakLink{
		{A: ti.Port{Chain: 0, Side: ti.Right}, B: ti.Port{Chain: 1, Side: ti.Left}},
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := ti.NewLayout(d, [][]int{{0, 1}, {2, 3}, {4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New("disconnected", 6)
	c.CX(0, 2)
	c.CX(1, 3)
	c.CX(0, 1)
	c.X(4)
	c.X(5)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	lat := perf.DefaultLatencies()
	de, err := perf.NewDeltaEval(perf.NewEvaluator(c), l, perf.WeakLink{}, lat)
	if err != nil {
		t.Fatal(err)
	}
	cost, sum := de.Cost(), de.LatencySum()
	asg := de.ChainAssignments(nil)
	// Moving qubit 0 to chain 2 puts CX(0,2) across the gap.
	if err := de.Swap(0, 4); !verr.IsInput(err) {
		t.Fatalf("Swap across disconnected chains: %v, want an input error", err)
	}
	if got := de.ChainAssignments(nil); !reflect.DeepEqual(got, asg) {
		t.Fatalf("assignment %v after a rejected swap, want %v", got, asg)
	}
	if de.Cost() != cost || de.LatencySum() != sum {
		t.Fatalf("rejected swap moved cost %v -> %v or latency sum %v -> %v", cost, de.Cost(), sum, de.LatencySum())
	}
	if err := de.Swap(1, 2); err != nil {
		t.Fatal(err)
	}
	checkDeltaCost(t, "after the rollback", de, c, perf.WeakLink{}, lat)
}

// TestDeltaWeightsWeakLinkMatchesClassLatencies: the weak-link delta
// weights must reproduce the paper's per-class latencies with no hop
// surcharge, so the delta objective is the paper's model exactly.
func TestDeltaWeightsWeakLinkMatchesClassLatencies(t *testing.T) {
	lat := perf.Latencies{OneQubit: 2, TwoQubit: 150, WeakPenalty: 3}
	base, perHop, err := perf.WeakLink{}.DeltaWeights(lat)
	if err != nil {
		t.Fatal(err)
	}
	if perHop != 0 {
		t.Fatalf("weak-link perHop = %v, want 0", perHop)
	}
	if base[perf.ClassOneQ] != lat.OneQubit || base[perf.ClassTwoQIntra] != lat.TwoQubit ||
		base[perf.ClassTwoQWeak] != lat.WeakPenalty*lat.TwoQubit {
		t.Fatalf("weak-link delta weights %v", base)
	}
}

// TestDeltaWeightsShuttleIsContentionFreeTransport: the shuttle surrogate
// prices a weak gate as split+merge+recool+γ plus move per hop, α-free.
func TestDeltaWeightsShuttleIsContentionFreeTransport(t *testing.T) {
	p := shuttle.Default()
	lat := perf.DefaultLatencies()
	base, perHop, err := shuttle.Backend{Params: p}.DeltaWeights(lat)
	if err != nil {
		t.Fatal(err)
	}
	if perHop != p.MovePerHopMicros {
		t.Fatalf("shuttle perHop = %v, want %v", perHop, p.MovePerHopMicros)
	}
	want := lat.TwoQubit + p.SplitMicros + p.MergeMicros + p.RecoolMicros
	if base[perf.ClassTwoQWeak] != want {
		t.Fatalf("shuttle weak base = %v, want %v", base[perf.ClassTwoQWeak], want)
	}
}
