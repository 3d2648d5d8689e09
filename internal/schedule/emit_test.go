package schedule

import (
	"math/rand"
	"testing"

	"velociti/internal/circuit"
	"velociti/internal/perf"
	"velociti/internal/placement"
	"velociti/internal/stats"
	"velociti/internal/ti"
)

// referenceLoadBalanced is load-balanced synthesis as one lane: the greedy
// busy-until rule written out gate by gate, calling SameChain for every
// candidate. It is the oracle the shared multi-lane kernel is checked
// against, so it must not be rewritten in terms of that kernel.
func referenceLoadBalanced(pl LoadBalanced, spec circuit.Spec, l *ti.Layout, r *rand.Rand, b circuit.Builder) error {
	if err := validate(spec, l); err != nil {
		return err
	}
	if err := pl.Latencies.Validate(); err != nil {
		return err
	}
	k := 8
	busy := make([]float64, spec.Qubits)
	latencyOf := func(a, b int) float64 {
		if l.SameChain(a, b) {
			return pl.Latencies.TwoQubit
		}
		return pl.Latencies.WeakPenalty * pl.Latencies.TwoQubit
	}
	ops := newOpBits(nil, spec, r)
	for i := 0; i < ops.n; i++ {
		if ops.arity(i) == 1 {
			// Choose the least-busy of a few sampled qubits.
			best := r.Intn(spec.Qubits)
			for i := 1; i < k; i++ {
				q := r.Intn(spec.Qubits)
				if busy[q] < busy[best] {
					best = q
				}
			}
			busy[best] += pl.Latencies.OneQubit
			b.X(best)
			continue
		}
		var bestA, bestB int
		bestFinish := 0.0
		for i := 0; i < k; i++ {
			a, b := uniformPair(r, spec.Qubits)
			start := busy[a]
			if busy[b] > start {
				start = busy[b]
			}
			finish := start + latencyOf(a, b)
			if i == 0 || finish < bestFinish {
				bestFinish = finish
				bestA, bestB = a, b
			}
		}
		busy[bestA] = bestFinish
		busy[bestB] = bestFinish
		b.CX(bestA, bestB)
	}
	return b.Err()
}

// emitted collects what emit writes through a circuit.Emitter into a
// circuit, copying each yielded gate (the emitter reuses its buffer).
func emitted(t *testing.T, label string, spec circuit.Spec, emit func(circuit.Builder) error) *circuit.Circuit {
	t.Helper()
	c := circuit.New(spec.Name, spec.Qubits)
	e := circuit.NewEmitter(spec.Name, spec.Qubits, func(g *circuit.Gate) error {
		c.Append(g.Kind, g.Qubits, g.Params...)
		return c.Err()
	})
	if err := emit(e); err != nil {
		t.Fatalf("%s: EmitPlace: %v", label, err)
	}
	return c
}

// lineLayout places 64 qubits at random on a line of 16-ion chains, so
// chain membership does not follow qubit order.
func lineLayout(t *testing.T) *ti.Layout {
	t.Helper()
	d, err := ti.DeviceFor(64, 16, ti.Line)
	if err != nil {
		t.Fatal(err)
	}
	l, err := placement.Random{}.Place(d, 64, stats.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestLoadBalancedMatchesReference checks every way load-balanced
// synthesis runs — Place, EmitPlace into an Emitter, and each PlaceAll
// lane — against the one-lane reference loop, gate for gate, over ring and
// line layouts, an α panel, several seeds, and specs without 1-qubit or
// without 2-qubit gates.
func TestLoadBalancedMatchesReference(t *testing.T) {
	lats := sweepLats(1.0, 1.5, 2.0, 3.5, 9.5)
	layouts := map[string]*ti.Layout{"ring": layout16x4(t), "line": lineLayout(t)}
	specs := []circuit.Spec{spec(64, 40, 200), spec(64, 0, 150), spec(64, 120, 0), spec(10, 5, 30)}
	for lname, l := range layouts {
		for _, s := range specs {
			for _, seed := range []int64{1, 7, 42} {
				circs, err := LoadBalanced{}.PlaceAll(s, l, stats.NewRand(seed), lats)
				if err != nil {
					t.Fatalf("%s: PlaceAll: %v", lname, err)
				}
				for j, lat := range lats {
					label := lname + "/" + s.Name
					pl := LoadBalanced{Latencies: lat}
					want := circuit.New(s.Name, s.Qubits)
					if err := referenceLoadBalanced(pl, s, l, stats.NewRand(seed), want); err != nil {
						t.Fatalf("%s: reference: %v", label, err)
					}
					if want.NumOneQubitGates() != s.OneQubitGates || want.NumTwoQubitGates() != s.TwoQubitGates {
						t.Fatalf("%s: reference built %v, want %v", label, want.Spec(), s)
					}
					got, err := pl.Place(s, l, stats.NewRand(seed))
					if err != nil {
						t.Fatalf("%s: Place: %v", label, err)
					}
					sameGates(t, label+" Place", got, want)
					sameGates(t, label+" PlaceAll lane", circs[j], want)
					sameGates(t, label+" EmitPlace", emitted(t, label, s, func(b circuit.Builder) error {
						return pl.EmitPlace(s, l, stats.NewRand(seed), b)
					}), want)
				}
			}
		}
	}
}

// TestEmitPlaceMatchesPlace checks that each placer writes exactly
// Place's gates through a circuit.Emitter from the same stream state.
func TestEmitPlaceMatchesPlace(t *testing.T) {
	lat := perf.DefaultLatencies()
	layouts := map[string]*ti.Layout{"ring": layout16x4(t), "line": lineLayout(t)}
	for _, p := range append(All(lat), Annealed{Latencies: lat}) {
		for lname, l := range layouts {
			for _, s := range []circuit.Spec{spec(64, 30, 120), spec(64, 0, 50), spec(64, 25, 0)} {
				for _, seed := range []int64{1, 7, 42} {
					label := p.Name() + "/" + lname
					want, err := p.Place(s, l, stats.NewRand(seed))
					if err != nil {
						t.Fatalf("%s: Place: %v", label, err)
					}
					sameGates(t, label, emitted(t, label, s, func(b circuit.Builder) error {
						return p.EmitPlace(s, l, stats.NewRand(seed), b)
					}), want)
				}
			}
		}
	}
}

// TestLoadBalancedConcurrentUse runs Place, EmitPlace and PlaceAll from
// several goroutines at once, as the trial loop's workers do; the pooled
// scratch must give each call the gates a serial call builds.
func TestLoadBalancedConcurrentUse(t *testing.T) {
	l := layout16x4(t)
	lats := sweepLats(2.0, 1.0, 3.5)
	s := spec(64, 20, 120)
	want, err := LoadBalanced{}.PlaceAll(s, l, stats.NewRand(3), lats)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	errs := make(chan error, workers)
	got := make([][]*circuit.Circuit, workers)
	emit := make([]*circuit.Circuit, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			var err error
			for i := 0; i < 20 && err == nil; i++ {
				got[w], err = LoadBalanced{}.PlaceAll(s, l, stats.NewRand(3), lats)
				if err == nil {
					emit[w] = circuit.New(s.Name, s.Qubits)
					err = LoadBalanced{Latencies: lats[w%len(lats)]}.EmitPlace(s, l, stats.NewRand(3), emit[w])
				}
			}
			errs <- err
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < workers; w++ {
		for j := range lats {
			sameGates(t, "PlaceAll lane", got[w][j], want[j])
		}
		sameGates(t, "EmitPlace", emit[w], want[w%len(lats)])
	}
}
