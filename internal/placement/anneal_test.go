package placement

import (
	"math/rand"
	"strings"
	"testing"

	"velociti/internal/circuit"
	"velociti/internal/perf"
	"velociti/internal/shuttle"
	"velociti/internal/stats"
	"velociti/internal/ti"
)

// annealCircuit synthesizes a deterministic random gate mix for the
// annealing tests.
func annealCircuit(r *rand.Rand, n, oneQ, twoQ int) *circuit.Circuit {
	c := circuit.NewScratch("anneal-test", n)
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

// assignments flattens a layout to its qubit→chain map for comparison.
func assignments(l *ti.Layout) []int {
	out := make([]int, l.NumQubits())
	for q := range out {
		out[q] = l.ChainOf(q)
	}
	return out
}

// TestAnnealLayoutDeterministicPerSeed: the same seed must replay the
// search bit for bit — identical layout and identical objective — across
// repeated runs, and a different seed is allowed to (and here does)
// explore differently.
func TestAnnealLayoutDeterministicPerSeed(t *testing.T) {
	const qubits = 20
	r := stats.NewRand(17)
	c := annealCircuit(r, qubits, 30, 90)
	d := device(t, 5, 4)
	start, err := Random{}.Place(d, qubits, r)
	if err != nil {
		t.Fatal(err)
	}
	lat := perf.DefaultLatencies()
	run := func(seed int64) ([]int, float64) {
		ev := perf.NewEvaluator(c)
		l, cost, err := AnnealLayout(ev, start, perf.WeakLink{}, lat, stats.NewRand(seed), AnnealOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return assignments(l), cost
	}
	asg1, cost1 := run(42)
	asg2, cost2 := run(42)
	if cost1 != cost2 {
		t.Fatalf("same seed, different objective: %v != %v", cost1, cost2)
	}
	for q := range asg1 {
		if asg1[q] != asg2[q] {
			t.Fatalf("same seed, qubit %d on chain %d then %d", q, asg1[q], asg2[q])
		}
	}
}

// TestAnnealLayoutDeltaMatchesFullEval: the incremental scoring path and
// the from-scratch FullEval reference must walk the identical accept/reject
// sequence and land on the identical layout and cost — the bit-exactness
// contract that lets the benchmarks compare the two as like for like.
func TestAnnealLayoutDeltaMatchesFullEval(t *testing.T) {
	const qubits = 16
	lat := perf.DefaultLatencies()
	backends := map[string]perf.TimingBackend{
		"weaklink": perf.WeakLink{},
		"shuttle":  shuttle.Backend{Params: shuttle.Default()},
	}
	for name, backend := range backends {
		for _, seed := range []int64{1, 9} {
			r := stats.NewRand(seed)
			c := annealCircuit(r, qubits, 20, 70)
			d := device(t, 4, 4)
			start, err := Random{}.Place(d, qubits, r)
			if err != nil {
				t.Fatal(err)
			}
			opt := AnnealOptions{Moves: 300}
			ev := perf.NewEvaluator(c)
			fast, fastCost, err := AnnealLayout(ev, start, backend, lat, stats.NewRand(seed), opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.FullEval = true
			ref, refCost, err := AnnealLayout(ev, start, backend, lat, stats.NewRand(seed), opt)
			if err != nil {
				t.Fatal(err)
			}
			if fastCost != refCost {
				t.Fatalf("%s seed %d: delta cost %v, full-eval cost %v", name, seed, fastCost, refCost)
			}
			fa, ra := assignments(fast), assignments(ref)
			for q := range fa {
				if fa[q] != ra[q] {
					t.Fatalf("%s seed %d: qubit %d on chain %d (delta) vs %d (full)", name, seed, q, fa[q], ra[q])
				}
			}
		}
	}
}

// TestAnnealLayoutNeverWorsens: the returned objective is the best visited
// state, so it can never exceed the starting layout's cost, and the
// returned layout re-prices to exactly the reported objective.
func TestAnnealLayoutNeverWorsens(t *testing.T) {
	const qubits = 18
	lat := perf.DefaultLatencies()
	for _, seed := range []int64{2, 3, 4} {
		r := stats.NewRand(seed)
		c := annealCircuit(r, qubits, 25, 80)
		d := device(t, 6, 3)
		start, err := Random{}.Place(d, qubits, r)
		if err != nil {
			t.Fatal(err)
		}
		ev := perf.NewEvaluator(c)
		startCost := perf.ParallelTime(c, start, lat)
		l, cost, err := AnnealLayout(ev, start, perf.WeakLink{}, lat, stats.NewRand(seed), AnnealOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if cost > startCost {
			t.Fatalf("seed %d: annealed cost %v worse than start %v", seed, cost, startCost)
		}
		if got := perf.ParallelTime(c, l, lat); got != cost {
			t.Fatalf("seed %d: reported cost %v but layout prices at %v", seed, cost, got)
		}
		checkComplete(t, l, qubits)
	}
}

// TestAnnealLayoutPricesIsolatedGates: four weak CX gates on disjoint
// pairs, none with a predecessor or a successor, run concurrently at α·γ.
// The search must see that makespan, co-locate the pairs, and report the
// cost its layout prices at.
func TestAnnealLayoutPricesIsolatedGates(t *testing.T) {
	c := circuit.New("isolated", 8)
	for q := 0; q < 4; q++ {
		c.CX(q, q+4)
	}
	d, err := ti.NewDevice(4, 2, ti.Line)
	if err != nil {
		t.Fatal(err)
	}
	start, err := ti.NewLayout(d, [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}})
	if err != nil {
		t.Fatal(err)
	}
	lat := perf.DefaultLatencies()
	if got := perf.ParallelTime(c, start, lat); got != 200 {
		t.Fatalf("start layout prices at %v, want 200", got)
	}
	l, cost, err := AnnealLayout(perf.NewEvaluator(c), start, perf.WeakLink{}, lat, stats.NewRand(1), AnnealOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := perf.ParallelTime(c, l, lat); got != cost {
		t.Fatalf("reported cost %v but layout prices at %v", cost, got)
	}
	if cost != 100 {
		t.Fatalf("annealed cost %v, want 100 with every pair on one chain", cost)
	}
}

// TestAnnealedPolicy: the policy wires a random start into the search, so
// it must place every qubit, be deterministic per RNG stream, and reject a
// missing circuit with a clear error.
func TestAnnealedPolicy(t *testing.T) {
	const qubits = 12
	r := stats.NewRand(5)
	c := annealCircuit(r, qubits, 10, 40)
	d := device(t, 4, 3)
	p := Annealed{Circuit: c, Moves: 200}
	if p.Name() != "annealed" {
		t.Fatalf("policy name %q", p.Name())
	}
	l1, err := p.Place(d, qubits, stats.NewRand(8))
	if err != nil {
		t.Fatal(err)
	}
	checkComplete(t, l1, qubits)
	l2, err := p.Place(d, qubits, stats.NewRand(8))
	if err != nil {
		t.Fatal(err)
	}
	a1, a2 := assignments(l1), assignments(l2)
	for q := range a1 {
		if a1[q] != a2[q] {
			t.Fatalf("same stream, qubit %d on chain %d then %d", q, a1[q], a2[q])
		}
	}
	if _, err := (Annealed{}).Place(d, qubits, stats.NewRand(1)); err == nil {
		t.Fatal("nil circuit accepted")
	}
}

// TestAnnealedCacheKey: keys must separate every behavioral knob —
// circuit, backend, timing model, and move budget — and normalize the
// zero-value defaults to the same key Place resolves them to.
func TestAnnealedCacheKey(t *testing.T) {
	r := stats.NewRand(6)
	c1 := annealCircuit(r, 8, 5, 15)
	c2 := annealCircuit(r, 8, 5, 15)
	base := Annealed{Circuit: c1}
	keys := map[string]string{
		"base":    base.CacheKey(),
		"circuit": Annealed{Circuit: c2}.CacheKey(),
		"backend": Annealed{Circuit: c1, Backend: shuttle.Backend{Params: shuttle.Default()}}.CacheKey(),
		"lat":     Annealed{Circuit: c1, Latencies: perf.Latencies{OneQubit: 1, TwoQubit: 2, WeakPenalty: 3}}.CacheKey(),
		"moves":   Annealed{Circuit: c1, Moves: 99}.CacheKey(),
		"start":   Annealed{Circuit: c1, Base: RoundRobin{}}.CacheKey(),
	}
	seen := map[string]string{}
	for name, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Fatalf("knobs %q and %q share cache key %q", prev, name, k)
		}
		seen[k] = name
		if !strings.HasPrefix(k, "annealed/") {
			t.Fatalf("key %q lacks the policy prefix", k)
		}
	}
	// Explicit defaults and the zero value must agree: same artifacts.
	explicit := Annealed{Circuit: c1, Backend: perf.WeakLink{}, Latencies: perf.DefaultLatencies(), Base: Random{}}
	if explicit.CacheKey() != base.CacheKey() {
		t.Fatalf("explicit defaults key %q != zero-value key %q", explicit.CacheKey(), base.CacheKey())
	}
	// A Base without a fingerprint of its own makes the search
	// unfingerprintable: empty key, which the pipeline reads as "do not
	// cache" (Refined deliberately provides no CacheKey).
	if k := (Annealed{Circuit: c1, Base: Refined{}}).CacheKey(); k != "" {
		t.Fatalf("unfingerprintable base should yield an empty key, got %q", k)
	}
}
