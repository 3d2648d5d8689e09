package dag

import (
	"math/rand"
	"testing"
)

// randomForwardCSR builds a random forward DAG with n nodes and roughly
// density out-edges per node, weights in [0, 100).
func randomForwardCSR(r *rand.Rand, n, density int) CSR {
	type edge struct {
		u, v int32
		w    float64
	}
	var edges []edge
	for u := 0; u < n-1; u++ {
		for k := 0; k < density; k++ {
			if r.Intn(2) == 0 {
				continue
			}
			v := u + 1 + r.Intn(n-1-u)
			edges = append(edges, edge{int32(u), int32(v), float64(r.Intn(10000)) / 100})
		}
	}
	// Group by source in ascending order; emission order above is already
	// ascending by u.
	heads := make([]int32, n+1)
	for _, e := range edges {
		heads[e.u+1]++
	}
	for u := 0; u < n; u++ {
		heads[u+1] += heads[u]
	}
	targets := make([]int32, len(edges))
	weights := make([]float64, len(edges))
	cursor := make([]int32, n)
	for _, e := range edges {
		at := heads[e.u] + cursor[e.u]
		targets[at] = e.v
		weights[at] = e.w
		cursor[e.u]++
	}
	return CSR{Heads: heads, Targets: targets, Weights: weights}
}

// cloneCSR deep-copies a snapshot so the full-evaluation oracle sees the
// same weights without sharing storage with the Delta under test.
func cloneCSR(c CSR) CSR {
	return CSR{
		Heads:   append([]int32(nil), c.Heads...),
		Targets: append([]int32(nil), c.Targets...),
		Weights: append([]float64(nil), c.Weights...),
	}
}

// TestDeltaMatchesFullOnRandomWeightChanges: after every batch of random
// weight changes, Refresh must reproduce LongestPathInto bit for bit —
// best and every per-node distance — at both a generous cone budget and a
// tiny one that forces the full-recompute fallback.
func TestDeltaMatchesFullOnRandomWeightChanges(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		for _, cone := range []int{0, 1, 16} { // 0 = keep the default
			r := rand.New(rand.NewSource(seed))
			csr := randomForwardCSR(r, 200, 3)
			oracle := cloneCSR(csr)
			d, err := NewDelta(csr)
			if err != nil {
				t.Fatal(err)
			}
			if cone > 0 {
				d.SetConeLimit(cone)
			}
			var scratch Scratch
			for round := 0; round < 60; round++ {
				batch := 1 + r.Intn(5)
				for k := 0; k < batch; k++ {
					e := int32(r.Intn(len(oracle.Weights)))
					w := float64(r.Intn(10000)) / 100
					oracle.Weights[e] = w
					d.SetWeight(e, w)
				}
				got := d.Refresh()
				want, dist := oracle.LongestPathInto(&scratch)
				if got != want {
					t.Fatalf("seed %d cone %d round %d: delta best %v, full %v", seed, cone, round, got, want)
				}
				for v, dv := range d.Dist() {
					if dv != dist[v] {
						t.Fatalf("seed %d cone %d round %d: dist[%d] delta %v, full %v", seed, cone, round, v, dv, dist[v])
					}
				}
			}
			if cone == 1 && d.FullRecomputes() == 0 {
				t.Fatalf("seed %d: cone limit 1 never triggered the full-recompute fallback", seed)
			}
		}
	}
}

// TestDeltaRefreshIsIdempotent: a Refresh with no pending changes returns
// the same best and touches nothing.
func TestDeltaRefreshIsIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	d, err := NewDelta(randomForwardCSR(r, 100, 2))
	if err != nil {
		t.Fatal(err)
	}
	first := d.Refresh()
	popped := d.Popped()
	if again := d.Refresh(); again != first {
		t.Fatalf("idle refresh changed best: %v != %v", again, first)
	}
	if d.Popped() != popped {
		t.Fatalf("idle refresh processed nodes: %d != %d", d.Popped(), popped)
	}
}

// TestDeltaRejectsNonForward: delta evaluation is only defined over
// topologically numbered snapshots.
func TestDeltaRejectsNonForward(t *testing.T) {
	for _, c := range []CSR{
		{Heads: []int32{0, 1, 1}, Targets: []int32{0}, Weights: []float64{1}},
		{Heads: []int32{0, 0, 1}, Targets: []int32{0}, Weights: []float64{1}},
	} {
		if _, err := NewDelta(c); err == nil {
			t.Fatalf("NewDelta accepted a backward edge: %+v", c)
		}
	}
}

// TestDeltaEmpty: the zero-node snapshot evaluates to 0.
func TestDeltaEmpty(t *testing.T) {
	d, err := NewDelta(CSR{})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Refresh(); got != 0 {
		t.Fatalf("empty delta best = %v", got)
	}
}

// TestDeltaInEdges: InEdges must enumerate exactly the snapshot's in-edges
// in ascending source order.
func TestDeltaInEdges(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	csr := randomForwardCSR(r, 64, 3)
	d, err := NewDelta(cloneCSR(csr))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int32]bool)
	for v := int32(0); v < int32(csr.NumNodes()); v++ {
		prevSrc := int32(-1)
		for _, e := range d.InEdges(v) {
			if csr.Targets[e] != v {
				t.Fatalf("InEdges(%d) lists edge %d targeting %d", v, e, csr.Targets[e])
			}
			if seen[e] {
				t.Fatalf("edge %d listed twice", e)
			}
			seen[e] = true
			// Recover the source from the forward CSR.
			src := int32(0)
			for csr.Heads[src+1] <= e {
				src++
			}
			if src < prevSrc {
				t.Fatalf("InEdges(%d) sources out of order", v)
			}
			prevSrc = src
		}
	}
	if len(seen) != csr.NumEdges() {
		t.Fatalf("InEdges covered %d of %d edges", len(seen), csr.NumEdges())
	}
}
