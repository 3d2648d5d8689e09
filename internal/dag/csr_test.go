package dag

import (
	"math/rand"
	"strings"
	"testing"
)

// edge is one weighted edge of a test graph.
type edge struct {
	u, v int32
	w    float64
}

// csrOf builds an n-node CSR from edges listed in ascending (u, v) order.
func csrOf(n int, edges []edge) CSR {
	c := CSR{Heads: make([]int32, n+1)}
	for _, e := range edges {
		c.Heads[e.u+1]++
		c.Targets = append(c.Targets, e.v)
		c.Weights = append(c.Weights, e.w)
	}
	for u := 0; u < n; u++ {
		c.Heads[u+1] += c.Heads[u]
	}
	return c
}

// randomDAG builds an n-node forward CSR with every pair u < v an edge
// with probability p.
func randomDAG(r *rand.Rand, n int, p float64) CSR {
	var edges []edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				edges = append(edges, edge{int32(u), int32(v), float64(r.Intn(200)) + r.Float64()})
			}
		}
	}
	return csrOf(n, edges)
}

// diamond is a -> b -> d and a -> c -> d, heavier through c.
func diamond() CSR {
	return csrOf(4, []edge{{0, 1, 1}, {0, 2, 2}, {1, 3, 1}, {2, 3, 3}})
}

// bruteForce enumerates every directed path and returns the heaviest
// total weight. It is exponential: small graphs only.
func bruteForce(c CSR) float64 {
	best := 0.0
	var dfs func(u int32, acc float64)
	dfs = func(u int32, acc float64) {
		if acc > best {
			best = acc
		}
		for i := c.Heads[u]; i < c.Heads[u+1]; i++ {
			dfs(c.Targets[i], acc+c.Weights[i])
		}
	}
	for u := 0; u < c.NumNodes(); u++ {
		dfs(int32(u), 0)
	}
	return best
}

func TestCSRLongestPathInto(t *testing.T) {
	c := csrOf(4, []edge{{0, 1, 3}, {0, 3, 10}, {1, 2, 4}})
	var s Scratch
	best, dist := c.LongestPathInto(&s)
	if best != 10 {
		t.Fatalf("best = %g", best)
	}
	want := []float64{0, 3, 7, 10}
	for i, d := range dist {
		if d != want[i] {
			t.Fatalf("dist[%d] = %g, want %g", i, d, want[i])
		}
	}
}

func TestCSREmptyAndIsolated(t *testing.T) {
	var empty CSR
	if got := empty.LongestPath(nil); got != 0 {
		t.Fatalf("empty: %g", got)
	}
	isolated := csrOf(1, nil)
	if got := isolated.LongestPath(nil); got != 0 {
		t.Fatalf("isolated: %g", got)
	}
}

func TestLongestPathEmptyAndIsolated(t *testing.T) {
	var s Scratch
	var empty CSR
	best, dist := empty.LongestPathInto(&s)
	if best != 0 || len(dist) != 0 {
		t.Fatalf("empty graph: %g %v", best, dist)
	}
	isolated := csrOf(1, nil)
	best, dist = isolated.LongestPathInto(&s)
	if best != 0 || len(dist) != 1 || dist[0] != 0 {
		t.Fatalf("isolated: %g %v", best, dist)
	}
}

func TestScratchReuseAcrossSizes(t *testing.T) {
	var s Scratch
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{50, 5, 120, 1} {
		c := randomDAG(r, n, 0.2)
		if got, want := c.LongestPath(&s), c.LongestPath(nil); got != want {
			t.Fatalf("n=%d: reused scratch %g, fresh %g", n, got, want)
		}
	}
}

func TestLongestPathDiamond(t *testing.T) {
	c := diamond()
	if got := c.LongestPath(nil); got != 5 {
		t.Fatalf("Length = %v, want 5", got)
	}
}

func TestLongestPathParallelChains(t *testing.T) {
	// Two disconnected chains a0-a1-a2 and b0-b1; the heavier one wins.
	c := csrOf(5, []edge{{0, 1, 10}, {1, 2, 10}, {3, 4, 100}})
	if got := c.LongestPath(nil); got != 100 {
		t.Fatalf("Length = %v, want 100", got)
	}
}

func TestLongestPathFromPerNode(t *testing.T) {
	c := diamond()
	_, dist := c.LongestPathInto(nil)
	want := []float64{0, 1, 2, 5}
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("per-node distances = %v, want %v", dist, want)
		}
	}
}

// Property: the forward pass equals exhaustive enumeration on small DAGs.
func TestLongestPathMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 200; trial++ {
		c := randomDAG(r, 2+r.Intn(8), r.Float64()*0.6)
		if dp, bf := c.LongestPath(nil), bruteForce(c); dp != bf {
			t.Fatalf("trial %d: DP=%v brute=%v\n%s", trial, dp, bf, c.DOT("t", make([]string, c.NumNodes())))
		}
	}
}

// Property: every per-node distance is the heaviest path ending there —
// no edge improves on it, and a node with a positive distance has an
// in-edge that attains it — and the reported length is the largest.
func TestLongestPathIsConsistent(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		c := randomDAG(r, 2+r.Intn(15), r.Float64()*0.5)
		best, dist := c.LongestPathInto(nil)
		attained := make([]bool, c.NumNodes())
		top := 0.0
		for u := 0; u < c.NumNodes(); u++ {
			if dist[u] > top {
				top = dist[u]
			}
			for i := c.Heads[u]; i < c.Heads[u+1]; i++ {
				v := c.Targets[i]
				switch d := dist[u] + c.Weights[i]; {
				case d > dist[v]:
					t.Fatalf("trial %d: edge %d->%d improves dist %v to %v", trial, u, v, dist[v], d)
				case d == dist[v]:
					attained[v] = true
				}
			}
		}
		for v, d := range dist {
			if d > 0 && !attained[v] {
				t.Fatalf("trial %d: dist[%d] = %v has no attaining in-edge", trial, v, d)
			}
		}
		if best != top {
			t.Fatalf("trial %d: reported %v, largest distance %v", trial, best, top)
		}
	}
}

func TestDOTOutput(t *testing.T) {
	c := diamond()
	dot := c.DOT("fig3", []string{"a", "b", "c", "d"})
	for _, want := range []string{"digraph \"fig3\"", "doublecircle", "n0 -> n1", "n2 -> n3", `n2 [label="c" shape=circle]`, `[label="3"]`} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
	// Exactly one start node in the diamond → exactly one doublecircle.
	if n := strings.Count(dot, "doublecircle"); n != 1 {
		t.Errorf("expected 1 doublecircle, got %d", n)
	}
}
