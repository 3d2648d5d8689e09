package dag

// This file adds an incremental (delta) longest-path evaluator over the CSR
// kernel. Search-based placement (internal/placement's annealer) prices
// thousands of candidate layouts that each differ from the previous one by a
// single qubit swap — a handful of changed edge weights — so re-walking the
// whole DAG per candidate wastes almost all of its work. Delta keeps the
// per-node distances (heaviest path ending at each node) of the last
// evaluation and, given the set of edges whose weights changed, recomputes
// only the affected cone: the nodes whose distance actually changes, plus
// their immediate frontier.
//
// Correctness is bit-exact against CSR.LongestPathInto, not merely
// approximate: a node's distance is max(0, dist[src]+w) over its in-edges in
// ascending source order — the same comparisons, in the same order, as the
// full forward relaxation — and floating-point max is insensitive to whether
// the unchanged terms were re-examined. The test suite pins delta ≡ full on
// randomized weight-change sequences.
//
// When a change cone stops damping out (many dirty nodes near the root of a
// deep graph), incremental processing degenerates to the full walk plus heap
// overhead; Refresh therefore falls back to one full forward recomputation
// once the cone exceeds a configurable node budget. The fallback computes
// the identical distances, so callers never observe which path ran.

import (
	"fmt"
)

// defaultConeDivisor sets the fallback budget: a Refresh that pops more
// than NumNodes/defaultConeDivisor dirty nodes abandons incremental
// propagation for one full forward pass.
const defaultConeDivisor = 2

// Delta is an incremental longest-path evaluator over one CSR snapshot. It owns the snapshot's Weights slice: after NewDelta the caller
// must route every weight change through SetWeight. A Delta is stateful and
// not safe for concurrent use.
type Delta struct {
	heads   []int32
	targets []int32
	weights []float64
	n       int

	// In-edge CSR grouped by target: the in-edges of node v are
	// inEdge[inHeads[v]:inHeads[v+1]] (edge indices into targets/weights)
	// with parallel sources in inSrc. Sources appear in ascending order, so
	// recomputing a node replays the full kernel's relaxation order.
	inHeads []int32
	inEdge  []int32
	inSrc   []int32

	// dist[v] is the heaviest path ending at v under the current weights
	// (after Refresh). tree is a max segment tree over dist with leaf
	// capacity size, so the global best survives point decreases in
	// O(log n).
	dist []float64
	tree []float64
	size int

	// dirty is a min-heap of node ids whose distance may be stale; inHeap
	// dedupes pushes.
	dirty  []int32
	inHeap []bool

	coneLimit int
	fullRuns  int
	popped    int
}

// NewDelta builds the incremental evaluator and runs the initial full
// evaluation. Every edge of the snapshot must point forward (node ids
// topologically ordered); Delta takes ownership of c.Weights.
func NewDelta(c CSR) (*Delta, error) {
	n := c.NumNodes()
	for u := 0; u < n; u++ {
		for e := c.Heads[u]; e < c.Heads[u+1]; e++ {
			if int(c.Targets[e]) <= u {
				return nil, fmt.Errorf("dag: delta evaluation requires forward edges, got %d -> %d", u, c.Targets[e])
			}
		}
	}
	d := &Delta{
		heads:   c.Heads,
		targets: c.Targets,
		weights: c.Weights,
		n:       n,
	}
	d.coneLimit = n / defaultConeDivisor
	if d.coneLimit < 1 {
		d.coneLimit = 1
	}
	// In-edge CSR: counting pass, prefix sum, fill pass. Filling in
	// ascending source order groups each target's in-edges by ascending
	// source automatically.
	d.inHeads = make([]int32, n+1)
	for _, v := range c.Targets {
		d.inHeads[v+1]++
	}
	for v := 0; v < n; v++ {
		d.inHeads[v+1] += d.inHeads[v]
	}
	d.inEdge = make([]int32, len(c.Targets))
	d.inSrc = make([]int32, len(c.Targets))
	cursor := make([]int32, n)
	for u := 0; u < n; u++ {
		for e := c.Heads[u]; e < c.Heads[u+1]; e++ {
			v := c.Targets[e]
			at := d.inHeads[v] + cursor[v]
			d.inEdge[at] = e
			d.inSrc[at] = int32(u)
			cursor[v]++
		}
	}
	d.dist = make([]float64, n)
	size := 1
	for size < n {
		size <<= 1
	}
	d.size = size
	d.tree = make([]float64, 2*size)
	d.inHeap = make([]bool, n)
	d.recomputeFull()
	d.fullRuns = 0 // the constructor's pass is not a fallback
	return d, nil
}

// NumNodes returns the node count of the snapshot.
func (d *Delta) NumNodes() int { return d.n }

// SetConeLimit overrides the fallback budget: a Refresh popping more than
// limit dirty nodes switches to one full forward pass. Values < 1 are
// clamped to 1. Results are identical at any limit; only the work split
// between incremental and full recomputation changes.
func (d *Delta) SetConeLimit(limit int) {
	if limit < 1 {
		limit = 1
	}
	d.coneLimit = limit
}

// Weight returns the current weight of edge e.
func (d *Delta) Weight(e int32) float64 { return d.weights[e] }

// SetWeight updates edge e's weight and marks its target stale. The change
// takes effect at the next Refresh.
func (d *Delta) SetWeight(e int32, w float64) {
	d.weights[e] = w
	d.push(d.targets[e])
}

// InEdges returns the edge indices of v's in-edges (indices into the
// snapshot's Targets/Weights arrays), grouped by ascending source. The
// slice aliases Delta-owned storage and must not be modified.
func (d *Delta) InEdges(v int32) []int32 {
	return d.inEdge[d.inHeads[v]:d.inHeads[v+1]]
}

// Dist returns the per-node distances as of the last Refresh. The slice
// aliases Delta-owned storage and must not be modified.
func (d *Delta) Dist() []float64 { return d.dist }

// Best returns the longest-path length as of the last Refresh.
func (d *Delta) Best() float64 {
	if d.n == 0 {
		return 0
	}
	return d.tree[1]
}

// FullRecomputes reports how many Refresh calls fell back to a full
// forward pass (cone budget exceeded).
func (d *Delta) FullRecomputes() int { return d.fullRuns }

// Popped reports the total dirty nodes processed incrementally across all
// Refresh calls — the work metric the cone fallback bounds.
func (d *Delta) Popped() int { return d.popped }

// Refresh propagates every pending weight change and returns the new
// longest-path length. Distances and the returned best are bit-identical
// to a from-scratch CSR.LongestPathInto over the current weights.
func (d *Delta) Refresh() float64 {
	processed := 0
	for len(d.dirty) > 0 {
		if processed >= d.coneLimit {
			d.popped += processed
			d.recomputeFull()
			d.fullRuns++
			return d.Best()
		}
		u := d.pop()
		processed++
		nd := 0.0
		for k := d.inHeads[u]; k < d.inHeads[u+1]; k++ {
			if x := d.dist[d.inSrc[k]] + d.weights[d.inEdge[k]]; x > nd {
				nd = x
			}
		}
		if nd != d.dist[u] {
			d.dist[u] = nd
			d.update(int(u), nd)
			for e := d.heads[u]; e < d.heads[u+1]; e++ {
				d.push(d.targets[e])
			}
		}
	}
	d.popped += processed
	return d.Best()
}

// recomputeFull runs the plain forward relaxation (CSR.LongestPath) over
// the current weights, rebuilds the segment tree, and clears the dirty set.
func (d *Delta) recomputeFull() {
	for i := range d.dist {
		d.dist[i] = 0
	}
	for u := 0; u < d.n; u++ {
		du := d.dist[u]
		for e := d.heads[u]; e < d.heads[u+1]; e++ {
			v := d.targets[e]
			if x := du + d.weights[e]; x > d.dist[v] {
				d.dist[v] = x
			}
		}
	}
	for i := range d.tree {
		d.tree[i] = 0
	}
	copy(d.tree[d.size:], d.dist)
	for i := d.size - 1; i >= 1; i-- {
		l, r := d.tree[2*i], d.tree[2*i+1]
		if l >= r {
			d.tree[i] = l
		} else {
			d.tree[i] = r
		}
	}
	for _, u := range d.dirty {
		d.inHeap[u] = false
	}
	d.dirty = d.dirty[:0]
}

// update is the segment-tree point update for dist[u] = v.
func (d *Delta) update(u int, v float64) {
	i := d.size + u
	d.tree[i] = v
	for i > 1 {
		i >>= 1
		l, r := d.tree[2*i], d.tree[2*i+1]
		if l >= r {
			d.tree[i] = l
		} else {
			d.tree[i] = r
		}
	}
}

// push marks node v stale, deduplicating repeats.
func (d *Delta) push(v int32) {
	if d.inHeap[v] {
		return
	}
	d.inHeap[v] = true
	d.dirty = append(d.dirty, v)
	i := len(d.dirty) - 1
	for i > 0 {
		p := (i - 1) / 2
		if d.dirty[p] <= d.dirty[i] {
			break
		}
		d.dirty[p], d.dirty[i] = d.dirty[i], d.dirty[p]
		i = p
	}
}

// pop removes and returns the smallest stale node id. Popping in ascending
// id order over a forward CSR guarantees every predecessor of the popped
// node is already final — staleness only ever propagates to higher ids.
func (d *Delta) pop() int32 {
	u := d.dirty[0]
	last := len(d.dirty) - 1
	d.dirty[0] = d.dirty[last]
	d.dirty = d.dirty[:last]
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && d.dirty[c+1] < d.dirty[c] {
			c++
		}
		if d.dirty[i] <= d.dirty[c] {
			break
		}
		d.dirty[i], d.dirty[c] = d.dirty[c], d.dirty[i]
		i = c
	}
	d.inHeap[u] = false
	return u
}
