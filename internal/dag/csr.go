// Package dag holds the weighted-graph kernels of VelociTI's parallel
// performance model (§IV-C/D of the paper): a compressed-sparse-row (CSR)
// snapshot of the gate dependency graph, its longest weighted path — the
// circuit's parallel execution time — and an incremental evaluator of that
// path under edge-weight changes (delta.go).
//
// Every CSR here is in program order: node ids are dense [0, NumNodes),
// and every edge points from a lower to a higher id, so one ascending pass
// is a topological traversal.
package dag

import (
	"fmt"
	"strings"
)

// CSR is a compressed-sparse-row snapshot of a weighted directed graph
// whose edges all point forward (source id < target id). The successors
// of node u are Targets[Heads[u]:Heads[u+1]] with matching edge weights in
// Weights[Heads[u]:Heads[u+1]].
type CSR struct {
	// Heads has length NumNodes+1; Heads[0] is 0 and Heads[len(Heads)-1]
	// is the edge count.
	Heads []int32
	// Targets holds destination node ids grouped by source.
	Targets []int32
	// Weights holds the edge weight parallel to Targets.
	Weights []float64
}

// NumNodes returns the number of nodes in the snapshot.
func (c *CSR) NumNodes() int {
	if len(c.Heads) == 0 {
		return 0
	}
	return len(c.Heads) - 1
}

// NumEdges returns the number of edges in the snapshot.
func (c *CSR) NumEdges() int { return len(c.Targets) }

// Scratch holds the reusable working memory of LongestPath. The zero value
// is ready to use; its buffer grows on demand and is retained across
// calls, so a Scratch kept by the caller makes repeated longest-path
// evaluations allocation-free.
type Scratch struct {
	dist []float64
}

// LongestPath computes the maximum total edge weight over all directed
// paths in the snapshot, in one forward pass. scratch may be nil (a
// temporary one is used).
func (c *CSR) LongestPath(scratch *Scratch) float64 {
	best, _ := c.LongestPathInto(scratch)
	return best
}

// LongestPathInto is LongestPath that additionally returns the per-node
// distances (heaviest path ending at each node). The slice aliases
// scratch's buffer and is valid until the next call using the same
// Scratch.
func (c *CSR) LongestPathInto(scratch *Scratch) (float64, []float64) {
	n := c.NumNodes()
	if scratch == nil {
		scratch = &Scratch{}
	}
	if cap(scratch.dist) < n {
		scratch.dist = make([]float64, n)
	}
	dist := scratch.dist[:n]
	for i := range dist {
		dist[i] = 0
	}
	best := 0.0
	for u := 0; u < n; u++ {
		du := dist[u]
		if du > best {
			best = du
		}
		for i := c.Heads[u]; i < c.Heads[u+1]; i++ {
			if d := du + c.Weights[i]; d > dist[c.Targets[i]] {
				dist[c.Targets[i]] = d
			}
		}
	}
	return best, dist
}

// DOT renders the graph in Graphviz DOT format, node i labelled labels[i].
// Start nodes — nodes no edge enters — are drawn with a double circle,
// matching the paper's Figure 3 convention; edges are labelled with their
// weights.
func (c *CSR) DOT(name string, labels []string) string {
	entered := make([]bool, c.NumNodes())
	for _, v := range c.Targets {
		entered[v] = true
	}
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	for id, label := range labels {
		shape := "doublecircle"
		if entered[id] {
			shape = "circle"
		}
		fmt.Fprintf(&b, "  n%d [label=%q shape=%s];\n", id, label, shape)
	}
	for u := 0; u < c.NumNodes(); u++ {
		for i := c.Heads[u]; i < c.Heads[u+1]; i++ {
			fmt.Fprintf(&b, "  n%d -> n%d [label=%q];\n", u, c.Targets[i], fmt.Sprintf("%g", c.Weights[i]))
		}
	}
	b.WriteString("}\n")
	return b.String()
}
