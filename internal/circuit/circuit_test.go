package circuit

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"velociti/internal/verr"
)

func TestKindMetadata(t *testing.T) {
	cases := []struct {
		k      Kind
		name   string
		arity  int
		params int
	}{
		{H, "h", 1, 0},
		{RZ, "rz", 1, 1},
		{U3, "u3", 1, 3},
		{CX, "cx", 2, 0},
		{XX, "rxx", 2, 1},
		{SWAP, "swap", 2, 0},
	}
	for _, c := range cases {
		if c.k.Name() != c.name {
			t.Errorf("%v.Name = %q, want %q", c.k, c.k.Name(), c.name)
		}
		if c.k.Arity() != c.arity {
			t.Errorf("%s.Arity = %d, want %d", c.name, c.k.Arity(), c.arity)
		}
		if c.k.NumParams() != c.params {
			t.Errorf("%s.NumParams = %d, want %d", c.name, c.k.NumParams(), c.params)
		}
	}
}

func TestKindByName(t *testing.T) {
	for _, k := range Kinds() {
		got, ok := KindByName(k.Name())
		if !ok || got != k {
			t.Errorf("KindByName(%q) = %v,%v", k.Name(), got, ok)
		}
	}
	if _, ok := KindByName("nonsense"); ok {
		t.Errorf("KindByName should reject unknown names")
	}
}

func TestAllKindsHaveMetadata(t *testing.T) {
	for _, k := range Kinds() {
		if k.Name() == "" {
			t.Errorf("kind %d has empty name", k)
		}
		if a := k.Arity(); a != 1 && a != 2 {
			t.Errorf("kind %s has arity %d", k.Name(), a)
		}
	}
	if Kind(-1).Arity() != 0 || Kind(999).NumParams() != 0 {
		t.Errorf("out-of-range kinds should have zero metadata")
	}
	if !strings.Contains(Kind(999).Name(), "kind(") {
		t.Errorf("out-of-range kind name should be diagnostic")
	}
}

func TestNewRejectsNonPositiveWidth(t *testing.T) {
	c := New("bad", 0)
	if err := c.Err(); !verr.IsInput(err) {
		t.Fatalf("New(0) should poison the circuit with an input-kind error, got %v", err)
	}
	// A poisoned circuit stays inert: appends fail, nothing mutates.
	if id := c.H(0); id != -1 {
		t.Fatalf("append on poisoned circuit returned id %d", id)
	}
	if c.NumGates() != 0 {
		t.Fatalf("poisoned circuit accumulated gates")
	}
}

func TestAppendValidation(t *testing.T) {
	mustFail := func(name string, f func(c *Circuit) int) {
		t.Helper()
		c := New("t", 3)
		if id := f(c); id != -1 {
			t.Errorf("%s: id = %d, want -1", name, id)
		}
		if err := c.Err(); !verr.IsInput(err) {
			t.Errorf("%s: want input-kind error, got %v", name, err)
		}
		if c.NumGates() != 0 {
			t.Errorf("%s: failed append mutated the circuit", name)
		}
	}
	mustFail("unknown kind", func(c *Circuit) int { return c.Append(Kind(999), []int{0}) })
	mustFail("wrong arity", func(c *Circuit) int { return c.Append(CX, []int{0}) })
	mustFail("missing params", func(c *Circuit) int { return c.Append(RZ, []int{0}) })
	mustFail("extra params", func(c *Circuit) int { return c.Append(H, []int{0}, 1.0) })
	mustFail("qubit out of range", func(c *Circuit) int { return c.H(3) })
	mustFail("negative qubit", func(c *Circuit) int { return c.H(-1) })
	mustFail("identical 2q operands", func(c *Circuit) int { return c.CX(1, 1) })

	// The first error sticks: later valid appends stay rejected and Err()
	// keeps reporting the original cause.
	c := New("t", 2)
	c.H(9)
	first := c.Err()
	if id := c.H(0); id != -1 {
		t.Fatalf("append after failure returned id %d", id)
	}
	if c.Err() != first {
		t.Fatalf("Err() changed after subsequent appends")
	}
	// Clone carries the poison with it.
	if err := c.Clone().Err(); err != first {
		t.Fatalf("Clone dropped the sticky error: %v", err)
	}
}

func TestAppendAssignsSequentialIDs(t *testing.T) {
	c := New("t", 2)
	if id := c.H(0); id != 0 {
		t.Fatalf("first gate id = %d", id)
	}
	if id := c.CX(0, 1); id != 1 {
		t.Fatalf("second gate id = %d", id)
	}
	if g := c.Gate(1); g.Kind != CX || g.ID != 1 {
		t.Fatalf("Gate(1) = %+v", g)
	}
}

func TestAppendCopiesArguments(t *testing.T) {
	c := New("t", 2)
	qs := []int{0, 1}
	c.Append(CX, qs)
	qs[0] = 1
	if got := c.Gate(0).Qubits[0]; got != 0 {
		t.Fatalf("Append must copy qubit slice; got q%d", got)
	}
}

func TestGateCounts(t *testing.T) {
	c := New("t", 4)
	c.H(0)
	c.H(1)
	c.RZ(0.5, 2)
	c.CX(0, 1)
	c.CX(2, 3)
	if q := c.NumOneQubitGates(); q != 3 {
		t.Errorf("q = %d, want 3", q)
	}
	if p := c.NumTwoQubitGates(); p != 2 {
		t.Errorf("p = %d, want 2", p)
	}
	spec := c.Spec()
	if spec.Qubits != 4 || spec.OneQubitGates != 3 || spec.TwoQubitGates != 2 {
		t.Errorf("Spec = %+v", spec)
	}
	if spec.TotalGates() != 5 {
		t.Errorf("TotalGates = %d", spec.TotalGates())
	}
}

func TestDepth(t *testing.T) {
	c := New("t", 4)
	if c.Depth() != 0 {
		t.Fatalf("empty depth = %d", c.Depth())
	}
	c.H(0)     // layer 1
	c.H(1)     // layer 1 (parallel)
	c.CX(0, 1) // layer 2
	c.CX(2, 3) // layer 1
	c.CX(1, 2) // layer 3 (waits on both)
	if d := c.Depth(); d != 3 {
		t.Fatalf("Depth = %d, want 3", d)
	}
}

func TestLabelsSSA(t *testing.T) {
	// Figure 3 style: repeated gates on the same pair get instance suffixes.
	c := New("t", 3)
	c.CX(0, 1)
	c.CX(1, 2)
	c.CX(1, 0) // same pair as gate 0, reversed direction
	c.CX(0, 1) // third instance
	labels := c.Labels()
	want := []string{"q0q1", "q1q2", "q0q1.2", "q0q1.3"}
	if !reflect.DeepEqual(labels, want) {
		t.Fatalf("Labels = %v, want %v", labels, want)
	}
}

func TestDependencyEdgesChain(t *testing.T) {
	// The paper's Figure 3 example: 7 qubits, 6 2-qubit gates.
	// Gates: q1q2, q3q4, q6q7, q4q5, q5q6, q2q3 (0-indexed here as q0..q6).
	c := New("fig3", 7)
	c.CX(0, 1) // g0: q1q2
	c.CX(2, 3) // g1: q3q4
	c.CX(5, 6) // g2: q6q7
	c.CX(3, 4) // g3: q4q5 (depends on g1 via q4)
	c.CX(4, 5) // g4: q5q6 (depends on g3 via q5, g2 via q6)
	c.CX(1, 2) // g5: q2q3 (depends on g0 via q2, g1 via q3)
	edges := c.DependencyEdges()
	want := [][2]int{{0, 5}, {1, 3}, {1, 5}, {2, 4}, {3, 4}}
	if !reflect.DeepEqual(edges, want) {
		t.Fatalf("DependencyEdges = %v, want %v", edges, want)
	}
}

func TestDependencyEdgesDeduplicated(t *testing.T) {
	// Two consecutive gates sharing BOTH qubits must produce one edge.
	c := New("t", 2)
	c.CX(0, 1)
	c.CX(1, 0)
	edges := c.DependencyEdges()
	if !reflect.DeepEqual(edges, [][2]int{{0, 1}}) {
		t.Fatalf("edges = %v, want single deduplicated edge", edges)
	}
}

func TestDependencyEdgesEmptyAndIndependent(t *testing.T) {
	c := New("t", 4)
	if len(c.DependencyEdges()) != 0 {
		t.Fatalf("empty circuit should have no edges")
	}
	c.CX(0, 1)
	c.CX(2, 3)
	if len(c.DependencyEdges()) != 0 {
		t.Fatalf("disjoint gates should have no edges")
	}
}

func TestInteractionGraph(t *testing.T) {
	c := New("t", 4)
	c.CX(0, 1)
	c.CX(1, 0)
	c.CX(2, 3)
	c.H(0)
	ig := c.InteractionGraph()
	if ig[[2]int{0, 1}] != 2 {
		t.Errorf("pair (0,1) count = %d, want 2 (direction-insensitive)", ig[[2]int{0, 1}])
	}
	if ig[[2]int{2, 3}] != 1 {
		t.Errorf("pair (2,3) count = %d, want 1", ig[[2]int{2, 3}])
	}
	if len(ig) != 2 {
		t.Errorf("interaction graph has %d pairs, want 2", len(ig))
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := New("orig", 2)
	c.RZ(0.25, 0)
	c.CX(0, 1)
	d := c.Clone()
	d.Gates()[0].Params[0] = 9
	d.Gates()[1].Qubits[0] = 1
	if c.Gate(0).Params[0] != 0.25 || c.Gate(1).Qubits[0] != 0 {
		t.Fatalf("Clone must deep-copy gates")
	}
	if d.Name != "orig" || d.NumQubits() != 2 {
		t.Fatalf("Clone metadata wrong: %q %d", d.Name, d.NumQubits())
	}
}

func TestReordered(t *testing.T) {
	c := New("t", 3)
	c.H(0)     // 0
	c.CX(0, 1) // 1
	c.CX(1, 2) // 2
	r := c.Reordered([]int{2, 0, 1})
	if r.Gate(0).Kind != CX || r.Gate(0).Qubits[0] != 1 {
		t.Fatalf("reordered gate 0 = %v", r.Gate(0))
	}
	if r.Gate(1).Kind != H {
		t.Fatalf("reordered gate 1 = %v", r.Gate(1))
	}
	for i := 0; i < 3; i++ {
		if r.Gate(i).ID != i {
			t.Fatalf("ids must be reassigned; gate %d has id %d", i, r.Gate(i).ID)
		}
	}
}

func TestReorderedRejectsBadPermutations(t *testing.T) {
	c := New("t", 2)
	c.H(0)
	c.H(1)
	for _, perm := range [][]int{{0}, {0, 0}, {0, 2}, {-1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("perm %v should panic", perm)
				}
			}()
			c.Reordered(perm)
		}()
	}
}

func TestDecomposeSWAPs(t *testing.T) {
	c := New("t", 3)
	c.H(0)
	c.SWAP(0, 2)
	d := c.DecomposeSWAPs()
	if d.NumGates() != 4 {
		t.Fatalf("gates after decomposition = %d, want 4", d.NumGates())
	}
	if d.Gate(1).Kind != CX || d.Gate(2).Kind != CX || d.Gate(3).Kind != CX {
		t.Fatalf("SWAP should become 3 CX: %v", d.Gates())
	}
	if d.Gate(1).Qubits[0] != 0 || d.Gate(2).Qubits[0] != 2 || d.Gate(3).Qubits[0] != 0 {
		t.Fatalf("CX directions should alternate: %v", d.Gates())
	}
}

func TestStringRendering(t *testing.T) {
	c := New("demo", 2)
	c.RZ(0.5, 0)
	c.CX(0, 1)
	s := c.String()
	for _, want := range []string{"circuit demo", "rz(0.5) q0", "cx q0,q1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q in:\n%s", want, s)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	good := Spec{Name: "ok", Qubits: 4, OneQubitGates: 2, TwoQubitGates: 3}
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	bad := []Spec{
		{Name: "no-qubits", Qubits: 0},
		{Name: "neg-q", Qubits: 4, OneQubitGates: -1},
		{Name: "neg-p", Qubits: 4, TwoQubitGates: -1},
		{Name: "2q-on-1", Qubits: 1, TwoQubitGates: 1},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %q should be invalid", s.Name)
		}
	}
}

func TestSpecRatio(t *testing.T) {
	s := Spec{Qubits: 64, TwoQubitGates: 128}
	if s.TwoQubitRatio() != 2 {
		t.Fatalf("ratio = %v, want 2", s.TwoQubitRatio())
	}
}

// Property: depth never exceeds gate count and is at least
// ceil(gates touching the busiest qubit).
func TestDepthBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(10)
		c := New("p", n)
		gates := r.Intn(50)
		for i := 0; i < gates; i++ {
			if r.Intn(2) == 0 {
				c.H(r.Intn(n))
			} else {
				a := r.Intn(n)
				b := r.Intn(n)
				for b == a {
					b = r.Intn(n)
				}
				c.CX(a, b)
			}
		}
		depth := c.Depth()
		if depth > c.NumGates() {
			return false
		}
		busy := make([]int, n)
		for _, g := range c.Gates() {
			for _, q := range g.Qubits {
				busy[q]++
			}
		}
		maxBusy := 0
		for _, b := range busy {
			if b > maxBusy {
				maxBusy = b
			}
		}
		return depth >= maxBusy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: dependency edges always point forward in program order and
// every non-first gate on a qubit has a predecessor.
func TestDependencyEdgesProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		c := New("p", n)
		for i := 0; i < r.Intn(40); i++ {
			a := r.Intn(n)
			b := r.Intn(n)
			for b == a {
				b = r.Intn(n)
			}
			c.CX(a, b)
		}
		for _, e := range c.DependencyEdges() {
			if e[0] >= e[1] {
				return false
			}
			// Endpoint gates must share a qubit.
			shared := false
			for _, q := range c.Gate(e[0]).Qubits {
				if c.Gate(e[1]).Touches(q) {
					shared = true
				}
			}
			if !shared {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
