package circuit_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"velociti/internal/apps"
	"velociti/internal/circuit"
	"velociti/internal/placement"
	"velociti/internal/schedule"
	"velociti/internal/stats"
	"velociti/internal/ti"
	"velociti/internal/workload"
)

// qubitKey is the reference label fragment of a gate's qubit set: the
// sorted qubit ids, each printed as "q<id>".
func qubitKey(g circuit.Gate) string {
	qs := append([]int(nil), g.Qubits...)
	sort.Ints(qs)
	var b strings.Builder
	for _, q := range qs {
		fmt.Fprintf(&b, "q%d", q)
	}
	return b.String()
}

// referenceLabels is the reference labeller: instances counted per
// qubit-set string, the suffix printed from the second instance on.
func referenceLabels(c *circuit.Circuit) []string {
	counts := make(map[string]int)
	labels := make([]string, c.NumGates())
	for i, g := range c.Gates() {
		key := qubitKey(g)
		counts[key]++
		if counts[key] == 1 {
			labels[i] = key
		} else {
			labels[i] = fmt.Sprintf("%s.%d", key, counts[key])
		}
	}
	return labels
}

// checkLabels asserts that Labels and LabelText agree with the reference.
func checkLabels(t *testing.T, tag string, c *circuit.Circuit) {
	t.Helper()
	want := referenceLabels(c)
	got := c.Labels()
	if len(got) != len(want) {
		t.Fatalf("%s: %d labels, want %d", tag, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: gate %d (%s) labelled %q, want %q", tag, i, c.Gate(i), got[i], want[i])
		}
	}
	text, ends := c.LabelText()
	if len(ends) != len(want) || text != strings.Join(want, "") {
		t.Fatalf("%s: LabelText is not the concatenated labels", tag)
	}
}

func TestQubitKeyCanonical(t *testing.T) {
	c := circuit.New("t", 8)
	c.CX(5, 3)
	if key := qubitKey(c.Gate(0)); key != "q3q5" {
		t.Fatalf("qubitKey = %q, want q3q5 (sorted)", key)
	}
	c.H(7)
	if key := qubitKey(c.Gate(1)); key != "q7" {
		t.Fatalf("qubitKey = %q", key)
	}
	if got, want := c.Labels(), []string{"q3q5", "q7"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Labels = %v, want %v", got, want)
	}
}

// TestLabelsMatchReferenceOnGenerators runs every Table II generator and
// the workload generators, explicit and spec-synthesized, through both
// labellers.
func TestLabelsMatchReferenceOnGenerators(t *testing.T) {
	for _, a := range apps.Catalog() {
		c, err := a.Build()
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		checkLabels(t, a.Name(), c)
	}
	rc, err := workload.RandomCircuit(40, 3000, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	checkLabels(t, "RandomCircuit", rc)

	qv, err := workload.QuantumVolume(32)
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := workload.RatioCircuit(24, 2)
	if err != nil {
		t.Fatal(err)
	}
	specs := append([]circuit.Spec{qv, ratio, apps.PaperSpecs()[3]}, workload.Fig5Grid()...)
	for i, spec := range specs {
		d, err := ti.DeviceFor(spec.Qubits, 16, ti.Ring)
		if err != nil {
			t.Fatal(err)
		}
		r := stats.NewRand(int64(i + 1))
		l, err := placement.Random{}.Place(d, spec.Qubits, r)
		if err != nil {
			t.Fatal(err)
		}
		c, err := schedule.Random{}.Place(spec, l, r)
		if err != nil {
			t.Fatal(err)
		}
		checkLabels(t, spec.Name, c)
	}
}

// randomLabelCircuit draws a circuit whose gates mostly land on a few hot
// qubits, so qubit sets repeat often, with operands in either order.
func randomLabelCircuit(r *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("rand-%dq", n), n)
	hot := []int{r.Intn(n), r.Intn(n), r.Intn(n), n - 1}
	pick := func() int {
		if r.Intn(3) > 0 {
			return hot[r.Intn(len(hot))]
		}
		return r.Intn(n)
	}
	for i := 0; i < gates; i++ {
		a := pick()
		if n < 2 || r.Intn(3) == 0 {
			c.H(a)
			continue
		}
		b := pick()
		for b == a {
			b = r.Intn(n)
		}
		c.CX(a, b)
	}
	return c
}

// TestLabelsMatchReferenceOnRandomCircuits is the property test: seeded
// random circuits label identically under both labellers, and the drawn
// circuits provably cover the shapes that matter — reversed operands,
// multi-digit qubit ids, instance counts of 10 and more, 1- and 2-qubit
// gates on the same qubit, and the empty circuit.
func TestLabelsMatchReferenceOnRandomCircuits(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var reversed, id10, id100, tenInstances, mixed, empty bool
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(150)
		gates := r.Intn(400)
		if trial == 0 {
			gates = 0
		}
		c := randomLabelCircuit(r, n, gates)
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		checkLabels(t, fmt.Sprintf("trial %d (%d qubits, %d gates)", trial, n, gates), c)

		empty = empty || c.NumGates() == 0
		arity := make(map[int]int)
		for _, g := range c.Gates() {
			for _, q := range g.Qubits {
				arity[q] |= len(g.Qubits)
				id10 = id10 || q >= 10
				id100 = id100 || q >= 100
			}
			reversed = reversed || (g.IsTwoQubit() && g.Qubits[0] > g.Qubits[1])
		}
		for _, a := range arity {
			mixed = mixed || a == 3
		}
		for _, l := range c.Labels() {
			if i := strings.IndexByte(l, '.'); i >= 0 && len(l)-i-1 >= 2 {
				tenInstances = true
			}
		}
	}
	for what, seen := range map[string]bool{
		"reversed operands":                 reversed,
		"qubit id >= 10":                    id10,
		"qubit id >= 100":                   id100,
		"a qubit set with 10+ gates":        tenInstances,
		"1- and 2-qubit gates on one qubit": mixed,
		"the empty circuit":                 empty,
	} {
		if !seen {
			t.Errorf("random circuits never covered %s", what)
		}
	}
}
