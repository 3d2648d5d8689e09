package ti

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func mustDevice(t *testing.T, length, chains int, topo Topology) *Device {
	t.Helper()
	d, err := NewDevice(length, chains, topo)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustLayout(t *testing.T, d *Device, chains [][]int) *Layout {
	t.Helper()
	l, err := NewLayout(d, chains)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewLayoutValidation(t *testing.T) {
	d := mustDevice(t, 4, 2, Ring)
	cases := []struct {
		name   string
		chains [][]int
	}{
		{"wrong chain count", [][]int{{0, 1}}},
		{"chain too long", [][]int{{0, 1, 2, 3, 4}, {5}}},
		{"duplicate qubit", [][]int{{0, 1}, {1, 2}}},
		{"qubit out of range", [][]int{{0, 9}, {1}}},
		{"negative qubit", [][]int{{0, -1}, {1}}},
	}
	for _, c := range cases {
		if _, err := NewLayout(d, c.chains); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if _, err := NewLayout(nil, nil); err == nil {
		t.Errorf("nil device should be rejected")
	}
}

func TestLayoutAccessors(t *testing.T) {
	d := mustDevice(t, 4, 2, Ring)
	l := mustLayout(t, d, [][]int{{3, 0, 2}, {1, 4}})
	if l.NumQubits() != 5 {
		t.Fatalf("NumQubits = %d", l.NumQubits())
	}
	if l.ChainOf(3) != 0 || l.ChainOf(4) != 1 {
		t.Errorf("ChainOf wrong: %d %d", l.ChainOf(3), l.ChainOf(4))
	}
	if l.SlotOf(0) != 1 || l.SlotOf(2) != 2 {
		t.Errorf("SlotOf wrong: %d %d", l.SlotOf(0), l.SlotOf(2))
	}
	if !reflect.DeepEqual(l.Chain(1), []int{1, 4}) {
		t.Errorf("Chain(1) = %v", l.Chain(1))
	}
	if l.Device() != d {
		t.Errorf("Device accessor broken")
	}
}

func TestEdgeQubits(t *testing.T) {
	d := mustDevice(t, 4, 3, Ring)
	l := mustLayout(t, d, [][]int{{3, 0, 2}, {1}, {}})
	if q, ok := l.EdgeQubit(0, Left); !ok || q != 3 {
		t.Errorf("left edge of chain 0 = %d,%v", q, ok)
	}
	if q, ok := l.EdgeQubit(0, Right); !ok || q != 2 {
		t.Errorf("right edge of chain 0 = %d,%v", q, ok)
	}
	if q, ok := l.EdgeQubit(1, Left); !ok || q != 1 {
		t.Errorf("single-qubit chain left edge = %d,%v", q, ok)
	}
	if q, ok := l.EdgeQubit(1, Right); !ok || q != 1 {
		t.Errorf("single-qubit chain right edge = %d,%v", q, ok)
	}
	if _, ok := l.EdgeQubit(2, Left); ok {
		t.Errorf("empty chain should have no edge qubit")
	}
}

func TestLegal2QSameChain(t *testing.T) {
	d := mustDevice(t, 4, 2, Ring)
	l := mustLayout(t, d, [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}})
	// All-to-all within a chain.
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			if a != b && !l.Legal2Q(a, b) {
				t.Errorf("intra-chain pair (%d,%d) should be legal", a, b)
			}
		}
	}
	if l.Legal2Q(1, 1) {
		t.Errorf("same-qubit pair must be illegal")
	}
}

func TestLegal2QWeakLink(t *testing.T) {
	d := mustDevice(t, 4, 2, Ring)
	l := mustLayout(t, d, [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}})
	// Ring of 2 chains: link0 joins right(chain0)=3 with left(chain1)=4;
	// link1 joins right(chain1)=7 with left(chain0)=0.
	legalCross := [][2]int{{3, 4}, {4, 3}, {7, 0}, {0, 7}}
	for _, p := range legalCross {
		if !l.Legal2Q(p[0], p[1]) {
			t.Errorf("weak-link pair (%d,%d) should be legal", p[0], p[1])
		}
	}
	illegalCross := [][2]int{{1, 4}, {3, 5}, {2, 6}, {0, 4}, {3, 7}}
	for _, p := range illegalCross {
		if l.Legal2Q(p[0], p[1]) {
			t.Errorf("non-edge cross pair (%d,%d) must be illegal", p[0], p[1])
		}
	}
	if wl, ok := l.WeakLinkFor(3, 4); !ok || wl.ID != 0 {
		t.Errorf("WeakLinkFor(3,4) = %+v,%v", wl, ok)
	}
	if wl, ok := l.WeakLinkFor(0, 7); !ok || wl.ID != 1 {
		t.Errorf("WeakLinkFor(0,7) = %+v,%v", wl, ok)
	}
	if _, ok := l.WeakLinkFor(1, 5); ok {
		t.Errorf("interior qubits must not form a weak link")
	}
}

func TestLinkQubits(t *testing.T) {
	d := mustDevice(t, 4, 3, Ring)
	l := mustLayout(t, d, [][]int{{0, 1}, {2, 3}, {}})
	links := d.WeakLinks()
	a, b, ok := l.LinkQubits(links[0]) // chain0.right -> chain1.left
	if !ok || a != 1 || b != 2 {
		t.Errorf("LinkQubits(link0) = %d,%d,%v", a, b, ok)
	}
	if _, _, ok := l.LinkQubits(links[1]); ok {
		t.Errorf("link into empty chain should report !ok")
	}
}

func TestLegalPairsEnumeration(t *testing.T) {
	d := mustDevice(t, 3, 2, Ring)
	l := mustLayout(t, d, [][]int{{0, 1, 2}, {3, 4, 5}})
	pairs := l.LegalPairs()
	// Intra-chain: C(3,2)*2 = 6. Weak links: (2,3) and (0,5). Total 8.
	if len(pairs) != 8 {
		t.Fatalf("LegalPairs count = %d, want 8: %v", len(pairs), pairs)
	}
	for _, p := range pairs {
		if !l.Legal2Q(p[0], p[1]) {
			t.Errorf("enumerated pair %v not legal", p)
		}
		if p[0] >= p[1] {
			t.Errorf("pair %v not canonical", p)
		}
	}
	// Spot-check sortedness.
	for i := 1; i < len(pairs); i++ {
		if pairs[i-1][0] > pairs[i][0] ||
			(pairs[i-1][0] == pairs[i][0] && pairs[i-1][1] >= pairs[i][1]) {
			t.Errorf("pairs not sorted at %d: %v", i, pairs)
		}
	}
}

func TestLegalPairsMatchesLegal2QExhaustively(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		chainLen := 2 + r.Intn(4)
		numChains := 1 + r.Intn(4)
		topo := Ring
		if r.Intn(2) == 0 {
			topo = Line
		}
		d := mustDevice(t, chainLen, numChains, topo)
		n := 1 + r.Intn(d.TotalCapacity())
		perm := r.Perm(n)
		chains := make([][]int, numChains)
		for i, q := range perm {
			c := i % numChains
			if len(chains[c]) < chainLen {
				chains[c] = append(chains[c], q)
			} else {
				// Find any chain with room.
				for cc := 0; cc < numChains; cc++ {
					if len(chains[cc]) < chainLen {
						chains[cc] = append(chains[cc], q)
						break
					}
				}
			}
		}
		l := mustLayout(t, d, chains)
		want := make(map[[2]int]bool)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if l.Legal2Q(a, b) {
					want[[2]int{a, b}] = true
				}
			}
		}
		got := l.LegalPairs()
		if len(got) != len(want) {
			t.Fatalf("trial %d: enumerated %d pairs, exhaustive says %d\n%s", trial, len(got), len(want), l)
		}
		for _, p := range got {
			if !want[p] {
				t.Fatalf("trial %d: pair %v enumerated but not legal", trial, p)
			}
		}
	}
}

func TestLayoutString(t *testing.T) {
	d := mustDevice(t, 2, 2, Ring)
	l := mustLayout(t, d, [][]int{{0}, {1}})
	s := l.String()
	if !strings.Contains(s, "chain 0: q0") || !strings.Contains(s, "chain 1: q1") {
		t.Errorf("layout string malformed:\n%s", s)
	}
}

func TestLayoutPanicsOnBadQubit(t *testing.T) {
	d := mustDevice(t, 2, 1, Ring)
	l := mustLayout(t, d, [][]int{{0, 1}})
	defer func() {
		if recover() == nil {
			t.Fatalf("ChainOf on invalid qubit should panic")
		}
	}()
	l.ChainOf(5)
}
