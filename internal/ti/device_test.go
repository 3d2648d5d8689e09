package ti

import (
	"testing"
)

func TestNewDeviceValidation(t *testing.T) {
	cases := []struct {
		name           string
		length, chains int
		topo           Topology
		wantErr        bool
	}{
		{"ok", 16, 4, Ring, false},
		{"zero length", 0, 4, Ring, true},
		{"negative chains", 16, -1, Ring, true},
		{"bad topology", 16, 4, Topology(9), true},
		{"single chain", 32, 1, Ring, false},
	}
	for _, c := range cases {
		_, err := NewDevice(c.length, c.chains, c.topo)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: err = %v, wantErr = %v", c.name, err, c.wantErr)
		}
	}
}

// The paper's weak-link counts (§VI-B): 64-qubit apps on chains of
// 8/16/24/32 have 8/4/3/2 weak links; 78-qubit SquareRoot has 10/5/4/3.
func TestWeakLinkCountsMatchPaper(t *testing.T) {
	cases := []struct {
		qubits, chainLen, wantChains, wantLinks int
	}{
		{64, 8, 8, 8},
		{64, 16, 4, 4},
		{64, 24, 3, 3},
		{64, 32, 2, 2},
		{78, 8, 10, 10},
		{78, 16, 5, 5},
		{78, 24, 4, 4},
		{78, 32, 3, 3},
	}
	for _, c := range cases {
		d, err := DeviceFor(c.qubits, c.chainLen, Ring)
		if err != nil {
			t.Fatalf("DeviceFor(%d,%d): %v", c.qubits, c.chainLen, err)
		}
		if d.NumChains() != c.wantChains {
			t.Errorf("%d qubits, chain %d: chains = %d, want %d", c.qubits, c.chainLen, d.NumChains(), c.wantChains)
		}
		if d.MaxWeakLinks() != c.wantLinks {
			t.Errorf("%d qubits, chain %d: links = %d, want %d", c.qubits, c.chainLen, d.MaxWeakLinks(), c.wantLinks)
		}
	}
}

func TestSingleChainHasNoLinks(t *testing.T) {
	for _, topo := range []Topology{Ring, Line} {
		d, err := NewDevice(32, 1, topo)
		if err != nil {
			t.Fatal(err)
		}
		if d.MaxWeakLinks() != 0 {
			t.Errorf("%v single chain: links = %d, want 0", topo, d.MaxWeakLinks())
		}
	}
}

func TestLineTopologyLinkCount(t *testing.T) {
	for c := 2; c <= 8; c++ {
		d, err := NewDevice(8, c, Line)
		if err != nil {
			t.Fatal(err)
		}
		if d.MaxWeakLinks() != c-1 {
			t.Errorf("line %d chains: links = %d, want %d", c, d.MaxWeakLinks(), c-1)
		}
	}
}

func TestRingTwoChainsHasTwoLinks(t *testing.T) {
	d, err := NewDevice(32, 2, Ring)
	if err != nil {
		t.Fatal(err)
	}
	if d.MaxWeakLinks() != 2 {
		t.Fatalf("2-chain ring: links = %d, want 2 (paper reports 2 for 64 qubits @ 32)", d.MaxWeakLinks())
	}
	links := d.WeakLinks()
	if links[0].A.Chain != 0 || links[0].B.Chain != 1 || links[1].A.Chain != 1 || links[1].B.Chain != 0 {
		t.Fatalf("2-chain ring link endpoints wrong: %+v", links)
	}
}

func TestLinkPortsWellFormed(t *testing.T) {
	d, _ := NewDevice(8, 5, Ring)
	for i, l := range d.WeakLinks() {
		if l.ID != i {
			t.Errorf("link %d has ID %d", i, l.ID)
		}
		if l.A.Side != Right || l.B.Side != Left {
			t.Errorf("link %d: ports %v -> %v, want Right -> Left", i, l.A, l.B)
		}
		if l.B.Chain != (l.A.Chain+1)%5 {
			t.Errorf("link %d joins %d and %d, want successive chains", i, l.A.Chain, l.B.Chain)
		}
	}
}

func TestChainDistance(t *testing.T) {
	ring, _ := NewDevice(8, 6, Ring)
	m := ring.ChainDistances()
	cases := []struct{ a, b, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 3, 3}, {0, 5, 1}, {0, 4, 2},
	}
	for _, c := range cases {
		if got := m[c.a*ring.NumChains()+c.b]; got != int32(c.want) {
			t.Errorf("ring distance(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	line, _ := NewDevice(8, 6, Line)
	if got := line.ChainDistances()[5]; got != 5 {
		t.Errorf("line distance(0,5) = %d, want 5", got)
	}
}

// TestChainDistancesMatchesPairwise pins the all-pairs matrix against the
// length of each pair's PathLinks, an independent BFS, disconnected chains
// included: a pair of distinct chains with no path is -1.
func TestChainDistancesMatchesPairwise(t *testing.T) {
	ring, _ := NewDevice(8, 6, Ring)
	line, _ := NewDevice(8, 6, Line)
	split, err := NewDeviceLinks(8, 4, []WeakLink{
		{A: Port{Chain: 0, Side: Right}, B: Port{Chain: 1, Side: Left}},
		{A: Port{Chain: 2, Side: Right}, B: Port{Chain: 3, Side: Left}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Device{ring, line, split} {
		nc := d.NumChains()
		m := d.ChainDistances()
		if len(m) != nc*nc {
			t.Fatalf("matrix size %d, want %d", len(m), nc*nc)
		}
		for a := 0; a < nc; a++ {
			for b := 0; b < nc; b++ {
				want := int32(len(d.PathLinks(a, b)))
				if a != b && want == 0 {
					want = -1
				}
				if got := m[a*nc+b]; got != want {
					t.Errorf("%s: matrix(%d,%d) = %d, want %d", d, a, b, got, want)
				}
			}
		}
	}
}

func TestDeviceForCapacity(t *testing.T) {
	d, err := DeviceFor(78, 16, Ring)
	if err != nil {
		t.Fatal(err)
	}
	if d.TotalCapacity() != 80 {
		t.Errorf("capacity = %d, want 80", d.TotalCapacity())
	}
	if !d.Fits(78) || !d.Fits(80) || d.Fits(81) || d.Fits(-1) {
		t.Errorf("Fits misbehaves for capacity 80")
	}
}

func TestDeviceForValidation(t *testing.T) {
	if _, err := DeviceFor(0, 16, Ring); err == nil {
		t.Errorf("zero qubits should fail")
	}
	if _, err := DeviceFor(10, 0, Ring); err == nil {
		t.Errorf("zero chain length should fail")
	}
}

func TestTopologyParseAndString(t *testing.T) {
	for _, name := range []string{"ring", "line"} {
		topo, err := ParseTopology(name)
		if err != nil {
			t.Fatal(err)
		}
		if topo.String() != name {
			t.Errorf("round trip %q -> %q", name, topo.String())
		}
	}
	if _, err := ParseTopology("mesh"); err == nil {
		t.Errorf("unknown topology should fail to parse")
	}
}

func TestDeviceString(t *testing.T) {
	d, _ := NewDevice(16, 4, Ring)
	want := "4x16-ion chains (ring, 4 weak links)"
	if d.String() != want {
		t.Errorf("String = %q, want %q", d.String(), want)
	}
}

func TestPathLinksLine(t *testing.T) {
	d, _ := NewDevice(4, 5, Line)
	path := d.PathLinks(0, 3)
	if len(path) != 3 {
		t.Fatalf("path length = %d, want 3", len(path))
	}
	// Consecutive links share the intermediate chains 1 and 2.
	for i, l := range path {
		if l.A.Chain != i || l.B.Chain != i+1 {
			t.Fatalf("hop %d joins %d-%d", i, l.A.Chain, l.B.Chain)
		}
	}
	if got := d.PathLinks(2, 2); got != nil {
		t.Fatalf("same chain should give empty path")
	}
	if got := d.PathLinks(-1, 2); got != nil {
		t.Fatalf("invalid chain should give nil")
	}
}

func TestPathLinksRingTakesShortSide(t *testing.T) {
	d, _ := NewDevice(4, 6, Ring)
	// 0 → 5 is one hop around the wrap link.
	path := d.PathLinks(0, 5)
	if len(path) != 1 {
		t.Fatalf("wraparound path length = %d, want 1", len(path))
	}
	// 0 → 3 is three hops either way; path must still be length 3 and
	// consistent with ChainDistances.
	path = d.PathLinks(0, 3)
	if dist := d.ChainDistances()[3]; len(path) != int(dist) {
		t.Fatalf("path length %d != distance %d", len(path), dist)
	}
	// Determinism.
	again := d.PathLinks(0, 3)
	for i := range path {
		if path[i].ID != again[i].ID {
			t.Fatalf("PathLinks not deterministic")
		}
	}
}

func TestTapeTopology(t *testing.T) {
	// A linear tape has the Line's link structure: c−1 links, no
	// wraparound — but names the ion-transport interconnect.
	d := mustDevice(t, 4, 5, Tape)
	if got := d.MaxWeakLinks(); got != 4 {
		t.Errorf("tape links = %d, want 4", got)
	}
	if d.String() == "" || d.Topology().String() != "tape" {
		t.Errorf("tape String = %q", d.Topology().String())
	}
	// Hop counts are the defining difference from the ring: the tape has
	// no short way around, so end-to-end distance is c−1, not 1.
	ring := mustDevice(t, 4, 5, Ring)
	if got := d.ChainDistances()[4]; got != 4 {
		t.Errorf("tape end-to-end distance = %d, want 4", got)
	}
	if got := ring.ChainDistances()[4]; got != 1 {
		t.Errorf("ring wraparound distance = %d, want 1", got)
	}
	if got := len(d.PathLinks(0, 4)); got != 4 {
		t.Errorf("tape end-to-end path = %d links, want 4", got)
	}
	if got := len(ring.PathLinks(0, 4)); got != 1 {
		t.Errorf("ring end-to-end path = %d links, want 1", got)
	}
}

func TestParseTopologyTape(t *testing.T) {
	topo, err := ParseTopology("tape")
	if err != nil || topo != Tape {
		t.Fatalf("ParseTopology(tape) = %v, %v", topo, err)
	}
	// "custom" is a constructor-only topology, not a parseable name.
	if _, err := ParseTopology("custom"); err == nil {
		t.Fatal("custom should not parse")
	}
}

func TestNewDeviceLinksValidation(t *testing.T) {
	if _, err := NewDeviceLinks(0, 2, nil); err == nil {
		t.Error("zero chain length should fail")
	}
	if _, err := NewDeviceLinks(4, 0, nil); err == nil {
		t.Error("zero chains should fail")
	}
	if _, err := NewDeviceLinks(4, 2, []WeakLink{
		{A: Port{Chain: 5, Side: Right}, B: Port{Chain: 1, Side: Left}},
	}); err == nil {
		t.Error("out-of-range chain should fail")
	}
	if _, err := NewDeviceLinks(4, 2, []WeakLink{
		{A: Port{Chain: 0, Side: 7}, B: Port{Chain: 1, Side: Left}},
	}); err == nil {
		t.Error("invalid side should fail")
	}
	d, err := NewDeviceLinks(4, 3, []WeakLink{
		{ID: 99, A: Port{Chain: 0, Side: Right}, B: Port{Chain: 1, Side: Left}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Topology() != Custom {
		t.Errorf("topology = %v, want Custom", d.Topology())
	}
	if d.WeakLinks()[0].ID != 0 {
		t.Errorf("link ID should be renumbered in input order, got %d", d.WeakLinks()[0].ID)
	}
	// Disconnected chain pairs are permitted and report distance −1.
	if got := d.ChainDistances()[2]; got != -1 {
		t.Errorf("disconnected distance = %d, want -1", got)
	}
}
