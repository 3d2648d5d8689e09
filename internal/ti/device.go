// Package ti models the hardware organization of a QCCD-based trapped-ion
// quantum computer as abstracted by the VelociTI paper (§II-B, Figure 1,
// Table I).
//
// The machine is a set of ion chains. Each chain holds up to ChainLength
// ions (qubits) and offers all-to-all connectivity between the qubits it
// holds. Chains are joined by weak links — slow optical connections — and a
// 2-qubit gate may only operate on two qubits in the same chain or on the
// two edge qubits facing each other across a weak link. Weak-link gates pay
// the latency penalty factor α.
//
// Weak-link topology. The paper reports that 64-qubit applications mapped
// onto chains of length 8/16/24/32 have 8/4/3/2 weak links and the 78-qubit
// SquareRoot has 10/5/4/3 (§VI-B) — i.e. the number of weak links equals
// the number of chains. That corresponds to chains arranged in a ring, with
// one link between each pair of neighbouring chains (two parallel links for
// the degenerate 2-chain ring). Ring is therefore the default topology;
// Line (c−1 links, no wraparound) is available as an ablation.
package ti

import (
	"fmt"
	"velociti/internal/verr"
)

// Topology selects how chains are joined by weak links.
type Topology int

const (
	// Ring joins chain i to chain (i+1) mod c, giving c weak links for
	// c ≥ 2 chains. This matches the weak-link counts in the paper.
	Ring Topology = iota
	// Line joins chain i to chain i+1 only, giving c−1 weak links.
	Line
	// Tape is the linear-tape arrangement of the TILT architecture: the
	// chains sit along one physical tape and chain i connects to chain
	// i+1 only, giving c−1 inter-chain segments. The link structure
	// equals Line; the distinct name exists because the tape is the
	// natural geometry for the shuttle timing backend — a cross-chain
	// interaction between chains i and j must traverse every segment in
	// between, and hop counts grow linearly instead of wrapping around.
	Tape
	// Custom marks a device built from an explicit weak-link list
	// (NewDeviceLinks) rather than a named arrangement. It is not
	// parseable from configuration.
	Custom
)

// String returns the topology name.
func (t Topology) String() string {
	switch t {
	case Ring:
		return "ring"
	case Line:
		return "line"
	case Tape:
		return "tape"
	case Custom:
		return "custom"
	default:
		return fmt.Sprintf("topology(%d)", int(t))
	}
}

// ParseTopology converts a name ("ring", "line", or "tape") to a Topology.
func ParseTopology(s string) (Topology, error) {
	switch s {
	case "ring":
		return Ring, nil
	case "line":
		return Line, nil
	case "tape":
		return Tape, nil
	default:
		return 0, verr.Inputf("ti: unknown topology %q (want \"ring\", \"line\", or \"tape\")", s)
	}
}

// Side identifies one end of an ion chain.
type Side int

const (
	// Left is the low-index end of a chain.
	Left Side = iota
	// Right is the high-index end of a chain.
	Right
)

// String returns "left" or "right".
func (s Side) String() string {
	if s == Left {
		return "left"
	}
	return "right"
}

// Port names one endpoint of a weak link: a specific end of a specific
// chain.
type Port struct {
	Chain int
	Side  Side
}

// WeakLink is a connection between the facing ends of two chains. Only the
// edge qubits sitting at the two ports may participate in a cross-chain
// 2-qubit gate, and such gates pay the α latency penalty.
type WeakLink struct {
	// ID numbers the link within the device, 0-based.
	ID int
	A  Port
	B  Port
}

// Device describes a fixed QCCD trapped-ion machine: a number of chains of
// a given maximum length, joined by weak links in the given topology.
type Device struct {
	chainLength int
	numChains   int
	topology    Topology
	links       []WeakLink
}

// NewDevice constructs a device with the given chain length (maximum ions
// per chain, the paper's presently achievable range being 8–32), number of
// chains, and weak-link topology.
func NewDevice(chainLength, numChains int, topo Topology) (*Device, error) {
	if chainLength <= 0 {
		return nil, verr.Inputf("ti: chain length must be positive, got %d", chainLength)
	}
	if numChains <= 0 {
		return nil, verr.Inputf("ti: number of chains must be positive, got %d", numChains)
	}
	if topo != Ring && topo != Line && topo != Tape {
		return nil, verr.Inputf("ti: invalid topology %d", topo)
	}
	d := &Device{chainLength: chainLength, numChains: numChains, topology: topo}
	d.links = buildLinks(numChains, topo)
	return d, nil
}

// NewDeviceLinks constructs a device from an explicit weak-link list
// instead of a named topology — the hook for modeling irregular QCCD
// interconnects. Link IDs are renumbered 0..len(links)-1 in input order;
// every port must name a valid chain. Unlike the named topologies the
// link set is allowed to leave chain groups disconnected; consumers that
// need a transport path between every chain pair (the shuttle timing
// backend) surface that as an input error at pricing time.
func NewDeviceLinks(chainLength, numChains int, links []WeakLink) (*Device, error) {
	if chainLength <= 0 {
		return nil, verr.Inputf("ti: chain length must be positive, got %d", chainLength)
	}
	if numChains <= 0 {
		return nil, verr.Inputf("ti: number of chains must be positive, got %d", numChains)
	}
	d := &Device{chainLength: chainLength, numChains: numChains, topology: Custom}
	d.links = make([]WeakLink, len(links))
	for i, l := range links {
		for _, p := range [2]Port{l.A, l.B} {
			if p.Chain < 0 || p.Chain >= numChains {
				return nil, verr.Inputf("ti: weak link %d names chain %d, out of range [0,%d)", i, p.Chain, numChains)
			}
			if p.Side != Left && p.Side != Right {
				return nil, verr.Inputf("ti: weak link %d has invalid side %d", i, p.Side)
			}
		}
		l.ID = i
		d.links[i] = l
	}
	return d, nil
}

// DeviceFor constructs the area-optimal device for a workload: the minimum
// number of chains of the given length that hold numQubits qubits
// (c = ⌈numQubits / chainLength⌉), the paper's `opt = area` target (§III-B).
func DeviceFor(numQubits, chainLength int, topo Topology) (*Device, error) {
	if numQubits <= 0 {
		return nil, verr.Inputf("ti: number of qubits must be positive, got %d", numQubits)
	}
	if chainLength <= 0 {
		return nil, verr.Inputf("ti: chain length must be positive, got %d", chainLength)
	}
	chains := (numQubits + chainLength - 1) / chainLength
	return NewDevice(chainLength, chains, topo)
}

func buildLinks(c int, topo Topology) []WeakLink {
	var links []WeakLink
	switch {
	case c == 1:
		// A single chain has no weak links.
	case topo == Line || topo == Tape:
		for i := 0; i+1 < c; i++ {
			links = append(links, WeakLink{
				ID: i,
				A:  Port{Chain: i, Side: Right},
				B:  Port{Chain: i + 1, Side: Left},
			})
		}
	default: // Ring
		for i := 0; i < c; i++ {
			links = append(links, WeakLink{
				ID: i,
				A:  Port{Chain: i, Side: Right},
				B:  Port{Chain: (i + 1) % c, Side: Left},
			})
		}
	}
	return links
}

// ChainLength returns the maximum number of ions per chain.
func (d *Device) ChainLength() int { return d.chainLength }

// NumChains returns the number of chains (the paper's computed parameter c).
func (d *Device) NumChains() int { return d.numChains }

// Topology returns the weak-link topology.
func (d *Device) Topology() Topology { return d.topology }

// TotalCapacity returns the maximum number of qubits the device holds.
func (d *Device) TotalCapacity() int { return d.chainLength * d.numChains }

// MaxWeakLinks returns the paper's computed parameter w_max: the number of
// weak links present in the device.
func (d *Device) MaxWeakLinks() int { return len(d.links) }

// WeakLinks returns the device's weak links. The returned slice is shared;
// callers must not modify it.
func (d *Device) WeakLinks() []WeakLink { return d.links }

// ChainDistances returns the all-pairs chain-hop matrix in row-major order:
// entry a*NumChains()+b is the minimum number of weak links between chains
// a and b (0 when a == b, -1 when no weak-link path joins them). One
// adjacency build plus one BFS per source chain; it is the device's one
// hop-distance table (the delta evaluator prices every cross-chain gate
// against it), and PathLinks names the links of one shortest path.
func (d *Device) ChainDistances() []int32 {
	adj := make([][]int, d.numChains)
	for _, l := range d.links {
		adj[l.A.Chain] = append(adj[l.A.Chain], l.B.Chain)
		adj[l.B.Chain] = append(adj[l.B.Chain], l.A.Chain)
	}
	out := make([]int32, d.numChains*d.numChains)
	queue := make([]int, 0, d.numChains)
	for a := 0; a < d.numChains; a++ {
		row := out[a*d.numChains : (a+1)*d.numChains]
		for i := range row {
			row[i] = -1
		}
		row[a] = 0
		// Each chain enters the queue once, so it never outgrows its
		// capacity: read it by index rather than reslicing its front away.
		queue = append(queue[:0], a)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range adj[u] {
				if row[v] == -1 {
					row[v] = row[u] + 1
					queue = append(queue, v)
				}
			}
		}
	}
	return out
}

// PathLinks returns the weak links along a deterministic shortest path
// between chains a and b (empty when a == b). Ties between equally short
// paths are broken toward the lower-numbered neighbouring chain. A
// cross-chain interaction "uses" exactly these links for the purposes of
// Table I's computed parameter w.
func (d *Device) PathLinks(a, b int) []WeakLink {
	if a == b || a < 0 || b < 0 || a >= d.numChains || b >= d.numChains {
		return nil
	}
	// BFS with parent tracking; neighbours visited in link order makes
	// the chosen path deterministic.
	type hop struct {
		prevChain int
		link      WeakLink
	}
	parent := make([]hop, d.numChains)
	visited := make([]bool, d.numChains)
	visited[a] = true
	queue := []int{a}
	for len(queue) > 0 && !visited[b] {
		u := queue[0]
		queue = queue[1:]
		for _, l := range d.links {
			var v int
			switch {
			case l.A.Chain == u:
				v = l.B.Chain
			case l.B.Chain == u:
				v = l.A.Chain
			default:
				continue
			}
			if !visited[v] {
				visited[v] = true
				parent[v] = hop{prevChain: u, link: l}
				queue = append(queue, v)
			}
		}
	}
	if !visited[b] {
		return nil
	}
	var rev []WeakLink
	for at := b; at != a; at = parent[at].prevChain {
		rev = append(rev, parent[at].link)
	}
	out := make([]WeakLink, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// Fits reports whether a workload with numQubits qubits fits on the device.
func (d *Device) Fits(numQubits int) bool {
	return numQubits >= 0 && numQubits <= d.TotalCapacity()
}

// String renders the device, e.g. "4x16-ion chains (ring, 4 weak links)".
func (d *Device) String() string {
	return fmt.Sprintf("%dx%d-ion chains (%s, %d weak links)",
		d.numChains, d.chainLength, d.topology, len(d.links))
}
