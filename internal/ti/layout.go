package ti

import (
	"fmt"
	"sort"
	"strings"
)

// Layout is a concrete assignment of a workload's qubits onto a device's
// chains — the paper's "netlist" produced by the hardware-implementation
// module (§V-A). Each chain holds an ordered sequence of qubits; the first
// and last qubits of a chain are its edge qubits, the only ones that may
// participate in weak-link gates.
type Layout struct {
	device  *Device
	chains  [][]int // chains[c] = qubit ids in slot order
	chainOf []int   // chainOf[q] = chain index
	slotOf  []int   // slotOf[q] = position within chain
}

// NewLayout builds a layout from an explicit chain assignment: chains[c]
// lists the qubits placed on chain c in slot order. Every qubit id in
// [0, n) must appear exactly once, where n is the total count; chain counts
// and lengths must respect the device.
func NewLayout(d *Device, chains [][]int) (*Layout, error) {
	if d == nil {
		return nil, fmt.Errorf("ti: layout requires a device")
	}
	if len(chains) != d.NumChains() {
		return nil, fmt.Errorf("ti: layout has %d chains, device has %d", len(chains), d.NumChains())
	}
	n := 0
	for c, qs := range chains {
		if len(qs) > d.ChainLength() {
			return nil, fmt.Errorf("ti: chain %d holds %d qubits, exceeds chain length %d", c, len(qs), d.ChainLength())
		}
		n += len(qs)
	}
	l := &Layout{
		device:  d,
		chains:  make([][]int, len(chains)),
		chainOf: make([]int, n),
		slotOf:  make([]int, n),
	}
	for i := range l.chainOf {
		l.chainOf[i] = -1
	}
	for c, qs := range chains {
		l.chains[c] = append([]int(nil), qs...)
		for s, q := range qs {
			if q < 0 || q >= n {
				return nil, fmt.Errorf("ti: qubit id q%d out of range [0,%d)", q, n)
			}
			if l.chainOf[q] != -1 {
				return nil, fmt.Errorf("ti: qubit q%d placed twice", q)
			}
			l.chainOf[q] = c
			l.slotOf[q] = s
		}
	}
	return l, nil
}

// Device returns the device this layout targets.
func (l *Layout) Device() *Device { return l.device }

// NumQubits returns the number of placed qubits.
func (l *Layout) NumQubits() int { return len(l.chainOf) }

// ChainOf returns the chain holding qubit q. It panics on an invalid id.
func (l *Layout) ChainOf(q int) int {
	l.check(q)
	return l.chainOf[q]
}

// ChainAssignments returns the per-qubit chain table: entry q is ChainOf(q).
// The returned slice is the layout's backing store and must not be modified;
// hot classification kernels index it directly instead of paying ChainOf's
// per-call validation.
func (l *Layout) ChainAssignments() []int { return l.chainOf }

// SlotOf returns qubit q's position within its chain.
func (l *Layout) SlotOf(q int) int {
	l.check(q)
	return l.slotOf[q]
}

func (l *Layout) check(q int) {
	if q < 0 || q >= len(l.chainOf) {
		panic(fmt.Sprintf("ti: qubit q%d out of range [0,%d)", q, len(l.chainOf)))
	}
}

// Chain returns the qubits on chain c in slot order. The slice is shared;
// callers must not modify it.
func (l *Layout) Chain(c int) []int {
	if c < 0 || c >= len(l.chains) {
		panic(fmt.Sprintf("ti: chain %d out of range [0,%d)", c, len(l.chains)))
	}
	return l.chains[c]
}

// EdgeQubit returns the qubit sitting at the given side of chain c, and
// false if the chain is empty. For a single-qubit chain both sides return
// that qubit.
func (l *Layout) EdgeQubit(c int, s Side) (int, bool) {
	qs := l.Chain(c)
	if len(qs) == 0 {
		return 0, false
	}
	if s == Left {
		return qs[0], true
	}
	return qs[len(qs)-1], true
}

// LinkQubits returns the pair of qubits sitting at the two ports of weak
// link wl, and false if either port's chain is empty.
func (l *Layout) LinkQubits(wl WeakLink) (a, b int, ok bool) {
	a, okA := l.EdgeQubit(wl.A.Chain, wl.A.Side)
	b, okB := l.EdgeQubit(wl.B.Chain, wl.B.Side)
	return a, b, okA && okB
}

// SameChain reports whether qubits a and b sit on the same chain.
func (l *Layout) SameChain(a, b int) bool {
	l.check(a)
	l.check(b)
	return l.chainOf[a] == l.chainOf[b]
}

// WeakLinkFor returns the weak link whose two ports are exactly qubits
// a and b (in either order), and false when no such link exists. This is
// the legality test for cross-chain gates: "communication between two
// chains via a gate must occur via the weak link connection, and only the
// qubits on the edge of a weak link can be used" (§III-B).
func (l *Layout) WeakLinkFor(a, b int) (WeakLink, bool) {
	l.check(a)
	l.check(b)
	for _, wl := range l.device.WeakLinks() {
		qa, qb, ok := l.LinkQubits(wl)
		if !ok {
			continue
		}
		if (qa == a && qb == b) || (qa == b && qb == a) {
			return wl, true
		}
	}
	return WeakLink{}, false
}

// Legal2Q reports whether a 2-qubit gate may operate on qubits a and b:
// both on the same chain, or spanning a weak link.
func (l *Layout) Legal2Q(a, b int) bool {
	if a == b {
		return false
	}
	if l.SameChain(a, b) {
		return true
	}
	_, ok := l.WeakLinkFor(a, b)
	return ok
}

// LegalPairs returns every unordered qubit pair on which a 2-qubit gate may
// operate, sorted lexicographically. Random gate placement draws uniformly
// from this set.
func (l *Layout) LegalPairs() [][2]int {
	var out [][2]int
	for _, qs := range l.chains {
		for i := 0; i < len(qs); i++ {
			for j := i + 1; j < len(qs); j++ {
				a, b := qs[i], qs[j]
				if a > b {
					a, b = b, a
				}
				out = append(out, [2]int{a, b})
			}
		}
	}
	seen := make(map[[2]int]bool, len(out))
	for _, p := range out {
		seen[p] = true
	}
	for _, wl := range l.device.WeakLinks() {
		a, b, ok := l.LinkQubits(wl)
		if !ok || a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		p := [2]int{a, b}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// String renders the layout chain by chain.
func (l *Layout) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "layout on %s:\n", l.device)
	for c, qs := range l.chains {
		fmt.Fprintf(&b, "  chain %d:", c)
		for _, q := range qs {
			fmt.Fprintf(&b, " q%d", q)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
