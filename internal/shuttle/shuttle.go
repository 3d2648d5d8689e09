// Package shuttle models ion transport as the alternative cross-chain
// communication mechanism in QCCD trapped-ion machines.
//
// The VelociTI paper models cross-chain gates over photonic weak links at a
// flat α·γ penalty. The QCCD literature it builds on (Kielpinski et al.'s
// original architecture, Pino et al.'s demonstration — the paper's
// references [35] and [52] — and Murali et al.'s ISCA'20 study [48])
// instead physically *shuttles* ions between traps: the ion is split out of
// its chain, moved through the trap array, merged into the destination
// chain, the chain is recooled, and the 2-qubit gate then executes locally
// at the ordinary γ. This package prices that sequence so the two
// mechanisms can be compared head-to-head on the same placed circuits —
// a design-space axis the paper leaves open.
//
// The model itself lives in internal/perf, once: the costs are
// perf.TransportCosts, the binding's fold prices transport with segment
// contention (Backend, backend.go), and the delta evaluator prices its
// contention-free form. Compare reports that contention-free form beside
// the paper's weak-link time.
//
// Default constants follow the QCCD literature's order of magnitude:
// split/merge ≈ 80 µs each, per-hop transport ≈ 10 µs, and a recooling
// step ≈ 100 µs after motion.
package shuttle

import (
	"velociti/internal/circuit"
	"velociti/internal/perf"
	"velociti/internal/ti"
)

// Params prices the primitive shuttling operations, in µs.
type Params = perf.TransportCosts

// Default returns literature-order-of-magnitude shuttling costs.
func Default() Params {
	return Params{
		SplitMicros:      80,
		MergeMicros:      80,
		MovePerHopMicros: 10,
		RecoolMicros:     100,
	}
}

// Result compares the weak-link and shuttling mechanisms on one placed
// circuit.
type Result struct {
	// WeakLinkMicros is the parallel time with cross-chain gates at α·γ
	// (the paper's model).
	WeakLinkMicros float64 `json:"weak_link_us"`
	// ShuttleMicros is the parallel time with cross-chain gates paying
	// transport overhead plus a local gate.
	ShuttleMicros float64 `json:"shuttle_us"`
	// ShuttleSerialMicros is the back-to-back shuttling baseline.
	ShuttleSerialMicros float64 `json:"shuttle_serial_us"`
	// CrossGates counts the gates that needed transport.
	CrossGates int `json:"cross_gates"`
}

// WeakLinkWins reports whether the photonic weak link is the faster
// mechanism for this circuit and placement.
func (r Result) WeakLinkWins() bool { return r.WeakLinkMicros <= r.ShuttleMicros }

// Compare evaluates both communication mechanisms on the same placed
// circuit. The shuttle columns are the contention-free transport model —
// a cross-chain gate costs split + hops·move + merge + recool + the local
// γ, and no two transports ever queue on a shared segment — priced by the
// delta evaluator under Backend's weights: ShuttleMicros is its makespan
// and ShuttleSerialMicros its latency sum. Invalid costs or latencies and
// a cross-chain gate between disconnected chains are input errors; a
// circuit wider than the layout is an error too.
func Compare(c *circuit.Circuit, l *ti.Layout, lat perf.Latencies, p Params) (Result, error) {
	de, err := perf.NewDeltaEval(perf.NewEvaluator(c), l, Backend{Params: p}, lat)
	if err != nil {
		return Result{}, err
	}
	return Result{
		WeakLinkMicros:      perf.ParallelTime(c, l, lat),
		ShuttleMicros:       de.Cost(),
		ShuttleSerialMicros: de.LatencySum(),
		CrossGates:          perf.WeakGates(c, l),
	}, nil
}
