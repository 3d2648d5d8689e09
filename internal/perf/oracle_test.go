package perf_test

// Differential and metamorphic tests against the reference. perf.Evaluate
// walks the parallel model in its plainest form; every production driver
// — the materialized fold at any lane count, the stream driver, zero-cost
// transport, the timeline, the capacity-limited scheduler at a capacity
// that never binds, and incremental repricing after a swap walk — must
// reproduce it bit for bit on random circuits, layouts and α panels. The
// metamorphic tests pin invariants of the paper's model (§IV, Eq. 1–2).

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"velociti/internal/circuit"
	"velociti/internal/perf"
	"velociti/internal/placement"
	"velociti/internal/stats"
	"velociti/internal/ti"
	"velociti/internal/workload"
)

// oracleCase is one random placed circuit with a random α panel.
type oracleCase struct {
	name string
	c    *circuit.Circuit
	l    *ti.Layout
	lats []perf.Latencies
}

// oracleCases draws n random cases: up to 40 qubits and 400 gates (empty
// circuits included), ring or line devices of random chain length, random
// placement, and one to six lanes sharing δ and γ but not α.
func oracleCases(t *testing.T, seed int64, n int) []oracleCase {
	t.Helper()
	r := stats.NewRand(seed)
	out := make([]oracleCase, n)
	for i := range out {
		q := 2 + r.Intn(39)
		c := genc(t)(workload.RandomCircuit(q, r.Intn(401), r.Float64(), r.Int63()))
		topo := ti.Ring
		if r.Intn(2) == 0 {
			topo = ti.Line
		}
		d, err := ti.DeviceFor(q, 2+r.Intn(15), topo)
		if err != nil {
			t.Fatal(err)
		}
		l, err := placement.Random{}.Place(d, q, r)
		if err != nil {
			t.Fatal(err)
		}
		base := perf.Latencies{OneQubit: []float64{0, 1, 2.5}[r.Intn(3)], TwoQubit: []float64{100, 37.5}[r.Intn(2)]}
		lats := make([]perf.Latencies, 1+r.Intn(6))
		for j := range lats {
			lats[j] = base
			lats[j].WeakPenalty = 1 + float64(r.Intn(9))*0.25
		}
		out[i] = oracleCase{name: c.Name, c: c, l: l, lats: lats}
	}
	return out
}

// reference evaluates every lane of a case with perf.Evaluate.
func reference(t *testing.T, oc oracleCase, lats []perf.Latencies) []perf.Result {
	t.Helper()
	out := make([]perf.Result, len(lats))
	for j, lat := range lats {
		var err error
		if out[j], err = perf.Evaluate(oc.c, oc.l, lat); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// withoutPaths clears the critical paths, which the stream driver omits.
func withoutPaths(rs []perf.Result) []perf.Result {
	out := append([]perf.Result(nil), rs...)
	for i := range out {
		out[i].CriticalPath = nil
	}
	return out
}

// alphaOne is lats with every weak penalty set to 1.
func alphaOne(lats []perf.Latencies) []perf.Latencies {
	out := append([]perf.Latencies(nil), lats...)
	for j := range out {
		out[j].WeakPenalty = 1
	}
	return out
}

func TestDriversMatchReference(t *testing.T) {
	for _, oc := range oracleCases(t, 2024, 60) {
		want := reference(t, oc, oc.lats)
		b, err := perf.NewEvaluator(oc.c).Bind(oc.l)
		if err != nil {
			t.Fatal(err)
		}

		got, err := b.TimeAll(oc.lats)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: materialized fold diverges from Evaluate\n got %+v\nwant %+v", oc.name, got, want)
		}
		makespans := b.ParallelTimeAll(oc.lats, nil)
		for j, lat := range oc.lats {
			if makespans[j] != want[j].ParallelMicros || b.ParallelTime(lat) != want[j].ParallelMicros {
				t.Fatalf("%s lane %d: makespan-only fold %v / %v, Evaluate %v", oc.name, j, makespans[j], b.ParallelTime(lat), want[j].ParallelMicros)
			}
		}
		streamed, _, err := perf.StreamTimeAll(oc.c.Source(), oc.l, oc.lats)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(streamed, withoutPaths(want)) {
			t.Fatalf("%s: stream fold diverges from Evaluate\n got %+v\nwant %+v", oc.name, streamed, withoutPaths(want))
		}

		// Zero-cost transport is the weak-link model at α = 1, whatever α
		// the lanes carry.
		wantLocal := reference(t, oc, alphaOne(oc.lats))
		if err := b.AttachTransport(oc.l); err != nil {
			t.Fatal(err)
		}
		gotT, err := b.TimeTransportAll(perf.TransportCosts{}, oc.lats)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotT, wantLocal) {
			t.Fatalf("%s: zero-cost transport diverges from Evaluate at α=1\n got %+v\nwant %+v", oc.name, gotT, wantLocal)
		}
		streamedT, _, err := perf.StreamTransportAll(oc.c.Source(), oc.l, perf.TransportCosts{}, oc.lats)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(streamedT, withoutPaths(wantLocal)) {
			t.Fatalf("%s: zero-cost stream transport diverges from Evaluate at α=1", oc.name)
		}

		for j, lat := range oc.lats {
			tl, err := perf.BuildTimeline(oc.c, oc.l, lat)
			if err != nil {
				t.Fatal(err)
			}
			if tl.Makespan != want[j].ParallelMicros {
				t.Fatalf("%s lane %d: timeline makespan %v, Evaluate %v", oc.name, j, tl.Makespan, want[j].ParallelMicros)
			}
			// A capacity no smaller than the gate count never binds, so the
			// list scheduler's event loop must land on the ASAP makespan.
			capacity := oc.c.NumGates()
			if capacity == 0 {
				capacity = 1
			}
			got, err := perf.ParallelTimeConstrained(oc.c, oc.l, lat, capacity)
			if err != nil {
				t.Fatal(err)
			}
			if got != want[j].ParallelMicros {
				t.Fatalf("%s lane %d: constrained at capacity %d gives %v, Evaluate %v", oc.name, j, capacity, got, want[j].ParallelMicros)
			}
		}
	}
}

// TestDeltaMatchesLongestPathAfterSwapWalk: after every step of a random
// swap walk, incremental repricing equals the reference walk on the
// materialized layout, under both backends' delta latencies.
func TestDeltaMatchesLongestPathAfterSwapWalk(t *testing.T) {
	r := stats.NewRand(77)
	for _, oc := range oracleCases(t, 4048, 20) {
		lat := oc.lats[r.Intn(len(oc.lats))]
		for _, name := range []string{"weaklink", "shuttle"} {
			backend := deltaBackends(t)[name]
			de, err := perf.NewDeltaEval(perf.NewEvaluator(oc.c), oc.l, backend, lat)
			if err != nil {
				t.Fatal(err)
			}
			n := de.NumQubits()
			for step := 0; step < 40; step++ {
				a := r.Intn(n)
				b := r.Intn(n - 1)
				if b >= a {
					b++
				}
				if err := de.Swap(a, b); err != nil {
					t.Fatal(err)
				}
				checkDeltaCost(t, fmt.Sprintf("%s %s step %d", oc.name, name, step), de, oc.c, backend, lat)
			}
		}
	}
}

// TestSerialPerGateBoundsParallel: charging every gate back to back can
// never beat the parallel schedule.
func TestSerialPerGateBoundsParallel(t *testing.T) {
	for _, oc := range oracleCases(t, 5, 40) {
		for _, res := range reference(t, oc, oc.lats) {
			if res.SerialPerGateMicros < res.ParallelMicros {
				t.Fatalf("%s: per-gate serial %v < parallel %v", oc.name, res.SerialPerGateMicros, res.ParallelMicros)
			}
		}
	}
}

// TestAppendingGateNeverLowersMakespan: a gate added at the end can only
// wait on the gates before it.
func TestAppendingGateNeverLowersMakespan(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for _, oc := range oracleCases(t, 6, 40) {
		before := reference(t, oc, oc.lats)
		longer := oc.c.Clone()
		q := oc.c.NumQubits()
		if a, b := r.Intn(q), r.Intn(q); a != b {
			longer.CX(a, b)
		} else {
			longer.H(a)
		}
		b, err := perf.NewEvaluator(longer).Bind(oc.l)
		if err != nil {
			t.Fatal(err)
		}
		for j, after := range b.ParallelTimeAll(oc.lats, nil) {
			if after < before[j].ParallelMicros {
				t.Fatalf("%s lane %d: appending a gate lowered the makespan %v -> %v", oc.name, j, before[j].ParallelMicros, after)
			}
		}
	}
}

// TestChainPreservingRelabelIsInvariant: renaming qubits so that each
// keeps its chain changes no time and no count — only the gate labels on
// the critical path.
func TestChainPreservingRelabelIsInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, oc := range oracleCases(t, 7, 40) {
		perm := make([]int, oc.l.NumQubits())
		for ch := 0; ch < oc.l.Device().NumChains(); ch++ {
			qs := oc.l.Chain(ch)
			to := append([]int(nil), qs...)
			r.Shuffle(len(to), func(i, j int) { to[i], to[j] = to[j], to[i] })
			for k, q := range qs {
				perm[q] = to[k]
			}
		}
		relabelled := circuit.New(oc.c.Name, oc.c.NumQubits())
		for _, g := range oc.c.Gates() {
			qs := make([]int, len(g.Qubits))
			for k, q := range g.Qubits {
				qs[k] = perm[q]
			}
			relabelled.Append(g.Kind, qs, g.Params...)
		}
		if err := relabelled.Err(); err != nil {
			t.Fatal(err)
		}
		want := withoutPaths(reference(t, oc, oc.lats))
		got := withoutPaths(reference(t, oracleCase{c: relabelled, l: oc.l}, oc.lats))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: chain-preserving relabel changed results\n got %+v\nwant %+v", oc.name, got, want)
		}
		b, err := perf.NewEvaluator(relabelled).Bind(oc.l)
		if err != nil {
			t.Fatal(err)
		}
		folded, err := b.TimeAll(oc.lats)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(withoutPaths(folded), want) {
			t.Fatalf("%s: chain-preserving relabel changed folded results", oc.name)
		}
	}
}

// TestMakespanMonotoneInAlpha: a dearer weak link never shortens the
// schedule.
func TestMakespanMonotoneInAlpha(t *testing.T) {
	for _, oc := range oracleCases(t, 8, 40) {
		lats := append([]perf.Latencies(nil), oc.lats...)
		sort.Slice(lats, func(i, j int) bool { return lats[i].WeakPenalty < lats[j].WeakPenalty })
		b, err := perf.NewEvaluator(oc.c).Bind(oc.l)
		if err != nil {
			t.Fatal(err)
		}
		makespans := b.ParallelTimeAll(lats, nil)
		for j := 1; j < len(lats); j++ {
			if makespans[j] < makespans[j-1] {
				t.Fatalf("%s: makespan fell from %v at α=%v to %v at α=%v", oc.name,
					makespans[j-1], lats[j-1].WeakPenalty, makespans[j], lats[j].WeakPenalty)
			}
		}
	}
}

// TestOneChainHasNoWeakGates: with chains at least as long as the
// register there is one chain, so w = 0 and Eq. 1–2 reduce to qδ + pγ.
func TestOneChainHasNoWeakGates(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, oc := range oracleCases(t, 9, 30) {
		q := oc.c.NumQubits()
		d, err := ti.DeviceFor(q, q+r.Intn(4), ti.Ring)
		if err != nil {
			t.Fatal(err)
		}
		l, err := placement.Random{}.Place(d, q, r)
		if err != nil {
			t.Fatal(err)
		}
		b, err := perf.NewEvaluator(oc.c).Bind(l)
		if err != nil {
			t.Fatal(err)
		}
		folded, err := b.TimeAll(oc.lats)
		if err != nil {
			t.Fatal(err)
		}
		for j, lat := range oc.lats {
			want := float64(oc.c.NumOneQubitGates())*lat.OneQubit + float64(oc.c.NumTwoQubitGates())*lat.TwoQubit
			res, err := perf.Evaluate(oc.c, l, lat)
			if err != nil {
				t.Fatal(err)
			}
			for _, got := range []perf.Result{res, folded[j]} {
				if got.WeakGates != 0 || got.LinksUsed != 0 || got.SerialMicros != want {
					t.Fatalf("%s lane %d: one chain gives w=%d links=%d serial=%v, want 0, 0, %v",
						oc.name, j, got.WeakGates, got.LinksUsed, got.SerialMicros, want)
				}
			}
		}
	}
}
