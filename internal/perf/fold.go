package perf

// This file holds the parallel model's recurrence (§IV-C/D), written once:
// a gate finishes at the latest finish of the previous gates on its qubits,
// plus its own latency. A fold walks classified gates left to right and
// keeps one finish time per qubit per lane — a lane is one timing model of
// an α panel — so a gate's predecessors are read straight off that
// per-qubit frontier and no dependency graph is built. Each lane prices a
// gate from its class-cost table; under the shuttle backend a weak gate's
// transport first waits for, then reserves, the weak-link segments it
// crosses (two concurrent transports cannot share a segment).
//
// Two drivers feed the fold: the materialized driver (Binding.TimeAll and
// the other Binding methods, under the transport plan the binding's
// backend attached, if any) passes a Binding's gate arrays as one batch,
// and the stream driver (stream.go) classifies a circuit.Source into a
// fixed window of operand arrays and folds one window at a time. Evaluate's
// walk in perf.go is the reference both are tested against, bit for bit:
// the comparisons run in the same order (first operand first, strict >, so
// the first operand wins a tie and the first maximum wins the makespan).

import "sync"

// gateBatch is a run of classified gates in program order. Gate i acts on
// qubits qa[i] and qb[i] (qb[i] is -1 for a 1-qubit gate) and has latency
// class class[i]. Under transport, weak gate i's transport crosses the
// weak-link segments segIDs[segStart[i]:segStart[i+1]].
type gateBatch struct {
	qa, qb   []int32
	class    []GateClass
	segStart []int32
	segIDs   []int32
}

// fold is the state of one pass over one or more batches.
type fold struct {
	nl    int
	cost  []float64 // cost[c*nl+j]: lane j's latency of class c
	front []float64 // front[q*nl+j]: finish of qubit q's last gate in lane j

	// Transport: a weak gate pays fixed + hops·perHop before it runs,
	// serialized through busy[s*nl+j], the time segment s frees up in lane
	// j. overhead sums that cost over the weak gates.
	transport     bool
	fixed, perHop float64
	busy          []float64
	overhead      float64

	serial []float64 // per-gate-charged serial time, per lane
	total  []float64 // makespan, per lane
	best   []int32   // first gate to finish at the makespan, per lane

	// last[q] is the last gate on qubit q, or -1. With path bookkeeping,
	// kept only when a caller rebuilds critical paths, prev[i*nl+j] is the
	// gate that gate i waited on in lane j, or -1.
	last []int32
	path bool
	prev []int32
	n    int // gates folded so far
}

var foldPool = sync.Pool{New: func() any { return new(fold) }}

// newFold readies a pooled fold pricing lats over a register of qubits
// qubits. costs, when not nil, switches on transport over numSegs
// segments: every lane then prices weak gates at the local γ, because
// transport replaces the weak penalty α. pathGates > 0 keeps path
// bookkeeping for that many gates. Release the fold when done.
func newFold(lats []Latencies, qubits int, costs *TransportCosts, numSegs, pathGates int) *fold {
	nl := len(lats)
	f := foldPool.Get().(*fold)
	*f = fold{
		nl:     nl,
		cost:   zeroed(f.cost, NumGateClasses*nl),
		front:  zeroed(f.front, qubits*nl),
		serial: zeroed(f.serial, nl),
		total:  zeroed(f.total, nl),
		best:   growInt32(f.best, nl),
		busy:   f.busy[:0],
		last:   growInt32(f.last, qubits),
		prev:   f.prev[:0],
	}
	for j := range f.best {
		f.best[j] = 0
	}
	for q := range f.last {
		f.last[q] = -1
	}
	for j, lat := range lats {
		if costs != nil {
			lat.WeakPenalty = 1
		}
		for c, d := range classLatencies(lat) {
			f.cost[c*nl+j] = d
		}
	}
	if costs != nil {
		f.transport = true
		f.fixed = costs.SplitMicros + costs.MergeMicros + costs.RecoolMicros
		f.perHop = costs.MovePerHopMicros
		f.busy = zeroed(f.busy, numSegs*nl)
	}
	if pathGates > 0 {
		f.path = true
		f.prev = growInt32(f.prev, pathGates*nl)
	}
	return f
}

// release returns the fold's storage to the pool.
func (f *fold) release() { foldPool.Put(f) }

// zeroed returns s resized to n with every element zero.
func zeroed(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// run folds one batch of gates into every lane.
func (f *fold) run(g gateBatch) {
	if f.nl == 1 {
		f.runOne(g)
		return
	}
	nl := f.nl
	front, costs, busy, last, prev := f.front, f.cost, f.busy, f.last, f.prev
	serial, total, best := f.serial[:nl], f.total[:nl], f.best[:nl]
	path, transport, fixed, perHop := f.path, f.transport, f.fixed, f.perHop
	id := int32(f.n)
	qas, qbs := g.qa[:len(g.class)], g.qb[:len(g.class)]
	for i, c := range g.class {
		a, b := qas[i], qbs[i]
		if b < 0 {
			b = a // a 1-qubit gate reads and writes its one row twice
		}
		la, lb := last[a], last[b]
		last[a], last[b] = id, id
		fa := front[int(a)*nl:][:nl]
		fb := front[int(b)*nl:][:nl]
		cost := costs[int(c)*nl:][:nl]
		var segs []int32
		over := 0.0
		if transport && c == ClassTwoQWeak {
			segs = g.segIDs[g.segStart[i]:g.segStart[i+1]]
			over = fixed + float64(len(segs))*perHop
			f.overhead += over
		}
		var from []int32
		if path {
			from = prev[int(id)*nl:][:nl]
		}
		for j := 0; j < nl; j++ {
			ready, pr := 0.0, int32(-1)
			if v := fa[j]; v > ready {
				ready, pr = v, la
			}
			if v := fb[j]; v > ready {
				ready, pr = v, lb
			}
			fin := ready + cost[j]
			if over > 0 {
				// Zero-overhead transports reserve nothing, which keeps the
				// zero-cost shuttle backend identical to weak links at α = 1.
				start := ready
				for _, s := range segs {
					if v := busy[int(s)*nl+j]; v > start {
						start = v
					}
				}
				end := start + over
				for _, s := range segs {
					busy[int(s)*nl+j] = end
				}
				fin = end + cost[j]
			}
			serial[j] += over + cost[j] // over + d is d when there is no overhead
			fa[j], fb[j] = fin, fin
			if fin > total[j] {
				total[j], best[j] = fin, id
			}
			if path {
				from[j] = pr
			}
		}
		id++
	}
	f.n = int(id)
}

// runOne is run at one lane, over scalars: at one lane the per-gate lane
// slicing above costs more than the lane's own work.
func (f *fold) runOne(g gateBatch) {
	front, busy, last, prev := f.front, f.busy, f.last, f.prev
	cost := [NumGateClasses]float64(f.cost)
	serial, total, best := f.serial[0], f.total[0], f.best[0]
	path, transport := f.path, f.transport
	id := int32(f.n)
	qas, qbs := g.qa[:len(g.class)], g.qb[:len(g.class)]
	for i, c := range g.class {
		a, b := qas[i], qbs[i]
		if b < 0 {
			b = a
		}
		ready, pr := 0.0, int32(-1)
		if v := front[a]; v > ready {
			ready, pr = v, last[a]
		}
		if v := front[b]; v > ready {
			ready, pr = v, last[b]
		}
		d := cost[c]
		fin := ready + d
		over := 0.0
		if transport && c == ClassTwoQWeak {
			segs := g.segIDs[g.segStart[i]:g.segStart[i+1]]
			over = f.fixed + float64(len(segs))*f.perHop
			f.overhead += over
			if over > 0 {
				start := ready
				for _, s := range segs {
					if v := busy[s]; v > start {
						start = v
					}
				}
				end := start + over
				for _, s := range segs {
					busy[s] = end
				}
				fin = end + d
			}
		}
		serial += over + d
		front[a], front[b] = fin, fin
		last[a], last[b] = id, id
		if fin > total {
			total, best = fin, id
		}
		if path {
			prev[id] = pr
		}
		id++
	}
	f.serial[0], f.total[0], f.best[0] = serial, total, best
	f.n = int(id)
}

// results assembles one Result per lane from the finished fold and the
// gate counts of the folded circuit. With path bookkeeping, each lane's
// critical path is rebuilt as labels of the gates on it, looked up by
// gate id.
func (f *fold) results(lats []Latencies, oneQ, twoQ, weak, links int, label func(int) string) []Result {
	w := links
	if w > twoQ {
		w = twoQ
	}
	out := make([]Result, f.nl)
	for j, lat := range lats {
		if f.transport {
			lat.WeakPenalty = 1
		}
		out[j] = Result{
			SerialMicros:        SerialTimeFromCounts(oneQ, twoQ, w, lat),
			SerialPerGateMicros: f.serial[j],
			ParallelMicros:      f.total[j],
			WeakGates:           weak,
			LinksUsed:           links,
		}
		if f.transport {
			out[j].SerialMicros += f.overhead
		}
		if !f.path || f.n == 0 {
			continue
		}
		depth := 0
		for at := f.best[j]; at != -1; at = f.prev[int(at)*f.nl+j] {
			depth++
		}
		path := make([]string, depth)
		for at := f.best[j]; at != -1; at = f.prev[int(at)*f.nl+j] {
			depth--
			path[depth] = label(int(at))
		}
		out[j].CriticalPath = path
	}
	return out
}

// foldAll is the materialized driver: one fold over the binding's gates
// as one batch under already validated lats, with the transport model of
// the plan the binding's backend attached, or the weak-link model when it
// attached none. pathGates > 0 keeps critical-path bookkeeping. Release
// the fold when done.
func (b *Binding) foldAll(lats []Latencies, pathGates int) *fold {
	g := gateBatch{qa: b.ev.qa, qb: b.ev.qb, class: b.classes}
	var costs *TransportCosts
	numSegs := 0
	if tp := b.transport; tp != nil {
		g.segStart, g.segIDs = tp.segStart, tp.segIDs
		costs, numSegs = &tp.costs, tp.numSegs
	}
	f := newFold(lats, b.ev.c.NumQubits(), costs, numSegs, pathGates)
	f.run(g)
	return f
}

// price folds the binding's gates with critical paths.
func (b *Binding) price(lats []Latencies) []Result {
	e := b.ev
	f := b.foldAll(lats, e.n)
	e.ensureLabels()
	res := f.results(lats, e.oneQGates, e.twoQGates, b.weak, b.links, e.label)
	f.release()
	return res
}

// makespans folds the binding's gates for callers that read only the
// makespan: dst[j] becomes lane j's parallel time under lats[j].
func (b *Binding) makespans(lats []Latencies, dst []float64) {
	f := b.foldAll(lats, 0)
	copy(dst, f.total)
	f.release()
}
