package main

import (
	"fmt"
	"time"

	"velociti/internal/apps"
	"velociti/internal/circuit"
	"velociti/internal/core"
	"velociti/internal/expt"
	"velociti/internal/perf"
	"velociti/internal/placement"
	"velociti/internal/shuttle"
	"velociti/internal/stats"
	"velociti/internal/ti"
)

// stream1M is the memory-bounded path for million-gate circuits: each op
// streams apps.QFTProgram(633) — 1,000,773 gates — through core.RunSweep
// with Stream, once under the weak-link backend across the α panel and
// once under shuttle at α=2. Generation, the rolling fingerprint,
// classification and the windowed fold do all the work; there is no cache,
// synthesis, labelling or HTTP.
type stream1M struct {
	qubits int
	gates  int // the program's gate count, checked on every op
	chain  int
	warmup int

	seed    int64
	prog    circuit.Program
	weakLat []perf.Latencies
	shutLat []perf.Latencies
	backend shuttle.Backend
}

func newStream1M(sz size) *stream1M {
	w := &stream1M{qubits: 633, chain: 16, warmup: 2}
	if sz == tinySize {
		w.qubits, w.warmup = 40, 1
	}
	// apps.QFT emits n H gates and n(n−1)/2 controlled phases of three
	// rotations and two CXs each: 1,000,773 gates at n = 633.
	w.gates = w.qubits + 5*w.qubits*(w.qubits-1)/2
	return w
}

func (w *stream1M) setup(seed int64) error {
	w.seed = seed
	prog, err := apps.QFTProgram(w.qubits)
	if err != nil {
		return err
	}
	w.prog = prog
	w.weakLat = make([]perf.Latencies, len(expt.ScalingAlphas))
	for j, a := range expt.ScalingAlphas {
		w.weakLat[j] = perf.DefaultLatencies()
		w.weakLat[j].WeakPenalty = a
	}
	w.shutLat = []perf.Latencies{perf.DefaultLatencies()} // α = 2
	w.backend = shuttle.Backend{Params: shuttle.Default()}
	return warmUp(w, w.warmup)
}

func (w *stream1M) passLen() int { return 1 }

// streamOut is one op's reports: the weak-link α panel, then shuttle.
type streamOut struct {
	weak    []*core.Report
	shuttle *core.Report
}

func (w *stream1M) config(i int, backend perf.TimingBackend) core.Config {
	return core.Config{
		Program:     &w.prog,
		ChainLength: w.chain,
		Runs:        1,
		Seed:        opSeed(w.seed, i),
		Workers:     1,
		Backend:     backend,
		Stream:      true,
	}
}

func (w *stream1M) op(i int) (any, error) {
	weak, err := core.RunSweep(w.config(i, nil), w.weakLat)
	if err != nil {
		return nil, err
	}
	sh, err := core.RunSweep(w.config(i, w.backend), w.shutLat)
	if err != nil {
		return nil, err
	}
	return streamOut{weak: weak, shuttle: sh[0]}, nil
}

// check asserts the gate count, parallel time non-increasing as α falls
// across the panel, and empty critical paths (streaming never recovers
// them).
func (w *stream1M) check(i int, out any) ([]byte, error) {
	o := out.(streamOut)
	all := append(append([]*core.Report(nil), o.weak...), o.shuttle)
	for _, r := range all {
		if got := r.Spec.OneQubitGates + r.Spec.TwoQubitGates; got != w.gates {
			return nil, fmt.Errorf("%w: streamed %d gates, want %d", errCheck, got, w.gates)
		}
		for _, t := range r.Trials {
			if len(t.Perf.CriticalPath) != 0 {
				return nil, fmt.Errorf("%w: streamed trial carries a critical path", errCheck)
			}
		}
	}
	for j := 1; j < len(o.weak); j++ {
		if o.weak[j].Parallel.Mean > o.weak[j-1].Parallel.Mean {
			return nil, fmt.Errorf("%w: parallel %g at α=%g rises above %g at α=%g", errCheck,
				o.weak[j].Parallel.Mean, expt.ScalingAlphas[j], o.weak[j-1].Parallel.Mean, expt.ScalingAlphas[j-1])
		}
	}
	return encodeJSON(all)
}

// replay re-runs op i's two streaming trials through perf.StreamTimeAll
// and the shuttle backend's StreamTimeAll.
func (w *stream1M) replay(i int, tr *tracer) (any, error) {
	d, err := ti.DeviceFor(w.qubits, w.chain, ti.Ring)
	if err != nil {
		return nil, err
	}
	seed := stats.SplitSeed(opSeed(w.seed, i), 0)
	trial := func(timer perf.SourceTimer, lats []perf.Latencies, span string) ([]perf.Result, perf.StreamStats, error) {
		tr.begin("stats.seed")
		r := stats.NewRand(seed)
		tr.end()
		tr.count("stats.seed", 1)
		tr.begin("placement.place")
		layout, err := placement.Random{}.Place(d, w.qubits, r)
		tr.end()
		if err != nil {
			return nil, perf.StreamStats{}, err
		}
		tr.count("placement.place", 1)
		tr.begin(span)
		rs, sst, err := timer.StreamTimeAll(w.prog.Source(), layout, lats)
		tr.end()
		tr.count(span, float64(sst.Gates*len(lats)))
		return rs, sst, err
	}
	report := func(rs []perf.Result, sst perf.StreamStats) *core.Report {
		spec := circuit.Spec{Name: w.prog.Name, Qubits: w.qubits, OneQubitGates: sst.OneQubitGates, TwoQubitGates: sst.TwoQubitGates}
		return buildReport(tr, spec, d, []core.TrialResult{{Seed: seed, Perf: rs[0]}})
	}
	rs, sst, err := trial(perf.WeakLink{}, w.weakLat, "perf.stream")
	if err != nil {
		return nil, err
	}
	out := streamOut{}
	for j := range rs {
		out.weak = append(out.weak, report(rs[j:j+1], sst))
	}
	rs, sst, err = trial(w.backend, w.shutLat, "shuttle.stream")
	if err != nil {
		return nil, err
	}
	out.shuttle = report(rs, sst)
	return out, nil
}

// ledger splits the stream's per-gate cost by differencing timed passes
// over the same program: bare generation, generation plus the rolling
// fingerprint, and the weak-link fold at one lane and at the full panel.
// The four passes run interleaved, and each cost is the median of its
// repetitions, so a drift in machine speed biases no difference.
func (w *stream1M) ledger(l *ledger) error {
	d, err := ti.DeviceFor(w.qubits, w.chain, ti.Ring)
	if err != nil {
		return err
	}
	layout, err := placement.Random{}.Place(d, w.qubits, stats.NewRand(w.seed))
	if err != nil {
		return err
	}
	src := w.prog.Source()
	passes := []func() error{
		func() error { return src.Emit(func(*circuit.Gate) error { return nil }) },
		func() error {
			acc := circuit.NewFingerprintAccum(src.Name, src.Qubits)
			return src.Emit(func(g *circuit.Gate) error { acc.AddGate(g); return nil })
		},
		func() error { _, _, err := perf.StreamTimeAll(src, layout, w.weakLat[:1]); return err },
		func() error { _, _, err := perf.StreamTimeAll(src, layout, w.weakLat); return err },
	}
	const reps = 5
	ns := make([][]float64, len(passes))
	for r := 0; r < reps; r++ {
		for k, pass := range passes {
			t := time.Now()
			if err := pass(); err != nil {
				return fmt.Errorf("stream ledger: %w", err)
			}
			ns[k] = append(ns[k], float64(time.Since(t)))
		}
	}
	gen, fp, one, all := median(ns[0]), median(ns[1]), median(ns[2]), median(ns[3])
	g := float64(w.gates)
	foldPerLane := (all - one) / float64(len(w.weakLat)-1) / g
	l.set("circuit.generate.ns_per_gate", gen/g)
	l.set("circuit.fingerprint.ns_per_gate", (fp-gen)/g)
	l.set("perf.stream_fold.ns_per_gate_lane", foldPerLane)
	l.set("perf.stream_classify.ns_per_gate", (one-fp)/g-foldPerLane)
	return nil
}

func (w *stream1M) close() {}
