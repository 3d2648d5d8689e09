// Benchmarks regenerating every table and figure of the paper's evaluation.
//
// Each BenchmarkTableX/BenchmarkFigX target runs the corresponding
// experiment driver at a reduced replication count (benchmarks measure the
// tool, not the statistics; cmd/velociti-repro runs the full 35-trial
// versions and prints the data series). The reported ns/op is this
// implementation's cost to produce one full data series for that figure —
// the quantity the paper's own Figure 5 tracks for the Python tool.
// Ablation benches cover the extension policies DESIGN.md calls out.
package velociti

import (
	"context"
	"io"
	"runtime"
	"testing"

	"velociti/internal/apps"
	"velociti/internal/core"
	"velociti/internal/dse"
	"velociti/internal/expt"
	"velociti/internal/perf"
	"velociti/internal/placement"
	"velociti/internal/qasm"
	"velociti/internal/route"
	"velociti/internal/schedule"
	"velociti/internal/shuttle"
	"velociti/internal/statevec"
	"velociti/internal/stats"
	"velociti/internal/ti"
	"velociti/internal/workload"

	"velociti/internal/circuit"
)

// benchOpts keeps per-iteration work bounded; series shapes are unaffected.
func benchOpts() expt.Options {
	return expt.Options{Runs: 5, Seed: 1}
}

// BenchmarkTableII regenerates the application-attribute table from the
// gate-level generators (widths and 2-qubit gate counts).
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, app := range apps.Catalog() {
			c, err := app.Build()
			if err != nil {
				b.Fatal(err)
			}
			if c.NumQubits() != app.Spec.Qubits {
				b.Fatalf("%s: width %d", app.Name(), c.NumQubits())
			}
		}
	}
}

// BenchmarkTableIII exercises the latency-configuration path (validation
// plus rendering) across the paper's α sweep.
func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, alpha := range expt.ScalingAlphas {
			lat := perf.DefaultLatencies()
			lat.WeakPenalty = alpha
			if err := lat.Validate(); err != nil {
				b.Fatal(err)
			}
			if out := expt.TableIII(lat); len(out) == 0 {
				b.Fatal("empty table")
			}
		}
	}
}

// BenchmarkFig5SimulationTime is the direct analogue of the paper's
// Figure 5: wall time to simulate random circuits as size scales. The
// per-op time divided by the grid size (4 points × 5 runs) is this
// implementation's per-simulation cost, comparable against the paper's
// 0.63 s–6.23 s Python measurements.
func BenchmarkFig5SimulationTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.Fig5(expt.Options{Runs: 5, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Point measures one simulation of the largest Figure 5 grid
// point (100 qubits, 400 2-qubit gates), the configuration the paper
// reports at 6.23 s.
func BenchmarkFig5Point(b *testing.B) {
	cfg := core.Config{
		Spec:        workload.Random(100, 400),
		ChainLength: 16,
		Runs:        1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := core.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6SerialVsParallel regenerates Case Study 1: all six Table II
// applications through both models on 16-ion chains.
func BenchmarkFig6SerialVsParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := expt.Fig6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if res.GeoMeanSpeedup <= 1 {
			b.Fatalf("speedup %v", res.GeoMeanSpeedup)
		}
	}
}

// BenchmarkFig7ChainLength regenerates the chain-length sweep (8–32 ions)
// over the application suite.
func BenchmarkFig7ChainLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.Fig7(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8QuantumVolume regenerates the quantum-volume scaling study
// (chain length 32→64 and α 2→1, N = 8–128).
func BenchmarkFig8QuantumVolume(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.Fig8(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9RatioCircuits regenerates the 2:1-ratio scaling study.
func BenchmarkFig9RatioCircuits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.Fig9(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSchedulers compares the gate-placement policies
// (random / weak-avoiding / load-balanced / edge-constrained) on QAOA.
func BenchmarkAblationSchedulers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.AblationSchedulers(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPlacement compares qubit-placement policies on the
// gate-level Supremacy circuit.
func BenchmarkAblationPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.AblationPlacement(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTopology compares ring and line weak-link arrangements.
func BenchmarkAblationTopology(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.AblationTopology(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Component micro-benchmarks ----

// parallelModelQFT is the parallel-model benchmarks' trial: the largest
// Table II workload (QFT: 4032 2-qubit gates), spec-synthesized on a
// random layout of a 16-ion ring.
func parallelModelQFT(b *testing.B) (*circuit.Circuit, *ti.Layout) {
	spec := apps.PaperSpecs()[3]
	d, err := ti.DeviceFor(spec.Qubits, 16, ti.Ring)
	if err != nil {
		b.Fatal(err)
	}
	r := stats.NewRand(1)
	layout, err := RandomPlacement.Place(d, spec.Qubits, r)
	if err != nil {
		b.Fatal(err)
	}
	c, err := schedule.Random{}.Place(spec, layout, r)
	if err != nil {
		b.Fatal(err)
	}
	return c, layout
}

// BenchmarkParallelModelQFT measures one parallel-model evaluation of the
// largest Table II workload (QFT: 4032 2-qubit gates) on the kernelized
// hot path: the flat-array evaluator is built once (as core.Run does per
// circuit) and each op binds it to the layout and folds the makespan.
func BenchmarkParallelModelQFT(b *testing.B) {
	c, layout := parallelModelQFT(b)
	lat := perf.DefaultLatencies()
	ev := perf.NewEvaluator(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd, err := ev.Bind(layout)
		if err != nil {
			b.Fatal(err)
		}
		if bd.ParallelTime(lat) <= 0 {
			b.Fatal("bad time")
		}
	}
}

// BenchmarkColdTrialTimeQFT measures one cold trial of the QFT workload:
// a fresh evaluator, bound and priced with its critical path, as every
// trial of a cold sweep does. Against BenchmarkColdTrialParallelTimeQFT,
// the same trial without a path, it prices labelling the path's gates.
func BenchmarkColdTrialTimeQFT(b *testing.B) {
	c, layout := parallelModelQFT(b)
	lat := perf.DefaultLatencies()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd, err := perf.NewEvaluator(c).Bind(layout)
		if err != nil {
			b.Fatal(err)
		}
		res, err := bd.Time(lat)
		if err != nil || len(res.CriticalPath) == 0 {
			b.Fatal("bad result", err)
		}
	}
}

// BenchmarkColdTrialParallelTimeQFT is BenchmarkColdTrialTimeQFT's
// trial priced for the makespan alone.
func BenchmarkColdTrialParallelTimeQFT(b *testing.B) {
	c, layout := parallelModelQFT(b)
	lat := perf.DefaultLatencies()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd, err := perf.NewEvaluator(c).Bind(layout)
		if err != nil {
			b.Fatal(err)
		}
		if bd.ParallelTime(lat) <= 0 {
			b.Fatal("bad time")
		}
	}
}

// BenchmarkLegacyParallelModelQFT measures the same evaluation through the
// reference walk (perf.ParallelTime), which allocates per call, so the
// evaluator's advantage stays measurable.
func BenchmarkLegacyParallelModelQFT(b *testing.B) {
	spec := apps.PaperSpecs()[3]
	d, _ := ti.DeviceFor(spec.Qubits, 16, ti.Ring)
	r := stats.NewRand(1)
	layout, _ := RandomPlacement.Place(d, spec.Qubits, r)
	c, err := schedule.Random{}.Place(spec, layout, r)
	if err != nil {
		b.Fatal(err)
	}
	lat := perf.DefaultLatencies()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if perf.ParallelTime(c, layout, lat) <= 0 {
			b.Fatal("bad time")
		}
	}
}

// BenchmarkQASMParseQFT64 measures the OpenQASM front end on the 64-qubit
// QFT (10,144 gates).
func BenchmarkQASMParseQFT64(b *testing.B) {
	text := qasm.Serialize(bc(b)(apps.QFT(64)))
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qasm.ParseCircuit("qft64", text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQASMWriteQFT64 writes the circuit BenchmarkQASMParseQFT64
// parses: the denominator of the qasm-parse-vs-write ratio gate, which
// bounds what reading a program may cost against writing it.
func BenchmarkQASMWriteQFT64(b *testing.B) {
	c := bc(b)(apps.QFT(64))
	b.SetBytes(int64(len(qasm.Serialize(c))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := qasm.Write(io.Discard, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStatevec16Qubit measures functional simulation of a 16-qubit
// GHZ preparation (65,536 amplitudes).
func BenchmarkStatevec16Qubit(b *testing.B) {
	c := bc(b)(apps.GHZ(16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := statevec.Run(c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlacement64 measures one random qubit placement of a 64-qubit
// workload.
func BenchmarkPlacement64(b *testing.B) {
	d, _ := ti.DeviceFor(64, 16, ti.Ring)
	r := stats.NewRand(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RandomPlacement.Place(d, 64, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationComm compares weak-link and ion-shuttling communication
// across the α sweep.
func BenchmarkAblationComm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.AblationComm(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTimelineQFT measures schedule construction for the QFT
// workload.
func BenchmarkTimelineQFT(b *testing.B) {
	spec := apps.PaperSpecs()[3]
	d, _ := ti.DeviceFor(spec.Qubits, 16, ti.Ring)
	r := stats.NewRand(1)
	layout, _ := RandomPlacement.Place(d, spec.Qubits, r)
	c, err := schedule.Random{}.Place(spec, layout, r)
	if err != nil {
		b.Fatal(err)
	}
	lat := perf.DefaultLatencies()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := perf.BuildTimeline(c, layout, lat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizerSupremacy measures the circuit optimizer on the
// gate-level Supremacy workload.
func BenchmarkOptimizerSupremacy(b *testing.B) {
	c := bc(b)(apps.Supremacy(8, 8, 20, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if opt, _ := c.Optimize(); opt.NumGates() == 0 {
			b.Fatal("optimizer emptied the circuit")
		}
	}
}

// BenchmarkConcurrentRun measures the worker-pool speedup over the
// standard serial trial loop on a Table II workload.
func BenchmarkConcurrentRun(b *testing.B) {
	cfg := core.Config{
		Spec:        apps.PaperSpecs()[1],
		ChainLength: 16,
		Runs:        core.DefaultRuns,
		Workers:     8,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := core.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// scalingSweepBench is the α-panel workload shared by the sweep benchmarks:
// one Figure 8-class cell (64-qubit quantum volume at L=32) priced under
// every ScalingAlphas timing model.
func scalingSweepBench(b *testing.B) (core.Config, []perf.Latencies) {
	b.Helper()
	qv, err := workload.QuantumVolume(64)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{Spec: qv, ChainLength: 32, Runs: 5, Seed: 1}
	lats := make([]perf.Latencies, len(expt.ScalingAlphas))
	for j, alpha := range expt.ScalingAlphas {
		lats[j] = perf.DefaultLatencies()
		lats[j].WeakPenalty = alpha
	}
	return cfg, lats
}

// BenchmarkScalingAlphaSweep measures the stage-pipeline α panel: one
// RunSweep call binds each trial once and prices all six α models through
// the parametric kernel. The committed baseline records the legacy
// one-run-per-α cost, so benchdiff gates the sweep engine's advantage.
func BenchmarkScalingAlphaSweep(b *testing.B) {
	cfg, lats := scalingSweepBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Pipeline = core.NewPipeline()
		reports, err := core.RunSweep(cfg, lats)
		if err != nil {
			b.Fatal(err)
		}
		if len(reports) != len(lats) {
			b.Fatal("short sweep")
		}
	}
}

// BenchmarkShuttleAlphaSweep prices the same α panel through the shuttle
// timing backend: the batched transport kernel (split + move + merge +
// recool per hop, junction contention included) replaces the weak-link α
// scaling while reusing the one-bind-per-trial sweep shape.
func BenchmarkShuttleAlphaSweep(b *testing.B) {
	cfg, lats := scalingSweepBench(b)
	cfg.Backend = shuttle.Backend{Params: shuttle.Default()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Pipeline = core.NewPipeline()
		reports, err := core.RunSweep(cfg, lats)
		if err != nil {
			b.Fatal(err)
		}
		if len(reports) != len(lats) {
			b.Fatal("short sweep")
		}
	}
}

// BenchmarkLegacyScalingAlphaSweep pins the pre-refactor shape of the same
// panel — one independent core.Run per α cell — for comparison.
func BenchmarkLegacyScalingAlphaSweep(b *testing.B) {
	cfg, lats := scalingSweepBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, lat := range lats {
			run := cfg
			run.Latencies = lat
			if _, err := core.Run(run); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// streamEvalSource builds the fixed-width streaming workload shared by the
// small/large benchmark pair: the SAME 64 qubits, layout, and gate mix —
// only the gate count differs. Holding the width fixed makes the pair's
// B/op ratio a pure working-set measurement: the frontier kernel's memory
// scales with qubits and the chunk window, never with total gates, so the
// committed baseline gates B/op and allocs/op of Large at <= 1.1x Small
// while the gate count grows 100x (the streaming-memory-flat ratio in
// BENCH_BASELINE.json).
func streamEvalSource(b *testing.B, gates int) (circuit.Source, *ti.Layout, []perf.Latencies) {
	b.Helper()
	prog, err := workload.RandomCircuitProgram(64, gates, 0.3, 7)
	if err != nil {
		b.Fatal(err)
	}
	d, err := ti.DeviceFor(64, 16, ti.Ring)
	if err != nil {
		b.Fatal(err)
	}
	layout, err := RandomPlacement.Place(d, 64, stats.NewRand(1))
	if err != nil {
		b.Fatal(err)
	}
	return prog.Source(), layout, []perf.Latencies{perf.DefaultLatencies()}
}

// benchStreamingEval re-generates and prices the workload once per op —
// the full streaming pipeline (generator, placement classification,
// frontier longest-path), with nothing materialized. Its allocation counts
// are exact: one untimed pass first fills the kernel's scratch pools, so
// no op pays for the warm-up, and the kernel, which is serial, runs on
// one P, so no op misses a pooled object left on another P's private
// slot.
func benchStreamingEval(b *testing.B, gates int) {
	b.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	src, layout, lats := streamEvalSource(b, gates)
	price := func() {
		rs, st, err := perf.StreamTimeAll(src, layout, lats)
		if err != nil {
			b.Fatal(err)
		}
		if rs[0].ParallelMicros <= 0 || st.Gates != gates {
			b.Fatalf("bad stream result: %+v over %d gates", rs[0], st.Gates)
		}
	}
	price()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		price()
	}
}

// BenchmarkStreamingEvalSmall prices a 10^4-gate random circuit through
// the streaming kernel — the denominator of the memory-flat ratio gate.
func BenchmarkStreamingEvalSmall(b *testing.B) { benchStreamingEval(b, 10_000) }

// BenchmarkStreamingEvalLarge prices a 10^6-gate random circuit of the
// same width — the numerator. Its B/op and allocs/op must stay within
// 1.1x of Small's even though it consumes 100x the gates; ns/op scales
// linearly and is deliberately not part of the ratio gate.
func BenchmarkStreamingEvalLarge(b *testing.B) { benchStreamingEval(b, 1_000_000) }

// streamQFTSource builds the workload of the streaming-overhead pair:
// apps.QFTProgram(200) as a gate stream (99,700 gates, stream-1m's
// generator at a tenth of the gates) and a random layout at 16-ion chains.
func streamQFTSource(b *testing.B) (circuit.Source, *ti.Layout, int) {
	b.Helper()
	const n = 200
	prog, err := apps.QFTProgram(n)
	if err != nil {
		b.Fatal(err)
	}
	d, err := ti.DeviceFor(n, 16, ti.Ring)
	if err != nil {
		b.Fatal(err)
	}
	layout, err := RandomPlacement.Place(d, n, stats.NewRand(1))
	if err != nil {
		b.Fatal(err)
	}
	return prog.Source(), layout, n + 5*n*(n-1)/2
}

// BenchmarkStreamingEmitQFT emits the QFT-200 stream and drops every
// gate: the generation floor under any stream pass, and the denominator
// of the streaming-price-vs-emit ratio.
func BenchmarkStreamingEmitQFT(b *testing.B) {
	src, _, gates := streamQFTSource(b)
	n := 0
	count := func(*circuit.Gate) error { n++; return nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n = 0
		if err := src.Emit(count); err != nil {
			b.Fatal(err)
		}
		if n != gates {
			b.Fatalf("emitted %d gates, want %d", n, gates)
		}
	}
}

// BenchmarkStreamingPriceQFT prices the same stream at one lane through
// perf.StreamTimeAll: generation, classification and the fold. The
// streaming-price-vs-emit ratio bounds its ns/op against
// BenchmarkStreamingEmitQFT's in the same run, so stream pricing's
// per-gate overhead stays a small multiple of generating the gate.
func BenchmarkStreamingPriceQFT(b *testing.B) {
	src, layout, gates := streamQFTSource(b)
	lats := []perf.Latencies{perf.DefaultLatencies()}
	price := func() {
		rs, st, err := perf.StreamTimeAll(src, layout, lats)
		if err != nil {
			b.Fatal(err)
		}
		if rs[0].ParallelMicros <= 0 || st.Gates != gates {
			b.Fatalf("bad stream result: %+v over %d gates", rs[0], st.Gates)
		}
	}
	price() // fill the kernel's scratch pools untimed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		price()
	}
}

// BenchmarkRouterHotPairs measures the localizing router on a workload
// with migration opportunities.
func BenchmarkRouterHotPairs(b *testing.B) {
	d, _ := ti.DeviceFor(32, 8, ti.Ring)
	layout, _ := SequentialPlacement.Place(d, 32, nil)
	c := NewCircuit("hot", 32)
	r := stats.NewRand(1)
	for i := 0; i < 400; i++ {
		a := r.Intn(32)
		bq := r.Intn(32)
		for bq == a {
			bq = r.Intn(32)
		}
		reps := 1 + r.Intn(10)
		for k := 0; k < reps; k++ {
			c.CX(a, bq)
		}
	}
	lat := perf.DefaultLatencies()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := route.Localize(c, layout, lat); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtControlCapacity runs the control-capacity extension study.
func BenchmarkExtControlCapacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.ExtControlCapacity(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtFidelity runs the fidelity-scaling extension study.
func BenchmarkExtFidelity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := expt.ExtFidelity(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDesignSpaceExploration runs the Pareto design-space explorer on
// the plan-grouped batched path: one coupled trial per (plan, seed) prices
// the whole α axis through the parametric sweep kernel and the batched
// fidelity estimator. The committed baseline pins the per-cell legacy cost
// (BenchmarkLegacyDesignSpaceExploration), so benchdiff gates the grouped
// explorer's advantage; its allocs/op entry records the batched path itself
// and keeps the hot loop allocation-flat.
func BenchmarkDesignSpaceExploration(b *testing.B) {
	spec := Spec{Name: "dse", Qubits: 64, TwoQubitGates: 300}
	workers := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := ExploreDesignSpace(spec, DesignSpaceOptions{Runs: 5, Seed: int64(i), Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if len(ParetoFrontier(points)) == 0 {
			b.Fatal("empty frontier")
		}
	}
}

// BenchmarkLegacyDesignSpaceExploration pins the per-cell exploration path
// (dse.ExplorePerCell) the grouped explorer replaced — the bit-exactness
// oracle doubles as the performance reference.
func BenchmarkLegacyDesignSpaceExploration(b *testing.B) {
	spec := Spec{Name: "dse", Qubits: 64, TwoQubitGates: 300}
	workers := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := dse.ExplorePerCell(context.Background(), spec, DesignSpaceOptions{Runs: 5, Seed: int64(i), Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if len(ParetoFrontier(points)) == 0 {
			b.Fatal("empty frontier")
		}
	}
}

// annealBenchInstance builds the large search instance shared by the
// delta-evaluation and annealing benchmarks: the 576-qubit Supremacy grid
// (24×24, depth 40, 34,656 gates) on 8-ion chains — the regular, layered
// workload class that motivates search-based placement. A swap there
// moves the finishes of only the few layers after the swapped qubits'
// gates, which is the locality the delta path exploits.
func annealBenchInstance(b *testing.B) (*perf.Evaluator, *ti.Layout) {
	b.Helper()
	c, err := apps.Supremacy(24, 24, 40, 1)
	if err != nil {
		b.Fatal(err)
	}
	qubits := c.NumQubits()
	d, err := ti.DeviceFor(qubits, 8, ti.Ring)
	if err != nil {
		b.Fatal(err)
	}
	layout, err := RandomPlacement.Place(d, qubits, stats.NewRand(3))
	if err != nil {
		b.Fatal(err)
	}
	return perf.NewEvaluator(c), layout
}

// BenchmarkDeltaEval measures the incremental rebind kernel: one qubit
// swap plus one objective refresh per op on the 576-qubit search
// instance. This is the annealer's inner loop — per-op cost scales with
// the swapped qubits' gate incidence and the finishes downstream of them,
// not the circuit size.
func BenchmarkDeltaEval(b *testing.B) {
	ev, layout := annealBenchInstance(b)
	de, err := perf.NewDeltaEval(ev, layout, perf.WeakLink{}, perf.DefaultLatencies())
	if err != nil {
		b.Fatal(err)
	}
	r := stats.NewRand(9)
	n := de.NumQubits()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q1 := r.Intn(n)
		q2 := r.Intn(n - 1)
		if q2 >= q1 {
			q2++
		}
		if err := de.Swap(q1, q2); err != nil {
			b.Fatal(err)
		}
		if de.Cost() <= 0 {
			b.Fatal("bad cost")
		}
	}
}

// benchAnneal runs one full annealing search per op at a fixed move
// budget; full selects the place-then-full-evaluate scoring path.
func benchAnneal(b *testing.B, ev *perf.Evaluator, layout *ti.Layout, full bool) {
	b.Helper()
	lat := perf.DefaultLatencies()
	opt := placement.AnnealOptions{Moves: 2000, FullEval: full}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, cost, err := placement.AnnealLayout(ev, layout, perf.WeakLink{}, lat, stats.NewRand(int64(i)), opt)
		if err != nil {
			b.Fatal(err)
		}
		if cost <= 0 {
			b.Fatal("bad cost")
		}
	}
}

// BenchmarkAnnealedPlacer measures the delta-scored annealing search on
// the 576-qubit instance. The annealer-vs-full-eval ratio in
// BENCH_BASELINE.json requires it to stay at least 10× ahead of
// BenchmarkLegacyAnnealedPlacer, the identical search (same moves, same
// accept sequence) priced from scratch, measured in the same run.
func BenchmarkAnnealedPlacer(b *testing.B) {
	ev, layout := annealBenchInstance(b)
	benchAnneal(b, ev, layout, false)
}

// BenchmarkLegacyAnnealedPlacer is the place-then-full-evaluate reference:
// every candidate layout priced from scratch (perf.DeltaEval.FullCost —
// the bit-exactness oracle doubles as the performance reference).
func BenchmarkLegacyAnnealedPlacer(b *testing.B) {
	ev, layout := annealBenchInstance(b)
	benchAnneal(b, ev, layout, true)
}

// annealQFT32 is the QFT-32 instance of the annealed-placement ablation:
// 2,512 gates on 16-ion chains from a random start. Every gate depends on
// the ones before it, so a swap moves a long tail of finishes; this is
// where an incremental scorer has the least to gain.
func annealQFT32(b *testing.B) (*perf.Evaluator, *ti.Layout) {
	b.Helper()
	c := bc(b)(apps.QFT(32))
	d, err := ti.DeviceFor(c.NumQubits(), 16, ti.Ring)
	if err != nil {
		b.Fatal(err)
	}
	layout, err := RandomPlacement.Place(d, c.NumQubits(), stats.NewRand(3))
	if err != nil {
		b.Fatal(err)
	}
	return perf.NewEvaluator(c), layout
}

// BenchmarkAnnealedPlacerQFT32 is BenchmarkAnnealedPlacer on QFT-32. The
// annealer-qft32-vs-full-eval ratio requires it to cost at most 1.5× its
// from-scratch twin, BenchmarkLegacyAnnealedPlacerQFT32, in the same run.
func BenchmarkAnnealedPlacerQFT32(b *testing.B) {
	ev, layout := annealQFT32(b)
	benchAnneal(b, ev, layout, false)
}

// BenchmarkLegacyAnnealedPlacerQFT32 is the from-scratch reference on
// QFT-32.
func BenchmarkLegacyAnnealedPlacerQFT32(b *testing.B) {
	ev, layout := annealQFT32(b)
	benchAnneal(b, ev, layout, true)
}

// bc unwraps a circuit-generator result, failing the benchmark on error.
func bc(b *testing.B) func(*circuit.Circuit, error) *circuit.Circuit {
	return func(c *circuit.Circuit, err error) *circuit.Circuit {
		b.Helper()
		if err != nil {
			b.Fatalf("unexpected error: %v", err)
		}
		return c
	}
}
