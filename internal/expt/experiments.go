package expt

import (
	"context"
	"fmt"
	"time"

	"velociti/internal/apps"
	"velociti/internal/circuit"
	"velociti/internal/core"
	"velociti/internal/perf"
	"velociti/internal/stats"
	"velociti/internal/ti"
	"velociti/internal/workload"
)

// Options configures the experiment drivers.
type Options struct {
	// Runs is the number of randomized trials per data point; zero
	// selects the paper's 35.
	Runs int
	// Seed is the master seed for all randomness.
	Seed int64
	// Latencies is the timing model; the zero value selects Table III.
	Latencies perf.Latencies
	// Workers bounds how many (data point, trial) jobs a driver runs at
	// once; zero or one runs serially. Every driver runs all of its jobs
	// in one call to core's trial loop, so the budget means the same for
	// each, and results are bit-identical at any worker count.
	Workers int
	// Pipeline, when non-nil, is the shared stage-artifact store threaded
	// into every simulation the drivers run (except Fig5, which measures
	// cold simulation wall time). Caching never changes any figure —
	// artifacts are content-keyed — it only skips recomputing the
	// gate-class bindings (each carrying its trial's layout and circuit)
	// that repeat across data points and drivers.
	Pipeline *core.Pipeline
	// Backend is the timing backend every driver prices with; nil selects
	// the weak-link model (the paper's). Alternate backends reproduce the
	// same tables under their own timing semantics — figures are then
	// comparable across backends, not to the paper.
	Backend perf.TimingBackend
}

func (o Options) normalized() Options {
	if o.Runs <= 0 {
		o.Runs = core.DefaultRuns
	}
	if o.Latencies == (perf.Latencies{}) {
		o.Latencies = perf.DefaultLatencies()
	}
	return o
}

// baseConfig builds the standard evaluation configuration: random
// placement and scheduling on an area-optimized ring of chains.
func (o Options) baseConfig(spec circuit.Spec, chainLength int) core.Config {
	return core.Config{
		Spec:        spec,
		ChainLength: chainLength,
		Topology:    ti.Ring,
		Latencies:   o.Latencies,
		Runs:        o.Runs,
		Seed:        o.Seed,
		Workers:     o.Workers,
		Pipeline:    o.Pipeline,
		Backend:     o.Backend,
	}
}

// newPlan lowers cfg onto a core plan whose lanes price lats with the gate
// placer named placer; an invalid lane fails the plan with the error a
// one-cell run of it reports.
func newPlan(cfg core.Config, placer string, lats ...perf.Latencies) (*core.Plan, error) {
	p, errs := core.NewPlan(cfg, placer, lats)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// planSet is a report driver's data points lowered onto core plans, each
// with the name its errors carry.
type planSet struct {
	names []string
	plans []*core.Plan
}

// add lowers one data point (see newPlan).
func (s *planSet) add(name string, cfg core.Config, placer string, lats ...perf.Latencies) error {
	p, err := newPlan(cfg, placer, lats...)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	s.names = append(s.names, name)
	s.plans = append(s.plans, p)
	return nil
}

// reports runs every plan's trials in one core.RunReports call across
// opt.Workers and returns each plan's lane reports, or the first failed
// plan's error under its name.
func (s *planSet) reports(ctx context.Context, opt Options) ([][]*core.Report, error) {
	reports, errs := core.RunReports(ctx, s.plans, opt.Runs, opt.Workers, opt.Seed)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.names[i], err)
		}
	}
	return reports, nil
}

// ---- Table I ----

// TableI renders the model-parameter table for a concrete workload and
// machine: the configured parameters (q, p, δ, γ, α·γ, opt) and the
// computed ones (c, w_max, and the mean w over opt.Runs trials).
func TableI(opt Options, spec circuit.Spec, chainLength int) (string, error) {
	return TableIContext(context.Background(), opt, spec, chainLength)
}

// TableIContext is TableI with cancellation.
func TableIContext(ctx context.Context, opt Options, spec circuit.Spec, chainLength int) (string, error) {
	opt = opt.normalized()
	rep, err := core.RunContext(ctx, opt.baseConfig(spec, chainLength))
	if err != nil {
		return "", fmt.Errorf("expt: table I: %w", err)
	}
	lat := opt.Latencies
	rows := [][]string{
		{"configured", "q", "number of 1-qubit gates", itoa(spec.OneQubitGates)},
		{"", "p", "number of 2-qubit gates", itoa(spec.TwoQubitGates)},
		{"", "δ", "latency for 1-qubit gate [µs]", ftoa(lat.OneQubit)},
		{"", "γ", "latency for 2-qubit gate inside chain [µs]", ftoa(lat.TwoQubit)},
		{"", "αγ", "latency for 2-qubit gate between chains [µs]", ftoa(lat.WeakPenalty * lat.TwoQubit)},
		{"", "opt", "chain optimization target", "area (minimal chains)"},
		{"computed", "c", "number of chains", itoa(rep.Device.NumChains)},
		{"", "w_max", "maximum number of weak links", itoa(rep.Device.MaxWeakLinks)},
		{"", "w", "number of weak links used (mean)", fmt.Sprintf("%.1f", rep.LinksUsed.Mean)},
	}
	title := fmt.Sprintf("Table I: model parameters for %s on %d-ion chains", spec.Name, chainLength)
	return renderTable(title, []string{"", "parameter", "meaning", "value"}, rows), nil
}

// ---- Table II ----

// TableII renders the application attributes used in the evaluation.
func TableII() string {
	rows := make([][]string, 0, 6)
	for _, s := range apps.PaperSpecs() {
		rows = append(rows, []string{s.Name, itoa(s.Qubits), itoa(s.TwoQubitGates)})
	}
	return renderTable("Table II: applications with attributes used in the evaluation",
		[]string{"Application", "Qubits", "2-qubit Gates"}, rows)
}

// ---- Table III ----

// TableIII renders the evaluation's gate latencies.
func TableIII(lat perf.Latencies) string {
	rows := [][]string{
		{"Latency for 1-qubit gate [us]", ftoa(lat.OneQubit)},
		{"Latency for 2-qubit gate [us]", ftoa(lat.TwoQubit)},
		{"Penalty for weak link (swept 2.0 .. 1.0)", ftoa(lat.WeakPenalty)},
	}
	return renderTable("Table III: latency of gates in the evaluation", []string{"Gate Latencies", "Value"}, rows)
}

// ---- Figure 5 ----

// Fig5Row is one bar of the tool-runtime study: the mean wall-clock time to
// simulate one random circuit of the given size.
type Fig5Row struct {
	Spec        circuit.Spec
	MeanSeconds float64
}

// Fig5Result is the software-runtime-versus-circuit-size study.
type Fig5Result struct {
	Rows []Fig5Row
	// ScalingFactor is the ratio of the largest grid point's runtime to
	// the smallest's. The paper measured 9.89× between (25q, 100g) and
	// (100q, 400g) for the Python implementation; the Go implementation
	// is much faster in absolute terms, so the shape is the comparable
	// quantity.
	ScalingFactor float64
}

// Fig5 measures this implementation's simulation wall time over the
// paper's circuit-size grid. Each data point runs opt.Runs simulations of
// a fresh random circuit and reports the mean per-simulation time.
func Fig5(opt Options) (*Fig5Result, error) {
	return Fig5Context(context.Background(), opt)
}

// Fig5Context is Fig5 with cancellation.
func Fig5Context(ctx context.Context, opt Options) (*Fig5Result, error) {
	opt = opt.normalized()
	// Fig5's measured quantity is cold simulation wall time; a warm
	// artifact cache would measure cache lookups instead, so the pipeline
	// is deliberately not attached here.
	opt.Pipeline = nil
	res := &Fig5Result{}
	for _, spec := range workload.Fig5Grid() {
		cfg := opt.baseConfig(spec, 16)
		start := time.Now() //vet:allow determinism -- Fig5 reproduces the paper's tool-runtime study: the wall clock IS the measured quantity
		if _, err := core.RunContext(ctx, cfg); err != nil {
			return nil, fmt.Errorf("expt: fig5 %s: %w", spec.Name, err)
		}
		elapsed := time.Since(start).Seconds() / float64(opt.Runs) //vet:allow determinism -- Fig5 reproduces the paper's tool-runtime study: the wall clock IS the measured quantity
		res.Rows = append(res.Rows, Fig5Row{Spec: spec, MeanSeconds: elapsed})
	}
	if first, last := res.Rows[0].MeanSeconds, res.Rows[len(res.Rows)-1].MeanSeconds; first > 0 {
		res.ScalingFactor = last / first
	}
	return res, nil
}

// Table renders the study as ASCII.
func (r *Fig5Result) Table() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			itoa(row.Spec.Qubits), itoa(row.Spec.TwoQubitGates),
			fmt.Sprintf("%.6f", row.MeanSeconds),
		})
	}
	t := renderTable("Figure 5: simulation wall time vs circuit size",
		[]string{"Qubits", "2q Gates", "Mean sim time [s]"}, rows)
	return t + fmt.Sprintf("scaling factor (largest/smallest): %.2fx (paper: 9.89x in Python)\n", r.ScalingFactor)
}

// CSV renders the study as CSV.
func (r *Fig5Result) CSV() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			itoa(row.Spec.Qubits), itoa(row.Spec.TwoQubitGates),
			fmt.Sprintf("%.9f", row.MeanSeconds),
		})
	}
	return renderCSV([]string{"qubits", "two_qubit_gates", "mean_sim_seconds"}, rows)
}

// ---- Figure 6 ----

// Fig6Row is one application's serial and parallel estimate.
type Fig6Row struct {
	App      string
	Serial   stats.Summary // µs
	Parallel stats.Summary // µs
	Speedup  float64       // mean serial / mean parallel
}

// Fig6Result is Case Study 1: best estimated performance on a fixed
// machine (16-ion chains, area-optimized, random scheduling).
type Fig6Result struct {
	Rows []Fig6Row
	// ArithMeanSerialMs / ArithMeanParallelMs are arithmetic means of the
	// per-app mean times, in ms.
	ArithMeanSerialMs   float64
	ArithMeanParallelMs float64
	// GeoMeanSerialMs / GeoMeanParallelMs are geometric means — the
	// aggregation consistent with the paper's reported 69.3 ms / 11.2 ms
	// (the arithmetic means are dominated by QFT's 403 ms).
	GeoMeanSerialMs   float64
	GeoMeanParallelMs float64
	// GeoMeanSpeedup aggregates per-app speedups (paper: 6.2×).
	GeoMeanSpeedup float64
}

// Fig6 runs the six Table II applications through both models on 16-ion
// chains. Every application's trials run in one call to core's trial loop.
func Fig6(opt Options) (*Fig6Result, error) {
	return Fig6Context(context.Background(), opt)
}

// Fig6Context is Fig6 with cancellation.
func Fig6Context(ctx context.Context, opt Options) (*Fig6Result, error) {
	opt = opt.normalized()
	specs := apps.PaperSpecs()
	var set planSet
	for _, spec := range specs {
		if err := set.add("expt: fig6 "+spec.Name, opt.baseConfig(spec, 16), "random", opt.Latencies); err != nil {
			return nil, err
		}
	}
	reports, err := set.reports(ctx, opt)
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{}
	for i, spec := range specs {
		rep := reports[i][0]
		res.Rows = append(res.Rows, Fig6Row{
			App:      spec.Name,
			Serial:   rep.Serial,
			Parallel: rep.Parallel,
			Speedup:  rep.MeanSpeedup(),
		})
	}
	var serials, parallels, speedups []float64
	for _, row := range res.Rows {
		serials = append(serials, row.Serial.Mean)
		parallels = append(parallels, row.Parallel.Mean)
		speedups = append(speedups, row.Speedup)
	}
	res.ArithMeanSerialMs = stats.Summarize(serials).Mean / 1000
	res.ArithMeanParallelMs = stats.Summarize(parallels).Mean / 1000
	res.GeoMeanSerialMs = stats.GeoMean(serials) / 1000
	res.GeoMeanParallelMs = stats.GeoMean(parallels) / 1000
	res.GeoMeanSpeedup = stats.GeoMean(speedups)
	return res, nil
}

// Table renders Case Study 1 as ASCII.
func (r *Fig6Result) Table() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.App,
			ms(row.Serial.Mean), ms(row.Serial.Min), ms(row.Serial.Max),
			ms(row.Parallel.Mean), ms(row.Parallel.Min), ms(row.Parallel.Max),
			fmt.Sprintf("%.1fx", row.Speedup),
		})
	}
	t := renderTable("Figure 6: estimated performance on 16-ion chains (times in ms)",
		[]string{"App", "Serial", "S.min", "S.max", "Parallel", "P.min", "P.max", "Speedup"}, rows)
	t += fmt.Sprintf("geomean serial %.1f ms, geomean parallel %.1f ms, geomean speedup %.1fx (paper: 69.3 ms, 11.2 ms, 6.2x)\n",
		r.GeoMeanSerialMs, r.GeoMeanParallelMs, r.GeoMeanSpeedup)
	return t
}

// CSV renders Case Study 1 as CSV.
func (r *Fig6Result) CSV() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.App,
			fmt.Sprintf("%.3f", row.Serial.Mean), fmt.Sprintf("%.3f", row.Serial.Min), fmt.Sprintf("%.3f", row.Serial.Max),
			fmt.Sprintf("%.3f", row.Parallel.Mean), fmt.Sprintf("%.3f", row.Parallel.Min), fmt.Sprintf("%.3f", row.Parallel.Max),
			fmt.Sprintf("%.3f", row.Speedup),
		})
	}
	return renderCSV([]string{"app", "serial_us", "serial_min_us", "serial_max_us",
		"parallel_us", "parallel_min_us", "parallel_max_us", "speedup"}, rows)
}

// ---- Figure 7 ----

// Fig7ChainLengths is the presently achievable chain-length range swept in
// Case Study 2's first experiment.
var Fig7ChainLengths = []int{8, 16, 24, 32}

// Fig7Row is one application's parallel time across chain lengths.
type Fig7Row struct {
	App      string
	Parallel []stats.Summary // µs, aligned with Fig7ChainLengths
	// Speedup8to32 is time(L=8)/time(L=32) − 1, the improvement from the
	// shortest to the longest achievable chain (paper: 20% average, 11%
	// for BV).
	Speedup8to32 float64
}

// Fig7Result is the chain-length sweep over the Table II applications.
type Fig7Result struct {
	ChainLengths []int
	Rows         []Fig7Row
	// AvgSpeedup8to32 averages the per-app improvement (paper: 20%).
	AvgSpeedup8to32 float64
}

// Fig7 sweeps chain length over the application suite, parallel model only
// (the paper disregards the serial model here as consistently worse). The
// trials of every (application, chain length) point run in one call to
// core's trial loop.
func Fig7(opt Options) (*Fig7Result, error) {
	return Fig7Context(context.Background(), opt)
}

// Fig7Context is Fig7 with cancellation.
func Fig7Context(ctx context.Context, opt Options) (*Fig7Result, error) {
	opt = opt.normalized()
	res := &Fig7Result{ChainLengths: Fig7ChainLengths}
	specs := apps.PaperSpecs()
	var set planSet
	for _, spec := range specs {
		for _, L := range res.ChainLengths {
			if err := set.add(fmt.Sprintf("expt: fig7 %s L=%d", spec.Name, L), opt.baseConfig(spec, L), "random", opt.Latencies); err != nil {
				return nil, err
			}
		}
	}
	reports, err := set.reports(ctx, opt)
	if err != nil {
		return nil, err
	}
	nL := len(res.ChainLengths)
	cells := make([]stats.Summary, len(reports))
	for i, reps := range reports {
		cells[i] = reps[0].Parallel
	}
	var improvements []float64
	for si, spec := range specs {
		row := Fig7Row{App: spec.Name, Parallel: cells[si*nL : (si+1)*nL]}
		first := row.Parallel[0].Mean
		last := row.Parallel[len(row.Parallel)-1].Mean
		if last > 0 {
			row.Speedup8to32 = first/last - 1
		}
		improvements = append(improvements, row.Speedup8to32)
		res.Rows = append(res.Rows, row)
	}
	res.AvgSpeedup8to32 = stats.Summarize(improvements).Mean
	return res, nil
}

// Table renders the sweep as ASCII.
func (r *Fig7Result) Table() string {
	headers := []string{"App"}
	for _, L := range r.ChainLengths {
		headers = append(headers, fmt.Sprintf("L=%d [ms]", L))
	}
	headers = append(headers, "8→32 speedup")
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		cells := []string{row.App}
		for _, s := range row.Parallel {
			cells = append(cells, ms(s.Mean))
		}
		cells = append(cells, pct(row.Speedup8to32))
		rows = append(rows, cells)
	}
	t := renderTable("Figure 7: parallel time vs chain length", headers, rows)
	t += fmt.Sprintf("average speedup from chain length 8 to 32: %s (paper: 20%%, BV 11%%)\n", pct(r.AvgSpeedup8to32))
	return t
}

// CSV renders the sweep as CSV.
func (r *Fig7Result) CSV() string {
	headers := []string{"app"}
	for _, L := range r.ChainLengths {
		headers = append(headers, fmt.Sprintf("parallel_us_L%d", L))
	}
	headers = append(headers, "speedup_8_to_32")
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		cells := []string{row.App}
		for _, s := range row.Parallel {
			cells = append(cells, fmt.Sprintf("%.3f", s.Mean))
		}
		cells = append(cells, fmt.Sprintf("%.4f", row.Speedup8to32))
		rows = append(rows, cells)
	}
	return renderCSV(headers, rows)
}

// ---- Figures 8 and 9 (shared scaling-study machinery) ----

// ScalingChainLengths is the beyond-achievable chain-length sweep of
// Figures 8(a)/9(a): 32 ions doubled to 64 in increments of 8.
var ScalingChainLengths = []int{32, 40, 48, 56, 64}

// ScalingAlphas is the weak-link penalty sweep of Figures 8(b)/9(b)
// (Table III's penalty row).
var ScalingAlphas = []float64{2.0, 1.8, 1.6, 1.4, 1.2, 1.0}

// ScalingResult is a chain-length × α scaling study over a qubit sweep
// (Figure 8 for quantum volume, Figure 9 for 2:1-ratio circuits).
type ScalingResult struct {
	Name   string
	Qubits []int
	// ByChain[i][j] is the parallel-time summary for Qubits[i] at
	// ScalingChainLengths[j], α = 2.
	ByChain [][]stats.Summary
	// ByAlpha[i][j] is the summary for Qubits[i] at ScalingAlphas[j],
	// chain length 32.
	ByAlpha [][]stats.Summary
	// ChainSpeedups[i] is time(L=32)/time(L=64) − 1 for Qubits[i].
	ChainSpeedups []float64
	// AlphaSpeedups[i] is time(α=2)/time(α=1) − 1 for Qubits[i].
	AlphaSpeedups []float64
	// Averages of the two speedup series.
	AvgChainSpeedup float64
	AvgAlphaSpeedup float64
	// MaxRelSpread is the largest (max−mean)/mean across all cells — the
	// paper observes this surpassing 50% for quantum volume.
	MaxRelSpread float64
}

// scalingAlphaLats expands ScalingAlphas into the timing models of the (b)
// panel: the base model with only WeakPenalty varied.
func scalingAlphaLats(base perf.Latencies) []perf.Latencies {
	lats := make([]perf.Latencies, len(ScalingAlphas))
	for j, alpha := range ScalingAlphas {
		lats[j] = base
		lats[j].WeakPenalty = alpha
	}
	return lats
}

// runScaling executes the scaling study for the given spec generator. Each
// spec contributes one plan per chain length plus one α plan: the six α
// cells differ only in WeakPenalty, so they share one pass of placement,
// synthesis, and gate classification per trial and re-price just the
// timing model per α lane. Every plan's trials run in one call to core's
// trial loop, and aggregation happens afterwards in deterministic order, so
// results are identical at any worker count.
func runScaling(ctx context.Context, name string, opt Options, specs []circuit.Spec) (*ScalingResult, error) {
	opt = opt.normalized()
	res := &ScalingResult{Name: name}
	nChain := len(ScalingChainLengths)
	alphaLats := scalingAlphaLats(opt.Latencies)
	var set planSet
	for _, spec := range specs {
		for _, L := range ScalingChainLengths {
			if err := set.add(fmt.Sprintf("expt: %s chain L=%d %s", name, L, spec.Name), opt.baseConfig(spec, L), "random", opt.Latencies); err != nil {
				return nil, err
			}
		}
		if err := set.add(fmt.Sprintf("expt: %s alpha sweep %s", name, spec.Name), opt.baseConfig(spec, 32), "random", alphaLats...); err != nil {
			return nil, err
		}
	}
	reports, err := set.reports(ctx, opt)
	if err != nil {
		return nil, err
	}
	// Each spec's cells are its chain plans' lanes, then its α plan's.
	var cells []stats.Summary
	for _, reps := range reports {
		for _, rep := range reps {
			cells = append(cells, rep.Parallel)
			if sp := rep.Parallel.RelativeSpread(); sp > res.MaxRelSpread {
				res.MaxRelSpread = sp
			}
		}
	}
	perSpec := nChain + len(ScalingAlphas)
	for si, spec := range specs {
		res.Qubits = append(res.Qubits, spec.Qubits)
		chainRow := cells[si*perSpec : si*perSpec+nChain]
		alphaRow := cells[si*perSpec+nChain : (si+1)*perSpec]
		res.ByChain = append(res.ByChain, chainRow)
		res.ByAlpha = append(res.ByAlpha, alphaRow)
		chainImp := 0.0
		if last := chainRow[len(chainRow)-1].Mean; last > 0 {
			chainImp = chainRow[0].Mean/last - 1
		}
		alphaImp := 0.0
		if last := alphaRow[len(alphaRow)-1].Mean; last > 0 {
			alphaImp = alphaRow[0].Mean/last - 1
		}
		res.ChainSpeedups = append(res.ChainSpeedups, chainImp)
		res.AlphaSpeedups = append(res.AlphaSpeedups, alphaImp)
	}
	res.AvgChainSpeedup = stats.Summarize(res.ChainSpeedups).Mean
	res.AvgAlphaSpeedup = stats.Summarize(res.AlphaSpeedups).Mean
	return res, nil
}

// Fig8 runs the quantum-volume scaling study (N qubits, N/2 2-qubit
// gates, N = 8 … 128).
func Fig8(opt Options) (*ScalingResult, error) {
	return Fig8Context(context.Background(), opt)
}

// Fig8Context is Fig8 with cancellation.
func Fig8Context(ctx context.Context, opt Options) (*ScalingResult, error) {
	specs, err := workload.QVSweep(8, 128, 20)
	if err != nil {
		return nil, fmt.Errorf("expt: figure 8 workload: %w", err)
	}
	return runScaling(ctx, "Figure 8 (quantum volume)", opt, specs)
}

// Fig9 runs the 2:1-ratio scaling study (N qubits, 2N 2-qubit gates).
func Fig9(opt Options) (*ScalingResult, error) {
	return Fig9Context(context.Background(), opt)
}

// Fig9Context is Fig9 with cancellation.
func Fig9Context(ctx context.Context, opt Options) (*ScalingResult, error) {
	specs, err := workload.RatioSweep(8, 128, 20, 2)
	if err != nil {
		return nil, fmt.Errorf("expt: figure 9 workload: %w", err)
	}
	return runScaling(ctx, "Figure 9 (2:1 ratio circuits)", opt, specs)
}

// Table renders both panels of the scaling study.
func (r *ScalingResult) Table() string {
	headers := []string{"Qubits"}
	for _, L := range ScalingChainLengths {
		headers = append(headers, fmt.Sprintf("L=%d", L))
	}
	headers = append(headers, "32→64")
	rows := make([][]string, 0, len(r.Qubits))
	for i, n := range r.Qubits {
		cells := []string{itoa(n)}
		for _, s := range r.ByChain[i] {
			cells = append(cells, ms(s.Mean))
		}
		cells = append(cells, pct(r.ChainSpeedups[i]))
		rows = append(rows, cells)
	}
	t := renderTable(r.Name+" (a): parallel time [ms] vs chain length (α=2)", headers, rows)

	headers = []string{"Qubits"}
	for _, a := range ScalingAlphas {
		headers = append(headers, fmt.Sprintf("α=%.1f", a))
	}
	headers = append(headers, "2.0→1.0")
	rows = rows[:0]
	for i, n := range r.Qubits {
		cells := []string{itoa(n)}
		for _, s := range r.ByAlpha[i] {
			cells = append(cells, ms(s.Mean))
		}
		cells = append(cells, pct(r.AlphaSpeedups[i]))
		rows = append(rows, cells)
	}
	t += renderTable(r.Name+" (b): parallel time [ms] vs weak-link penalty (L=32)", headers, rows)
	t += fmt.Sprintf("avg chain-length speedup %s, avg α speedup %s, max run spread %s\n",
		pct(r.AvgChainSpeedup), pct(r.AvgAlphaSpeedup), pct(r.MaxRelSpread))
	return t
}

// CSV renders both panels as one CSV with a panel column.
func (r *ScalingResult) CSV() string {
	headers := []string{"panel", "qubits", "knob", "parallel_us_mean", "parallel_us_min", "parallel_us_max"}
	var rows [][]string
	for i, n := range r.Qubits {
		for j, L := range ScalingChainLengths {
			s := r.ByChain[i][j]
			rows = append(rows, []string{"chain", itoa(n), itoa(L),
				fmt.Sprintf("%.3f", s.Mean), fmt.Sprintf("%.3f", s.Min), fmt.Sprintf("%.3f", s.Max)})
		}
		for j, a := range ScalingAlphas {
			s := r.ByAlpha[i][j]
			rows = append(rows, []string{"alpha", itoa(n), ftoa(a),
				fmt.Sprintf("%.3f", s.Mean), fmt.Sprintf("%.3f", s.Min), fmt.Sprintf("%.3f", s.Max)})
		}
	}
	return renderCSV(headers, rows)
}
