package main

import (
	"encoding/json"

	"velociti/internal/circuit"
	"velociti/internal/core"
	"velociti/internal/perf"
	"velociti/internal/placement"
	"velociti/internal/schedule"
	"velociti/internal/stats"
	"velociti/internal/ti"
)

// The replay helpers below re-run core's trial path one public call at a
// time, so that each call can carry a span. They follow core's stage graph
// exactly — one RNG stream per trial, placement first, then the gate
// placer over whatever stream state placement left behind — and a traced
// run proves it by comparing the replay's rendered output with the op's.

// bindTrial replays the latency-independent part of one cold trial: seed
// the trial's stream, place the qubits, synthesize the gates (spec mode;
// explicit mode passes the circuit's shared evaluator) and bind them.
func bindTrial(tr *tracer, d *ti.Device, spec circuit.Spec, placer schedule.Placer, shared *perf.Evaluator, seed int64) (*perf.Binding, error) {
	tr.begin("stats.seed")
	r := stats.NewRand(seed)
	tr.end()
	tr.count("stats.seed", 1)

	tr.begin("placement.place")
	layout, err := placement.Random{}.Place(d, spec.Qubits, r)
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.count("placement.place", 1)

	var c *circuit.Circuit
	if shared == nil {
		tr.begin("schedule.synthesize")
		c, err = placer.Place(spec, layout, r)
		tr.end()
		if err != nil {
			return nil, err
		}
		tr.count("schedule.synthesize", float64(c.NumGates()))
	}
	tr.begin("perf.bind")
	ev := shared
	if ev == nil {
		ev = perf.NewEvaluator(c)
	}
	b, err := ev.Bind(layout)
	if err == nil {
		err = perf.WeakLink{}.Prepare(b, layout)
	}
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.count("perf.bind", float64(b.NumGates()))
	return b, nil
}

// labelsUsed is the work counter of critical-path labels that reach an
// output; the perf.critical_path span counts the labels built.
const labelsUsed = "perf.critical_path.used"

// labelEvaluator builds an evaluator's critical-path labels — the work the
// first Binding.Time on it does before walking the path — under its own
// span, counting the labels built.
func labelEvaluator(tr *tracer, ev *perf.Evaluator) {
	tr.begin("perf.critical_path")
	labels := ev.Labels()
	tr.end()
	tr.count("perf.critical_path", float64(len(labels)))
}

// timeTrial prices a binding under one timing model with the weak-link
// fold.
func timeTrial(tr *tracer, b *perf.Binding, lat perf.Latencies) (perf.Result, error) {
	tr.begin("perf.fold")
	res, err := b.Time(lat)
	tr.end()
	tr.count("perf.fold", float64(b.NumGates()))
	return res, err
}

// buildReport aggregates replayed trials the way core does for a run.
func buildReport(tr *tracer, spec circuit.Spec, d *ti.Device, trials []core.TrialResult) *core.Report {
	tr.begin("stats.summarize")
	defer tr.end()
	n := len(trials)
	serial := make([]float64, 0, n)
	serialPG := make([]float64, 0, n)
	parallel := make([]float64, 0, n)
	weak := make([]float64, 0, n)
	links := make([]float64, 0, n)
	for _, t := range trials {
		serial = append(serial, t.Perf.SerialMicros)
		serialPG = append(serialPG, t.Perf.SerialPerGateMicros)
		parallel = append(parallel, t.Perf.ParallelMicros)
		weak = append(weak, float64(t.Perf.WeakGates))
		links = append(links, float64(t.Perf.LinksUsed))
	}
	return &core.Report{
		Spec: spec,
		Device: core.DeviceInfo{
			ChainLength:  d.ChainLength(),
			NumChains:    d.NumChains(),
			Topology:     d.Topology().String(),
			MaxWeakLinks: d.MaxWeakLinks(),
		},
		Trials:        trials,
		Serial:        stats.Summarize(serial),
		SerialPerGate: stats.Summarize(serialPG),
		Parallel:      stats.Summarize(parallel),
		WeakGates:     stats.Summarize(weak),
		LinksUsed:     stats.Summarize(links),
	}
}

// countUsedLabels counts the critical-path labels a report's trials carry:
// the labels an output that renders the report actually uses.
func countUsedLabels(tr *tracer, r *core.Report) {
	n := 0
	for _, t := range r.Trials {
		n += len(t.Perf.CriticalPath)
	}
	tr.count(labelsUsed, float64(n))
}

// encodeJSON renders v as the CLIs and the service do: two-space indent
// plus a trailing newline.
func encodeJSON(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
