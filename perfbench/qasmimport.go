package main

import (
	"bytes"
	"fmt"

	"velociti/internal/apps"
	"velociti/internal/circuit"
	"velociti/internal/core"
	"velociti/internal/perf"
	"velociti/internal/qasm"
	"velociti/internal/stats"
	"velociti/internal/ti"
)

// qasmImport is the velociti -qasm path. Set-up builds the six Table II
// gate-level circuits from the workload seed and serializes them with
// qasm.Write; each op parses all six with qasm.ParseReader and runs
// core.Run on each in explicit mode. Parsing dominates the op, and no
// other workload parses.
type qasmImport struct {
	chain  int
	runs   int
	warmup int
	small  bool

	seed    int64
	sources []*circuit.Circuit
	files   [][]byte
}

func newQASMImport(sz size) *qasmImport {
	return &qasmImport{chain: 16, runs: 3, warmup: 2, small: sz == tinySize}
}

// tableII builds the six Table II applications with their random choices
// drawn from seed: the supremacy circuit's gates, QAOA's graph and angles,
// and the Bernstein-Vazirani secret.
func tableII(seed int64, small bool) ([]*circuit.Circuit, error) {
	r := stats.NewRand(seed)
	secret := make([]bool, 63) // one bit per data qubit; the last qubit is the ancilla
	for i := range secret {
		secret[i] = r.Intn(2) == 1
	}
	if small {
		edges, err := apps.RandomGraph(8, 12, seed)
		if err != nil {
			return nil, err
		}
		return buildAll(
			func() (*circuit.Circuit, error) { return apps.Supremacy(3, 3, 4, seed) },
			func() (*circuit.Circuit, error) { return apps.QAOA(8, edges, 1, seed) },
			func() (*circuit.Circuit, error) { return apps.BernsteinVazirani(8, secret[:7]) },
		)
	}
	edges, err := apps.RandomGraph(64, 315, seed)
	if err != nil {
		return nil, err
	}
	return buildAll(
		func() (*circuit.Circuit, error) { return apps.Supremacy(8, 8, 20, seed) },
		func() (*circuit.Circuit, error) { return apps.QAOA(64, edges, 2, seed) },
		func() (*circuit.Circuit, error) { return apps.Grover(40, 1) },
		func() (*circuit.Circuit, error) { return apps.QFT(64) },
		func() (*circuit.Circuit, error) { return apps.CuccaroAdder(31) },
		func() (*circuit.Circuit, error) { return apps.BernsteinVazirani(64, secret) },
	)
}

func buildAll(builders ...func() (*circuit.Circuit, error)) ([]*circuit.Circuit, error) {
	out := make([]*circuit.Circuit, len(builders))
	for i, b := range builders {
		c, err := b()
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

func (w *qasmImport) setup(seed int64) error {
	w.seed = seed
	srcs, err := tableII(seed, w.small)
	if err != nil {
		return err
	}
	w.sources = srcs
	w.files = make([][]byte, len(srcs))
	for i, c := range srcs {
		var buf bytes.Buffer
		if err := qasm.Write(&buf, c); err != nil {
			return err
		}
		w.files[i] = buf.Bytes()
	}
	return warmUp(w, w.warmup)
}

func (w *qasmImport) passLen() int { return 1 }

// qasmOut is one op's parsed circuits and their reports.
type qasmOut struct {
	circuits []*circuit.Circuit
	reports  []*core.Report
}

func (w *qasmImport) config(c *circuit.Circuit, i int) core.Config {
	return core.Config{Circuit: c, ChainLength: w.chain, Runs: w.runs, Seed: opSeed(w.seed, i), Workers: 1}
}

func (w *qasmImport) op(i int) (any, error) {
	out := qasmOut{}
	for k, f := range w.files {
		res, err := qasm.ParseReader(w.sources[k].Name, bytes.NewReader(f))
		if err != nil {
			return nil, err
		}
		rep, err := core.Run(w.config(res.Circuit, i))
		if err != nil {
			return nil, err
		}
		out.circuits = append(out.circuits, res.Circuit)
		out.reports = append(out.reports, rep)
	}
	return out, nil
}

// check asserts that every parsed circuit has its source's qubit and gate
// counts and that its report equals the source circuit's report for the
// same seed.
func (w *qasmImport) check(i int, out any) ([]byte, error) {
	o := out.(qasmOut)
	if len(o.reports) != len(w.sources) {
		return nil, fmt.Errorf("%w: %d reports, want %d", errCheck, len(o.reports), len(w.sources))
	}
	var all []byte
	for k, src := range w.sources {
		c := o.circuits[k]
		if c.NumQubits() != src.NumQubits() || c.NumGates() != src.NumGates() {
			return nil, fmt.Errorf("%w: %s parsed as %d qubits/%d gates, want %d/%d", errCheck,
				src.Name, c.NumQubits(), c.NumGates(), src.NumQubits(), src.NumGates())
		}
		want, err := core.Run(w.config(src, i))
		if err != nil {
			return nil, err
		}
		wb, err := encodeJSON(want)
		if err != nil {
			return nil, err
		}
		gb, err := encodeJSON(o.reports[k])
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(gb, wb) {
			return nil, fmt.Errorf("%w: %s report differs from its source circuit's", errCheck, src.Name)
		}
		all = append(all, gb...)
	}
	return all, nil
}

// replay re-runs op i: parse each file, then core.Run's explicit-mode
// trials one public call at a time over the circuit's shared evaluator.
func (w *qasmImport) replay(i int, tr *tracer) (any, error) {
	out := qasmOut{}
	lat := perf.DefaultLatencies()
	for k, f := range w.files {
		tr.begin("qasm.parse")
		res, err := qasm.ParseReader(w.sources[k].Name, bytes.NewReader(f))
		tr.end()
		if err != nil {
			return nil, err
		}
		tr.count("qasm.parse", float64(len(f)))
		c := res.Circuit
		cfg := w.config(c, i)
		d, err := ti.DeviceFor(c.NumQubits(), cfg.ChainLength, ti.Ring)
		if err != nil {
			return nil, err
		}
		tr.begin("perf.bind")
		ev := perf.NewEvaluator(c)
		tr.end()
		trials := make([]core.TrialResult, cfg.Runs)
		for t := range trials {
			seed := stats.SplitSeed(cfg.Seed, t)
			b, err := bindTrial(tr, d, c.Spec(), nil, ev, seed)
			if err != nil {
				return nil, err
			}
			if t == 0 {
				labelEvaluator(tr, ev)
			}
			r, err := timeTrial(tr, b, lat)
			if err != nil {
				return nil, err
			}
			trials[t] = core.TrialResult{Seed: seed, Perf: r}
		}
		rep := buildReport(tr, c.Spec(), d, trials)
		countUsedLabels(tr, rep)
		out.circuits = append(out.circuits, c)
		out.reports = append(out.reports, rep)
	}
	return out, nil
}

func (w *qasmImport) ledger(*ledger) error { return nil }

func (w *qasmImport) close() {}
