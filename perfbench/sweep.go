package main

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"

	"velociti/internal/apps"
	"velociti/internal/circuit"
	"velociti/internal/core"
	"velociti/internal/expt"
	"velociti/internal/perf"
	"velociti/internal/schedule"
	"velociti/internal/stats"
	"velociti/internal/ti"
	vworkload "velociti/internal/workload"
)

// sweepCold is velociti-sweep in a fresh process: the paper's batch
// workflow (§V-A, Figs. 5 and 7) with every cache empty. Each op runs one
// whole grid through core.RunGrid with a new Pipeline and renders its CSV,
// so the cold trial path — seeding, placement, synthesis, bind and
// critical-path labelling — does the work, and the α=1.0 cells read the
// bindings the α=2.0 cells just stored.
type sweepCold struct {
	specs  []circuit.Spec
	chains []int
	alphas []float64
	runs   int
	warmup int

	seed    int64
	stats   core.StageStats // the last op's pipeline counters
	skipped int             // cells skipped across every op
}

func newSweepCold(sz size) *sweepCold {
	w := &sweepCold{
		specs:  append(vworkload.Fig5Grid(), apps.PaperSpecs()...),
		chains: expt.Fig7ChainLengths,
		alphas: []float64{2.0, 1.0},
		runs:   3,
		warmup: 3,
	}
	if sz == tinySize {
		w.specs = w.specs[:2]
		w.chains = []int{16}
		w.runs = 1
		w.warmup = 1
	}
	return w
}

func (w *sweepCold) grid(i int, pl *core.Pipeline) core.Grid {
	return core.Grid{
		Specs:        w.specs,
		ChainLengths: w.chains,
		Alphas:       w.alphas,
		Placers:      []string{"random"},
		Runs:         w.runs,
		Seed:         opSeed(w.seed, i),
		Workers:      1,
		Pipeline:     pl,
	}
}

func (w *sweepCold) setup(seed int64) error {
	w.seed = seed
	return warmUp(w, w.warmup)
}

func (w *sweepCold) passLen() int { return 1 }

// sweepOut is one sweep's rendered CSV.
type sweepOut struct {
	csv     []byte
	skipped int
}

func (w *sweepCold) op(i int) (any, error) {
	pl := core.NewPipeline()
	res, err := core.RunGrid(context.Background(), w.grid(i, pl))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		return nil, err
	}
	w.stats = pl.Stats()
	w.skipped += res.Failed()
	return sweepOut{csv: buf.Bytes(), skipped: res.Failed()}, nil
}

func (w *sweepCold) check(i int, out any) ([]byte, error) {
	o := out.(sweepOut)
	if o.skipped != 0 {
		return nil, fmt.Errorf("%w: %d sweep cells skipped", errCheck, o.skipped)
	}
	cells := len(w.specs) * len(w.chains) * len(w.alphas)
	if err := checkSweepCSV(o.csv, cells, len(w.alphas)); err != nil {
		return nil, err
	}
	return o.csv, nil
}

// checkSweepCSV validates a sweep rendering: the header, one row per cell,
// serial ≥ parallel_max ≥ parallel ≥ parallel_min > 0 and weak_gates ≤
// two_qubit_gates on every row, and parallel non-increasing as α falls
// within each (workload, chain length) group of nAlpha adjacent rows,
// whose alphas are listed in falling order.
func checkSweepCSV(csv []byte, cells, nAlpha int) error {
	lines := strings.Split(strings.TrimSuffix(string(csv), "\n"), "\n")
	if len(lines) == 0 || lines[0] != core.CSVHeader {
		return fmt.Errorf("%w: sweep CSV header missing", errCheck)
	}
	rows := lines[1:]
	if len(rows) != cells {
		return fmt.Errorf("%w: sweep CSV has %d rows, want one per cell (%d)", errCheck, len(rows), cells)
	}
	prevParallel := 0.0
	for r, line := range rows {
		f := strings.Split(line, ",")
		if len(f) != 14 {
			return fmt.Errorf("%w: sweep row %d has %d fields, want 14", errCheck, r, len(f))
		}
		var v [14]float64
		for _, k := range []int{2, 6, 8, 9, 10, 11, 13} {
			x, err := strconv.ParseFloat(f[k], 64)
			if err != nil {
				return fmt.Errorf("%w: sweep row %d field %d: %v", errCheck, r, k, err)
			}
			v[k] = x
		}
		twoQ, serial, par, parMin, parMax, weak := v[2], v[8], v[9], v[10], v[11], v[13]
		if !(serial >= parMax && parMax >= par && par >= parMin && parMin > 0) {
			return fmt.Errorf("%w: sweep row %d breaks serial ≥ parallel_max ≥ parallel ≥ parallel_min > 0: %s", errCheck, r, line)
		}
		if weak > twoQ {
			return fmt.Errorf("%w: sweep row %d has weak_gates %g > two_qubit_gates %g", errCheck, r, weak, twoQ)
		}
		if r%nAlpha != 0 && par > prevParallel {
			return fmt.Errorf("%w: sweep row %d: parallel %g rises above %g as α falls", errCheck, r, par, prevParallel)
		}
		prevParallel = par
	}
	return nil
}

// replay re-runs op i's grid one public call at a time. A binding memo
// keyed by (spec, chain length, trial) stands in for the pipeline's bind
// cache, so α=1.0 cells reuse the α=2.0 bindings exactly as the op does.
func (w *sweepCold) replay(i int, tr *tracer) (any, error) {
	g := w.grid(i, nil)
	res := &core.GridResult{}
	base := perf.DefaultLatencies()
	for _, spec := range g.Specs {
		for _, L := range g.ChainLengths {
			d, err := ti.DeviceFor(spec.Qubits, L, ti.Ring)
			if err != nil {
				return nil, err
			}
			memo := make([]*perf.Binding, g.Runs)
			for _, alpha := range g.Alphas {
				lat := base
				lat.WeakPenalty = alpha
				placer, err := schedule.ByName(g.Placers[0], lat)
				if err != nil {
					return nil, err
				}
				trials := make([]core.TrialResult, g.Runs)
				for t := range trials {
					seed := stats.SplitSeed(g.Seed, t)
					if memo[t] == nil {
						b, err := bindTrial(tr, d, spec, placer, nil, seed)
						if err != nil {
							return nil, err
						}
						labelEvaluator(tr, b.Evaluator())
						memo[t] = b
					}
					r, err := timeTrial(tr, memo[t], lat)
					if err != nil {
						return nil, err
					}
					trials[t] = core.TrialResult{Seed: seed, Perf: r}
				}
				res.Cells = append(res.Cells, core.GridCell{Spec: spec, ChainLength: L, Alpha: alpha, Placer: g.Placers[0]})
				res.Reports = append(res.Reports, buildReport(tr, spec, d, trials))
			}
		}
	}
	tr.begin("core.render")
	var buf bytes.Buffer
	err := res.WriteCSV(&buf)
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.count("core.render", float64(buf.Len()))
	return sweepOut{csv: buf.Bytes()}, nil
}

func (w *sweepCold) ledger(l *ledger) error {
	b := w.stats.Bind
	if n := b.Hits + b.Misses; n > 0 {
		l.set("core.cache.bind_hit_ratio", float64(b.Hits)/float64(n))
	}
	l.set("core.grid.skipped_cells", float64(w.skipped))
	return nil
}

func (w *sweepCold) close() {}
