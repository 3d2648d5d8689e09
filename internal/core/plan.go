package core

// This file is the one trial loop. The cells of a sweep that differ only in
// the timing model, the α lanes of one (workload, chain length, placer,
// backend) plan, share every stage up to Bind, since α enters only where a
// binding is priced (Eq. 2). So each (plan, trial) job binds once and hands
// the lane bindings to the caller's pricing: RunSweepContext runs one plan,
// RunGrid one per (spec, chain length, placer), and internal/dse one per
// (chain length, placer, backend).

import (
	"context"
	"fmt"

	"velociti/internal/circuit"
	"velociti/internal/perf"
	"velociti/internal/pool"
	"velociti/internal/schedule"
	"velociti/internal/stats"
)

// Plan is one latency-independent configuration of a sweep with its α
// lanes. Build one with NewPlan.
type Plan struct {
	lats []perf.Latencies
	// stages[k] binds lanes [k·w, (k+1)·w), w = len(lats)/len(stages).
	// One Stages binds every lane when batch is set (a sweep placer,
	// through BindAll) or the placer is fixed across lanes (RunSweep).
	// The annealed placer, whose searched layout differs per lane
	// circuit, and streaming grids, whose stream cache keys then stay a
	// one-cell run's, get one per lane.
	stages []*Stages
	batch  bool
	// recycle returns a batched binding's circuit and evaluator to their
	// scratch pools once priced; it is set only without a Pipeline, where
	// nothing else holds them.
	recycle bool
}

// NewPlan resolves the lanes of one plan: lane j runs cfg under lats[j]
// with the gate placer named placer resolved under lats[j]. Each lane is
// validated with the calls a one-cell Run of it makes, and errs[j] holds
// an invalid lane's error with that Run's text. The plan prices the valid
// lanes, in order, and is nil when none is valid.
func NewPlan(cfg Config, placer string, lats []perf.Latencies) (*Plan, []error) {
	p := &Plan{lats: make([]perf.Latencies, 0, len(lats))}
	errs := make([]error, len(lats))
	for j, lat := range lats {
		cfg.Latencies = Config{Latencies: lat}.normalized().Latencies
		if p.batch {
			// The lanes differ only in the timing model, so this is the
			// one check of a one-cell Run that can still fail.
			errs[j] = cfg.Latencies.Validate()
		} else {
			errs[j] = p.addLane(cfg, placer)
		}
		if errs[j] == nil {
			p.lats = append(p.lats, cfg.Latencies)
		}
	}
	if len(p.lats) == 0 {
		return nil, errs
	}
	return p, errs
}

// addLane resolves one lane as a one-cell Run does: the placer name under
// the lane's timing model, then NewStages. The first valid lane decides
// how the plan binds.
func (p *Plan) addLane(cfg Config, placer string) error {
	pl, err := schedule.ByName(placer, cfg.Latencies)
	if err != nil {
		return err
	}
	cfg.Placer = pl
	st, err := NewStages(cfg)
	if err != nil {
		return err
	}
	_, sweep := pl.(schedule.SweepPlacer)
	p.batch = sweep && len(p.stages) == 0 && !cfg.Stream
	p.recycle = p.batch && st.pl == nil && st.shared == nil
	p.stages = append(p.stages, st)
	return nil
}

// Lats returns the timing models of the plan's lanes, in lane order.
func (p *Plan) Lats() []perf.Latencies { return p.lats }

// PriceFunc prices lanes [a0, a1) of trial ri of plans[pi], all of which
// read binding b. It runs concurrently for distinct (pi, ri) jobs.
type PriceFunc func(pi, ri, a0, a1 int, b *perf.Binding) error

// RunPlans runs every (plan, trial) job across workers: trial ri of each
// plan draws stats.SplitSeed(seed, ri), binds once, and hands each run of
// lanes that share a binding to price, in lane order. It returns the
// failure of the lowest-indexed failed job (job pi*runs+ri), the same at
// every worker count.
func RunPlans(ctx context.Context, plans []*Plan, runs, workers int, seed int64, price PriceFunc) error {
	return firstErr(runPlans(ctx, plans, runs, workers, seed, func(pi, ri int, seed int64) error {
		return plans[pi].bind(pi, ri, seed, price)
	}))
}

// runPlans runs job pi*runs+ri, trial ri of plans[pi], for every plan and
// trial across workers, and returns each job's error (nil when all
// succeeded); a job that never ran because ctx ended holds ctx's error.
func runPlans(ctx context.Context, plans []*Plan, runs, workers int, seed int64, job func(pi, ri int, seed int64) error) []error {
	return pool.RunAll(ctx, workers, len(plans)*runs, func(i int) error {
		ri := i % runs
		return job(i/runs, ri, stats.SplitSeed(seed, ri))
	})
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// bind binds one trial's lanes and hands each run of lanes that share a
// binding to price. Lanes that alias one binding are adjacent: a sweep
// placer either shares one circuit across all lanes or builds one per lane.
func (p *Plan) bind(pi, ri int, seed int64, price PriceFunc) error {
	if !p.batch {
		w := len(p.lats) / len(p.stages)
		for k, st := range p.stages {
			b, err := st.Bind(seed)
			if err != nil {
				return err
			}
			if err := price(pi, ri, k*w, (k+1)*w, b); err != nil {
				return err
			}
		}
		return nil
	}
	bs, err := p.stages[0].BindAll(seed, p.lats)
	if err != nil {
		return err
	}
	for a0 := 0; a0 < len(bs); {
		a1 := a0 + 1
		for a1 < len(bs) && bs[a1] == bs[a0] {
			a1++
		}
		if err := price(pi, ri, a0, a1, bs[a0]); err != nil {
			return err
		}
		if p.recycle {
			ev := bs[a0].Evaluator()
			circuit.Recycle(ev.Circuit())
			perf.RecycleEvaluator(ev)
		}
		a0 = a1
	}
	return nil
}

// stream prices one trial's lanes into out through the backend's frontier
// kernel, one pass per Stages, and returns the first pass's statistics,
// which carry a streamed Program's gate counts.
func (p *Plan) stream(seed int64, out []perf.Result) (perf.StreamStats, error) {
	var sst0 perf.StreamStats
	w := len(p.lats) / len(p.stages)
	for k, st := range p.stages {
		rs, sst, err := st.StreamEval(seed, p.lats[k*w:(k+1)*w])
		if err != nil {
			return sst0, err
		}
		if k == 0 {
			sst0 = sst
		}
		copy(out[k*w:], rs)
	}
	return sst0, nil
}

// runReports runs plans through the trial loop, prices every lane under its
// own timing model (Binding.TimeAll, or the stream pass), and returns each
// plan's per-lane reports, or its failure: the lowest failed trial's error,
// as a one-cell Run reports it.
func runReports(ctx context.Context, plans []*Plan, runs, workers int, seed int64) ([][]*Report, []error) {
	results := make([][]perf.Result, len(plans))
	for pi, p := range plans {
		results[pi] = make([]perf.Result, runs*len(p.lats))
	}
	// Trial 0's stream statistics fill in a streamed Program's gate counts
	// (every trial of a deterministic program streams the same counts).
	sst0 := make([]perf.StreamStats, len(plans))
	price := func(pi, ri, a0, a1 int, b *perf.Binding) error {
		lats := plans[pi].lats
		rs, err := b.TimeAll(lats[a0:a1])
		if err != nil {
			return err
		}
		copy(results[pi][ri*len(lats)+a0:], rs)
		return nil
	}
	errs := runPlans(ctx, plans, runs, workers, seed, func(pi, ri int, seed int64) error {
		p := plans[pi]
		var err error
		if p.stages[0].cfg.Stream {
			nl := len(p.lats)
			var sst perf.StreamStats
			sst, err = p.stream(seed, results[pi][ri*nl:(ri+1)*nl])
			if ri == 0 {
				sst0[pi] = sst
			}
		} else {
			err = p.bind(pi, ri, seed, price)
		}
		if err != nil {
			return fmt.Errorf("core: trial %d: %w", ri, err)
		}
		return nil
	})
	reports := make([][]*Report, len(plans))
	planErrs := make([]error, len(plans))
	for pi, p := range plans {
		if errs != nil {
			if planErrs[pi] = firstErr(errs[pi*runs : (pi+1)*runs]); planErrs[pi] != nil {
				continue
			}
		}
		st, nl := p.stages[0], len(p.lats)
		spec := fillStreamedSpec(st.cfg, st.spec, sst0[pi])
		for j := 0; j < nl; j++ {
			trials := make([]TrialResult, runs)
			for i := range trials {
				trials[i] = TrialResult{Seed: stats.SplitSeed(seed, i), Perf: results[pi][i*nl+j]}
			}
			reports[pi] = append(reports[pi], buildReport(spec, st.device, trials))
		}
	}
	return reports, planErrs
}
