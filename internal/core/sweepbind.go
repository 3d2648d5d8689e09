package core

// BindAll is the trial loop's batched Bind (plan.go): one coupled trial
// (one RNG stream: placement, then synthesis over the stream state placement
// left behind) classified under every timing model of a sweep at once. The
// per-lane artifacts integrate with the same pipeline caches a one-cell Run
// uses — keys are rebuilt per lane from the lane placer's fingerprint, so a
// plan and a one-cell Run populate and hit identical entries.

import (
	"fmt"

	"velociti/internal/perf"
	"velociti/internal/schedule"
	"velociti/internal/stats"
)

// BindAll produces the gate-class bindings of one trial under every timing
// model in lats. The configured placer must implement schedule.SweepPlacer
// (every built-in placer does) unless the config is in explicit mode, where
// the circuit is fixed and every lane shares one binding.
//
// Bit-exactness contract: BindAll(seed, lats)[j] equals the Bind(seed) of a
// Stages whose Placer is sweepPlacer.At(lats[j]) — same layout, same gate
// sequence, same classes — because all lanes consume one shared RNG stream
// whose draws are latency-independent. Lanes whose synthesized circuits
// coincide (always, for latency-free placers) share one *perf.Binding.
func (s *Stages) BindAll(seed int64, lats []perf.Latencies) ([]*perf.Binding, error) {
	nl := len(lats)
	if nl == 0 {
		return nil, fmt.Errorf("core: BindAll requires at least one timing model")
	}
	out := make([]*perf.Binding, nl)
	if s.shared != nil {
		// Explicit mode: the binding depends on (circuit, layout) only.
		b, err := s.Bind(seed)
		if err != nil {
			return nil, err
		}
		for j := range out {
			out[j] = b
		}
		return out, nil
	}
	sp, ok := s.cfg.Placer.(schedule.SweepPlacer)
	if !ok {
		return nil, fmt.Errorf("core: placer %q does not support batched synthesis", s.cfg.Placer.Name())
	}

	// Per-lane bind cache keys ("" disables caching for the lane).
	bindKeys := make([]string, nl)
	if s.pl != nil && s.keyPol != "" {
		for j := range lats {
			if pk, ok := policyKey(sp.At(lats[j])); ok {
				bindKeys[j] = seedKey(s.placerBindKey(pk), seed)
			}
		}
		// All-lanes-hit fast path; a partial hit recomputes everything,
		// since the coupled trial is one pass that produces all lanes. A
		// run of lanes with one key (every lane of a latency-free placer)
		// is one artifact, so it is looked up, and counted, once.
		hit := true
		for j, key := range bindKeys {
			if key == "" {
				hit = false
				break
			}
			if j > 0 && key == bindKeys[j-1] {
				out[j] = out[j-1]
				continue
			}
			v, ok := s.pl.bind.Get(key)
			if !ok {
				hit = false
				break
			}
			out[j] = v.(*perf.Binding)
		}
		if hit {
			return out, nil
		}
	}

	// The generator never escapes the coupled trial, so its state storage
	// is pooled; PooledRand's stream is bit-identical to NewRand's.
	r := stats.PooledRand(seed)
	defer stats.RecycleRand(r)
	layout, err := s.cfg.Placement.Place(s.device, s.spec.Qubits, r)
	if err != nil {
		return nil, err
	}
	circs, err := sp.PlaceAll(s.spec, layout, r, lats)
	if err != nil {
		return nil, err
	}
	for j, c := range circs {
		// Lanes aliasing an earlier lane's circuit share its binding.
		aliased := false
		for i := 0; i < j; i++ {
			if circs[i] == c {
				out[j] = out[i]
				aliased = true
				break
			}
		}
		if aliased {
			continue
		}
		b, err := perf.NewEvaluatorScratch(c).Bind(layout)
		if err != nil {
			return nil, err
		}
		// Backend annotation happens before the binding reaches the cache
		// or any aliasing lane, matching bindCompute's publish contract.
		if err := s.cfg.Backend.Prepare(b, layout); err != nil {
			return nil, err
		}
		out[j] = b
		if bindKeys[j] != "" {
			s.pl.bind.Put(bindKeys[j], b)
		}
	}
	return out, nil
}
