package core

// This file is the streaming trial path: the counterpart of the coupled
// trial → Bind → Time stages for workloads too large to materialize. One
// streaming trial places qubits, then pushes the workload's gates straight
// through the backend's frontier kernel (StreamTimeAll), pricing every
// requested timing model in one pass.
// Peak memory is O(qubits + window), independent of the gate count.
//
// Equivalence contract (pinned by stream_test.go): for every workload
// form — explicit circuit, circuit.Program, or spec+placer — a streaming
// trial produces the same perf.Result as the materialized trial for the
// same seed, bit for bit, except that CriticalPath is empty (recovering
// the argmax path needs Θ(gates) memory, exactly what streaming exists
// to avoid). The RNG discipline is the one stages.go documents: one
// stream per trial, placement first, then the gate placer over whatever
// stream state placement left behind. schedule.Placer guarantees
// EmitPlace draws the stream identically to Place.

import (
	"fmt"

	"velociti/internal/circuit"
	"velociti/internal/perf"
	"velociti/internal/stats"
	"velociti/internal/ti"
)

// streamArtifact is the cached product of one streaming trial: the
// per-lane results plus the stream's gate counts. Cached artifacts are
// shared read-only.
type streamArtifact struct {
	rs []perf.Result
	st perf.StreamStats
}

// StreamEval runs one streaming trial: place the trial's qubits, stream
// the workload's gates through the backend's frontier kernel, and price
// every timing model in lats (lane j equals the materialized
// Time(b, lats[j]) minus CriticalPath). Results are memoized in the
// pipeline's stream cache when the configuration can describe itself
// canonically; a streamed Program cannot (its body is opaque), so it is
// never cached and never hashed.
func (s *Stages) StreamEval(seed int64, lats []perf.Latencies) ([]perf.Result, perf.StreamStats, error) {
	key := s.streamEvalKey(seed, lats)
	if key != "" {
		if v, ok := s.pl.stream.Get(key); ok {
			a := v.(streamArtifact)
			return a.rs, a.st, nil
		}
	}
	src, layout, err := s.streamSource(seed)
	if err != nil {
		return nil, perf.StreamStats{}, err
	}
	rs, sst, err := s.cfg.Backend.StreamTimeAll(src, layout, lats)
	if err != nil {
		return nil, perf.StreamStats{}, err
	}
	if key != "" {
		s.pl.stream.Put(key, streamArtifact{rs: rs, st: sst})
	}
	return rs, sst, nil
}

// streamEvalKey builds the full stream-cache key for one (seed, lats)
// evaluation, or "" when the stage is uncacheable.
func (s *Stages) streamEvalKey(seed int64, lats []perf.Latencies) string {
	if s.pl == nil || s.streamKey == "" {
		return ""
	}
	return fmt.Sprintf("%s|seed=%d|lats=%v", s.streamKey, seed, lats)
}

// streamSource resolves the trial's gate stream and layout. Placement
// draws from the head of the trial's RNG stream exactly as the
// materialized path does; in spec mode the returned Source is
// SINGLE-USE — its Emit consumes the same RNG stream where placement
// left it, and the frontier kernels call Emit exactly once.
func (s *Stages) streamSource(seed int64) (circuit.Source, *ti.Layout, error) {
	r := stats.NewRand(seed)
	layout, err := s.cfg.Placement.Place(s.device, s.spec.Qubits, r)
	if err != nil {
		return circuit.Source{}, nil, err
	}
	if s.cfg.Circuit != nil {
		return s.cfg.Circuit.Source(), layout, nil
	}
	if s.cfg.Program != nil {
		return s.cfg.Program.Source(), layout, nil
	}
	p, spec, l := s.cfg.Placer, s.spec, layout
	return circuit.Source{
		Name:   spec.Name,
		Qubits: spec.Qubits,
		Emit: func(yield func(*circuit.Gate) error) error {
			e := circuit.NewEmitter(spec.Name, spec.Qubits, yield)
			if err := p.EmitPlace(spec, l, r, e); err != nil {
				return err
			}
			return e.Err()
		},
	}, layout, nil
}

// fillStreamedSpec backfills report gate counts that a streamed Program
// cannot know up front: the spec carries the counts observed by the
// frontier kernel (identical across trials — Program emission is
// deterministic).
func fillStreamedSpec(cfg Config, spec circuit.Spec, sst perf.StreamStats) circuit.Spec {
	if cfg.Program != nil {
		spec.OneQubitGates = sst.OneQubitGates
		spec.TwoQubitGates = sst.TwoQubitGates
	}
	return spec
}
