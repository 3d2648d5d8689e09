package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"velociti/internal/core"
)

func TestPercentileAndSampleCountRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %g, want 50", got)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90", got)
	}
	if got := percentile(xs[:1], 90); got != 100 {
		t.Errorf("p90 of one sample = %g, want the sample", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %g, want 2.5", got)
	}
	// The 90th percentile is reported only with ten samples beyond it, so
	// a run needs minOpsForP90 ops and no fewer.
	if got := samplesBeyond(minOpsForP90, 90); got < 10 {
		t.Errorf("samplesBeyond(%d, 90) = %d, want ≥ 10", minOpsForP90, got)
	}
	if got := samplesBeyond(minOpsForP90-1, 90); got >= 10 {
		t.Errorf("samplesBeyond(%d, 90) = %d: minOpsForP90 is not the smallest sufficient count", minOpsForP90-1, got)
	}
	if got := samplesBeyond(1000, 50); got != 500 {
		t.Errorf("samplesBeyond(1000, 50) = %d, want 500", got)
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeFromNestedSpans(t *testing.T) {
	spans := []span{
		{name: opSpan, parent: -1, start: ms(0), end: ms(100), covers: -1},
		{name: "a", parent: 0, start: ms(10), end: ms(40), covers: -1},
		{name: "a.inner", parent: 1, start: ms(15), end: ms(25), covers: -1},
		{name: "b", parent: 0, start: ms(50), end: ms(70), covers: -1},
		{name: "c", parent: 0, start: ms(60), end: ms(80), covers: -1}, // overlaps b
	}
	want := []time.Duration{ms(40), ms(20), ms(10), ms(20), ms(20)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].name, got[i], want[i])
		}
	}
	l := newLedger(&tracer{spans: spans, units: []named{{"a", 4}}})
	if l.opTotal != ms(100) || l.unattributed != ms(40) {
		t.Errorf("ledger op total %v unattributed %v, want 100ms and 40ms", l.opTotal, l.unattributed)
	}
	if got := l.share("a"); got != 0.2 {
		t.Errorf("share(a) = %g, want 0.2", got)
	}
	if got := l.perUnit("a"); got != float64(ms(5)) {
		t.Errorf("perUnit(a) = %g ns, want 5ms", got)
	}
}

func TestReplayCoversItsSpan(t *testing.T) {
	// A request's round trip is broken down by a replay of its in-process
	// work inside the same op: the round trip keeps only what the replay
	// does not account for, and the replay is not op time.
	spans := []span{
		{name: opSpan, parent: -1, start: ms(0), end: ms(165), covers: -1},
		{name: "serve.http", parent: 0, start: ms(0), end: ms(100), covers: -1},
		{name: replaySpan, parent: 0, start: ms(100), end: ms(160), covers: 1},
		{name: "perf.fold", parent: 2, start: ms(100), end: ms(150), covers: -1},
	}
	want := []time.Duration{ms(5), ms(40), ms(10), ms(50)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].name, got[i], want[i])
		}
	}
	l := newLedger(&tracer{spans: spans})
	if l.opTotal != ms(105) || l.unattributed != ms(15) || l.replays != 1 || l.replayTotal != ms(60) {
		t.Errorf("ledger op total %v unattributed %v replays %d (%v), want 105ms, 15ms, 1 (60ms)",
			l.opTotal, l.unattributed, l.replays, l.replayTotal)
	}
	if got := l.share("serve.http") + l.share("perf.fold") + float64(l.unattributed)/float64(l.opTotal); got < 0.999 || got > 1.001 {
		t.Errorf("shares sum to %g, want 1", got)
	}
}

// outputOf runs op 0 of a tiny workload and returns it with the workload.
func outputOf(t *testing.T, name string) (workload, any) {
	t.Helper()
	w, err := newWorkload(name, tinySize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.close)
	if err := w.setup(7); err != nil {
		t.Fatal(err)
	}
	out, err := w.op(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.check(0, out); err != nil {
		t.Fatalf("valid output rejected: %v", err)
	}
	return w, out
}

func wantCheckFailure(t *testing.T, what string, err error) {
	t.Helper()
	if !errors.Is(err, errCheck) {
		t.Errorf("%s: check returned %v, want an output-check failure", what, err)
	}
}

func TestSweepCheckerRejectsCorruptRows(t *testing.T) {
	w, out := outputOf(t, "sweep-cold")
	csv := string(out.(sweepOut).csv)
	lines := strings.Split(strings.TrimSuffix(csv, "\n"), "\n")
	row := strings.Split(lines[1], ",")
	edit := func(field int, value string) string {
		f := append([]string(nil), row...)
		f[field] = value
		l := append([]string(nil), lines...)
		l[1] = strings.Join(f, ",")
		return strings.Join(l, "\n") + "\n"
	}
	bad := map[string]string{
		"missing row":                strings.Join(lines[:len(lines)-1], "\n") + "\n",
		"parallel below its minimum": edit(9, "0.001"),
		"serial below parallel max":  edit(8, "0.002"),
		"zero parallel minimum":      edit(10, "0.000"),
		"more weak gates than 2q":    edit(13, "1e9"),
		"header":                     strings.Replace(csv, "workload,", "app,", 1),
	}
	// α=1.0 rows follow their α=2.0 row; raising one above it breaks the
	// monotonicity check.
	l2 := append([]string(nil), lines...)
	f := strings.Split(l2[2], ",")
	f[9], f[11], f[8] = "1e12", "1e12", "1e13"
	l2[2] = strings.Join(f, ",")
	bad["parallel rises as α falls"] = strings.Join(l2, "\n") + "\n"
	for what, c := range bad {
		_, err := w.check(0, sweepOut{csv: []byte(c)})
		wantCheckFailure(t, what, err)
	}
	_, err := w.check(0, sweepOut{csv: []byte(csv), skipped: 1})
	wantCheckFailure(t, "skipped cell", err)
}

func TestServeCheckerRejectsCorruptBodies(t *testing.T) {
	w, out := outputOf(t, "serve-warm")
	r := out.(serveResp)
	body := append([]byte(nil), r.body...)
	body[len(body)/2] ^= 1
	for what, bad := range map[string]serveResp{
		"flipped byte":  {req: r.req, status: r.status, body: body},
		"truncated":     {req: r.req, status: r.status, body: r.body[:len(r.body)-1]},
		"error status":  {req: r.req, status: 500, body: r.body},
		"skipped cells": {req: r.req, status: r.status, skipped: 1, body: r.body},
	} {
		_, err := w.check(0, bad)
		wantCheckFailure(t, what, err)
	}
}

func TestStreamCheckerRejectsCorruptReports(t *testing.T) {
	w, out := outputOf(t, "stream-1m")
	clone := func() streamOut {
		var o streamOut
		b, err := json.Marshal(out.(streamOut).weak)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &o.weak); err != nil {
			t.Fatal(err)
		}
		sh := *out.(streamOut).shuttle
		o.shuttle = &sh
		return o
	}
	o := clone()
	o.weak[0].Spec.TwoQubitGates--
	_, err := w.check(0, o)
	wantCheckFailure(t, "gate count", err)
	o = clone()
	o.weak[2].Parallel.Mean = o.weak[1].Parallel.Mean * 2
	_, err = w.check(0, o)
	wantCheckFailure(t, "parallel rises as α falls", err)
	o = clone()
	o.weak[0].Trials[0].Perf.CriticalPath = []string{"g0"}
	_, err = w.check(0, o)
	wantCheckFailure(t, "critical path", err)
}

func TestQASMCheckerRejectsCorruptReports(t *testing.T) {
	w, out := outputOf(t, "qasm-import")
	o := out.(qasmOut)
	rep := *o.reports[0]
	rep.Parallel.Mean++
	bad := qasmOut{circuits: o.circuits, reports: append([]*core.Report{&rep}, o.reports[1:]...)}
	_, err := w.check(0, bad)
	wantCheckFailure(t, "report", err)
	short := o.circuits[1].Clone()
	short.X(0)
	bad = qasmOut{circuits: append(append(o.circuits[:1:1], short), o.circuits[2:]...), reports: o.reports}
	_, err = w.check(0, bad)
	wantCheckFailure(t, "gate count", err)
}

// TestSmokeRuns drives every workload end to end at tiny size, untraced and
// traced, through the same code path the command uses.
func TestSmokeRuns(t *testing.T) {
	for _, name := range []string{"sweep-cold", "serve-warm", "stream-1m", "qasm-import"} {
		for _, trace := range []bool{false, true} {
			name, trace := name, trace
			t.Run(name+map[bool]string{false: "/measured", true: "/traced"}[trace], func(t *testing.T) {
				cfg := config{workload: name, seed: 3, seconds: 0.01, trace: trace, size: tinySize, setups: 2, minOps: 3,
					traceOut: filepath.Join(t.TempDir(), "trace.json")}
				var stdout, stderr bytes.Buffer
				if err := run(cfg, time.Now(), &stdout, &stderr); err != nil {
					t.Fatalf("run: %v\n%s", err, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not JSON: %v", err)
				}
				if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
					t.Fatalf("result keys = %s, want exactly correct, attempted, failed, metrics", lines[len(lines)-1])
				}
				var r result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 3 {
					t.Fatalf("result %+v\n%s", r, stderr.String())
				}
				want := []string{"setup_s", "ops_per_s", "op_ms_p50", "op_ms_p90", "peak_rss_mib"}
				if trace {
					want = want[:0]
					for _, m := range layerMetrics {
						want = append(want, m.name)
					}
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(r.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := r.Metrics[m]
					if !ok {
						t.Errorf("metric %s missing", m)
					} else if !trace && v.Value <= 0 {
						t.Errorf("metric %s = %g, want > 0", m, v.Value)
					}
				}
			})
		}
	}
}

func TestHostSpeedScalesToTheNominalProbe(t *testing.T) {
	h := hostSpeed{samples: []float64{float64(4 * probeNominal), float64(2 * probeNominal), float64(probeNominal / 2)}}
	if got := h.scale(); got != 0.5 {
		t.Errorf("scale = %g, want 0.5 for a host that runs the probe at half speed", got)
	}
	// An op is scaled by the two probes before it and the two after it, so
	// a slow phase late in a run scales only the ops inside it.
	n := float64(probeNominal)
	p := hostSpeed{samples: []float64{n, n, n, n, 2 * n, 2 * n, 2 * n, 2 * n}}
	if got := p.scaleAt(2); got != 1 {
		t.Errorf("scaleAt(2) = %g, want 1 inside the fast phase", got)
	}
	if got := p.scaleAt(6); got != 0.5 {
		t.Errorf("scaleAt(6) = %g, want 0.5 inside the slow phase", got)
	}
	if got := p.scaleAt(8); got != 0.5 {
		t.Errorf("scaleAt(8) = %g, want 0.5 after the last probe", got)
	}
	if _, err := runProbe(); err != nil {
		t.Fatal(err)
	}
	var g hostSpeed
	for i := 0; i < 3; i++ {
		if err := g.afterOp(probeEvery / 2); err != nil {
			t.Fatal(err)
		}
	}
	if len(g.samples) != 1 {
		t.Errorf("%d probes after 1.5 probe intervals of op time, want 1", len(g.samples))
	}
}
