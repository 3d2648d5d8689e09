package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: velociti
BenchmarkParallelModelQFT-8      	     200	     50000 ns/op
BenchmarkParallelModelQFT-8      	     200	     60000 ns/op
BenchmarkGateGraphConstruction-8 	     200	    200000 ns/op
BenchmarkNewThing               	     100	      1234 ns/op
PASS
ok  	velociti	1.234s
`

const sampleBenchMem = `goos: linux
BenchmarkDesignSpaceExploration-8 	     200	   4100000 ns/op	  221568 B/op	    1141 allocs/op
BenchmarkDesignSpaceExploration-8 	     200	   4300000 ns/op	  221570 B/op	    1141 allocs/op
BenchmarkParallelModelQFT-8      	     200	     50000 ns/op
PASS
`

// nsOnly builds a legacy bare-number entry.
func nsOnly(ns float64) metric { return metric{NsOp: ns} }

// full builds an entry gating all three metrics.
func full(ns, allocs, bytes float64) metric {
	return metric{NsOp: ns, AllocsOp: &allocs, BOp: &bytes}
}

func writeTempBaseline(t *testing.T, b baseline) string {
	t.Helper()
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseBenchAveragesAndStripsSuffix(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if got["BenchmarkParallelModelQFT"].NsOp != 55000 {
		t.Fatalf("average = %v, want 55000", got["BenchmarkParallelModelQFT"].NsOp)
	}
	if got["BenchmarkGateGraphConstruction"].NsOp != 200000 {
		t.Fatalf("single = %v", got["BenchmarkGateGraphConstruction"].NsOp)
	}
	if got["BenchmarkNewThing"].NsOp != 1234 {
		t.Fatalf("suffixless = %v", got["BenchmarkNewThing"].NsOp)
	}
	if m := got["BenchmarkParallelModelQFT"]; m.AllocsOp != nil || m.BOp != nil {
		t.Fatalf("memory metrics appeared without ReportAllocs rows: %+v", m)
	}
}

func TestParseBenchMemoryColumns(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleBenchMem))
	if err != nil {
		t.Fatal(err)
	}
	m := got["BenchmarkDesignSpaceExploration"]
	if m.NsOp != 4200000 {
		t.Fatalf("ns/op average = %v", m.NsOp)
	}
	if m.AllocsOp == nil || *m.AllocsOp != 1141 {
		t.Fatalf("allocs/op = %v", m.AllocsOp)
	}
	if m.BOp == nil || *m.BOp != 221569 {
		t.Fatalf("B/op average = %v", m.BOp)
	}
	if q := got["BenchmarkParallelModelQFT"]; q.AllocsOp != nil {
		t.Fatalf("memory metric leaked onto a row without columns: %+v", q)
	}
	// A benchmark that calls SetBytes prints MB/s before the memory columns.
	got, err = parseBench(strings.NewReader("BenchmarkQASMParseQFT64-8 \t 1\t 36417225 ns/op\t 7.33 MB/s\t 7623080 B/op\t 127448 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if q := got["BenchmarkQASMParseQFT64"]; q.NsOp != 36417225 || q.AllocsOp == nil || *q.AllocsOp != 127448 || q.BOp == nil || *q.BOp != 7623080 {
		t.Fatalf("SetBytes row = %+v", q)
	}
}

func TestMetricJSONRoundTrip(t *testing.T) {
	b := baseline{Benchmarks: map[string]metric{
		"BenchmarkLegacy": nsOnly(13465503),
		"BenchmarkGated":  full(4100000, 1141, 221568),
	}}
	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"BenchmarkLegacy":13465503`) {
		t.Fatalf("legacy entry not a bare number: %s", data)
	}
	if !strings.Contains(string(data), `"allocs_op":1141`) {
		t.Fatalf("gated entry missing allocs_op: %s", data)
	}
	var back baseline
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if m := back.Benchmarks["BenchmarkLegacy"]; m.NsOp != 13465503 || m.AllocsOp != nil {
		t.Fatalf("legacy round trip = %+v", m)
	}
	if m := back.Benchmarks["BenchmarkGated"]; *m.AllocsOp != 1141 || *m.BOp != 221568 || m.NsOp != 4100000 {
		t.Fatalf("gated round trip = %+v", m)
	}
}

func TestMetricJSONRejectsMissingNsOp(t *testing.T) {
	var m metric
	if err := json.Unmarshal([]byte(`{"allocs_op": 5}`), &m); err == nil {
		t.Fatal("want error for entry without ns_op")
	}
}

func TestRunReportsSpeedupsAndNotes(t *testing.T) {
	path := writeTempBaseline(t, baseline{Benchmarks: map[string]metric{
		"BenchmarkParallelModelQFT":      nsOnly(178580),
		"BenchmarkGateGraphConstruction": nsOnly(8304790),
		"BenchmarkMissing":               nsOnly(100),
	}})
	var out strings.Builder
	err := run([]string{"-baseline", path}, strings.NewReader(sampleBench), &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"ok BenchmarkParallelModelQFT: 55000 ns/op vs baseline 178580 (3.25x faster)",
		"ok BenchmarkGateGraphConstruction",
		"WARN BenchmarkMissing: tracked in baseline but missing from input",
		"note BenchmarkNewThing: 1234 ns/op (not tracked in baseline)",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunFlagsRegression(t *testing.T) {
	path := writeTempBaseline(t, baseline{Benchmarks: map[string]metric{
		"BenchmarkParallelModelQFT": nsOnly(10000), // sample's 55000 is 5.5x slower
	}})
	var out strings.Builder
	if err := run([]string{"-baseline", path}, strings.NewReader(sampleBench), &out); err != nil {
		t.Fatalf("without -fail a regression must not error: %v", err)
	}
	if !strings.Contains(out.String(), "REGRESSION BenchmarkParallelModelQFT") {
		t.Fatalf("no regression line:\n%s", out.String())
	}
	err := run([]string{"-baseline", path, "-fail"}, strings.NewReader(sampleBench), &out)
	if err == nil || !strings.Contains(err.Error(), "1 benchmark regression") {
		t.Fatalf("-fail err = %v", err)
	}
}

func TestRunWithinThresholdPasses(t *testing.T) {
	path := writeTempBaseline(t, baseline{Benchmarks: map[string]metric{
		"BenchmarkParallelModelQFT": nsOnly(50000), // 55000 is +10%, under 30%
	}})
	var out strings.Builder
	if err := run([]string{"-baseline", path, "-fail"}, strings.NewReader(sampleBench), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(+10.0%)") {
		t.Fatalf("missing within-threshold line:\n%s", out.String())
	}
}

func TestRunGatesAllocRegressionIndependently(t *testing.T) {
	// ns/op is well within its 30% tolerance but allocs/op grew 10%:
	// the alloc gate alone must trip.
	path := writeTempBaseline(t, baseline{Benchmarks: map[string]metric{
		"BenchmarkDesignSpaceExploration": full(4200000, 1037, 221569),
	}})
	var out strings.Builder
	err := run([]string{"-baseline", path, "-fail"}, strings.NewReader(sampleBenchMem), &out)
	if err == nil || !strings.Contains(err.Error(), "1 benchmark regression") {
		t.Fatalf("-fail err = %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION BenchmarkDesignSpaceExploration: 1141 allocs/op") {
		t.Fatalf("no alloc regression line:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "ok BenchmarkDesignSpaceExploration: 4200000 ns/op") {
		t.Fatalf("ns/op should pass:\n%s", out.String())
	}

	// Raising only the alloc tolerance clears the failure.
	out.Reset()
	if err := run([]string{"-baseline", path, "-fail", "-alloc-threshold", "0.2"}, strings.NewReader(sampleBenchMem), &out); err != nil {
		t.Fatalf("with loose alloc threshold: %v\n%s", err, out.String())
	}
}

func TestRunGatesBytesRegressionIndependently(t *testing.T) {
	path := writeTempBaseline(t, baseline{Benchmarks: map[string]metric{
		"BenchmarkDesignSpaceExploration": full(4200000, 1141, 150000), // measured 221569 B/op is ~1.48x
	}})
	var out strings.Builder
	err := run([]string{"-baseline", path, "-fail"}, strings.NewReader(sampleBenchMem), &out)
	if err == nil {
		t.Fatalf("want B/op regression\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION BenchmarkDesignSpaceExploration: 221569 B/op") {
		t.Fatalf("no B/op regression line:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-baseline", path, "-fail", "-bytes-threshold", "0.5"}, strings.NewReader(sampleBenchMem), &out); err != nil {
		t.Fatalf("with loose bytes threshold: %v\n%s", err, out.String())
	}
}

func TestRunWarnsWhenTrackedMetricUnmeasured(t *testing.T) {
	// The baseline gates allocs but the input rows carry no memory
	// columns: warn rather than silently pass or fail.
	path := writeTempBaseline(t, baseline{Benchmarks: map[string]metric{
		"BenchmarkParallelModelQFT": full(178580, 10, 1000),
	}})
	var out strings.Builder
	if err := run([]string{"-baseline", path, "-fail"}, strings.NewReader(sampleBench), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "WARN BenchmarkParallelModelQFT: baseline tracks allocs/op but input has none") {
		t.Fatalf("missing allocs warn:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "WARN BenchmarkParallelModelQFT: baseline tracks B/op but input has none") {
		t.Fatalf("missing B/op warn:\n%s", out.String())
	}
}

func TestUpdatePreservesTrackedSetAndNote(t *testing.T) {
	path := writeTempBaseline(t, baseline{
		Note: "reference numbers",
		Benchmarks: map[string]metric{
			"BenchmarkParallelModelQFT":      nsOnly(178580),
			"BenchmarkGateGraphConstruction": nsOnly(8304790),
		},
	})
	var out strings.Builder
	if err := run([]string{"-update", path}, strings.NewReader(sampleBench), &out); err != nil {
		t.Fatal(err)
	}
	got, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Note != "reference numbers" {
		t.Fatalf("note = %q", got.Note)
	}
	if len(got.Benchmarks) != 2 || got.Benchmarks["BenchmarkParallelModelQFT"].NsOp != 55000 {
		t.Fatalf("benchmarks = %+v", got.Benchmarks)
	}
	if _, ok := got.Benchmarks["BenchmarkNewThing"]; ok {
		t.Fatal("untracked benchmark leaked into baseline")
	}
}

func TestUpdatePreservesMetricShape(t *testing.T) {
	// A legacy bare-number entry must stay bare even when the input
	// carries memory columns, and a gated entry keeps all its metrics.
	path := writeTempBaseline(t, baseline{Benchmarks: map[string]metric{
		"BenchmarkParallelModelQFT":       nsOnly(178580),
		"BenchmarkDesignSpaceExploration": full(9000000, 2000, 400000),
	}})
	var out strings.Builder
	if err := run([]string{"-update", path}, strings.NewReader(sampleBenchMem), &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"BenchmarkParallelModelQFT": 50000`) {
		t.Fatalf("legacy entry not preserved as bare number:\n%s", data)
	}
	got, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	m := got.Benchmarks["BenchmarkDesignSpaceExploration"]
	if m.NsOp != 4200000 || m.AllocsOp == nil || *m.AllocsOp != 1141 || m.BOp == nil || *m.BOp != 221569 {
		t.Fatalf("gated entry = %+v", m)
	}
}

func TestUpdateRejectsDroppingTrackedMetric(t *testing.T) {
	path := writeTempBaseline(t, baseline{Benchmarks: map[string]metric{
		"BenchmarkParallelModelQFT": full(178580, 10, 1000),
	}})
	var out strings.Builder
	err := run([]string{"-update", path}, strings.NewReader(sampleBench), &out)
	if err == nil || !strings.Contains(err.Error(), "tracks allocs/op") {
		t.Fatalf("err = %v, want tracked-metric error", err)
	}
}

func TestUpdateCreatesFreshBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fresh.json")
	var out strings.Builder
	if err := run([]string{"-update", path}, strings.NewReader(sampleBenchMem), &out); err != nil {
		t.Fatal(err)
	}
	got, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Benchmarks) != 2 {
		t.Fatalf("benchmarks = %+v", got.Benchmarks)
	}
	// Fresh files record every measured metric.
	if got.Benchmarks["BenchmarkDesignSpaceExploration"].AllocsOp == nil {
		t.Fatalf("fresh baseline dropped allocs: %+v", got.Benchmarks)
	}
}

const sampleBenchRatio = `goos: linux
BenchmarkStreamingEvalSmall-8 	     100	   1000000 ns/op	  100000 B/op	    500 allocs/op
BenchmarkStreamingEvalLarge-8 	      10	 100000000 ns/op	  105000 B/op	    520 allocs/op
PASS
`

// fptr builds a ratio bound.
func fptr(v float64) *float64 { return &v }

func TestRatioGateWithinBound(t *testing.T) {
	// Large/Small is 1.05x on B/op and 1.04x on allocs/op — both inside a
	// 1.1x bound. The 100x ns/op growth is NOT gated and must not trip.
	path := writeTempBaseline(t, baseline{
		Benchmarks: map[string]metric{"BenchmarkStreamingEvalSmall": nsOnly(1000000)},
		Ratios: map[string]ratioGate{
			"memory-flat": {
				Numerator:   "BenchmarkStreamingEvalLarge",
				Denominator: "BenchmarkStreamingEvalSmall",
				MaxBOp:      fptr(1.1),
				MaxAllocsOp: fptr(1.1),
			},
		},
	})
	var out strings.Builder
	if err := run([]string{"-baseline", path, "-fail"}, strings.NewReader(sampleBenchRatio), &out); err != nil {
		t.Fatalf("within-bound ratio failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ok ratio memory-flat: B/op 1.050x within max 1.10x") {
		t.Fatalf("missing B/op ratio line:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "ok ratio memory-flat: allocs/op 1.040x within max 1.10x") {
		t.Fatalf("missing allocs/op ratio line:\n%s", out.String())
	}
	// A benchmark referenced only by a ratio is tracked, not an extra.
	if strings.Contains(out.String(), "note BenchmarkStreamingEvalLarge") {
		t.Fatalf("ratio-only benchmark reported as untracked:\n%s", out.String())
	}
}

func TestRatioGateFlagsRegression(t *testing.T) {
	path := writeTempBaseline(t, baseline{
		Benchmarks: map[string]metric{"BenchmarkStreamingEvalSmall": nsOnly(1000000)},
		Ratios: map[string]ratioGate{
			"memory-flat": {
				Numerator:   "BenchmarkStreamingEvalLarge",
				Denominator: "BenchmarkStreamingEvalSmall",
				MaxBOp:      fptr(1.02), // measured 1.05x
			},
		},
	})
	var out strings.Builder
	err := run([]string{"-baseline", path, "-fail"}, strings.NewReader(sampleBenchRatio), &out)
	if err == nil || !strings.Contains(err.Error(), "1 benchmark regression") {
		t.Fatalf("-fail err = %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION ratio memory-flat: B/op 1.050x vs max 1.02x (105000 / 100000)") {
		t.Fatalf("no ratio regression line:\n%s", out.String())
	}
}

func TestRatioWarnsOnMissingInputs(t *testing.T) {
	// Neither side of the ratio is in the sample: warn, never fail.
	path := writeTempBaseline(t, baseline{
		Benchmarks: map[string]metric{"BenchmarkParallelModelQFT": nsOnly(178580)},
		Ratios: map[string]ratioGate{
			"memory-flat": {
				Numerator:   "BenchmarkStreamingEvalLarge",
				Denominator: "BenchmarkStreamingEvalSmall",
				MaxBOp:      fptr(1.1),
			},
		},
	})
	var out strings.Builder
	if err := run([]string{"-baseline", path, "-fail"}, strings.NewReader(sampleBench), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "WARN ratio memory-flat: needs BenchmarkStreamingEvalLarge and BenchmarkStreamingEvalSmall") {
		t.Fatalf("missing ratio warn:\n%s", out.String())
	}
}

func TestRatioWarnsOnMissingMetric(t *testing.T) {
	// Both benchmarks present but the run carried no memory columns: the
	// B/op ratio cannot be evaluated.
	path := writeTempBaseline(t, baseline{
		Benchmarks: map[string]metric{"BenchmarkParallelModelQFT": nsOnly(178580)},
		Ratios: map[string]ratioGate{
			"graph-vs-model": {
				Numerator:   "BenchmarkGateGraphConstruction",
				Denominator: "BenchmarkParallelModelQFT",
				MaxBOp:      fptr(1.1),
				MaxNsOp:     fptr(100),
			},
		},
	})
	var out strings.Builder
	if err := run([]string{"-baseline", path, "-fail"}, strings.NewReader(sampleBench), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "WARN ratio graph-vs-model: input lacks B/op") {
		t.Fatalf("missing metric warn:\n%s", out.String())
	}
	// The ns/op ratio (200000/55000 ≈ 3.6x, max 100x) still evaluates.
	if !strings.Contains(out.String(), "ok ratio graph-vs-model: ns/op 3.636x within max 100.00x") {
		t.Fatalf("ns/op ratio not evaluated:\n%s", out.String())
	}
}

func TestUpdatePreservesRatios(t *testing.T) {
	path := writeTempBaseline(t, baseline{
		Benchmarks: map[string]metric{"BenchmarkParallelModelQFT": nsOnly(178580)},
		Ratios: map[string]ratioGate{
			"memory-flat": {
				Numerator:   "BenchmarkStreamingEvalLarge",
				Denominator: "BenchmarkStreamingEvalSmall",
				MaxBOp:      fptr(1.1),
			},
		},
	})
	var out strings.Builder
	if err := run([]string{"-update", path}, strings.NewReader(sampleBench), &out); err != nil {
		t.Fatal(err)
	}
	got, err := readBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := got.Ratios["memory-flat"]
	if !ok || r.MaxBOp == nil || *r.MaxBOp != 1.1 {
		t.Fatalf("-update dropped the ratio section: %+v", got.Ratios)
	}
}

func TestReadBaselineRejectsMalformedRatio(t *testing.T) {
	for name, r := range map[string]ratioGate{
		"no-denominator": {Numerator: "BenchmarkA", MaxBOp: fptr(1.1)},
		"no-bound":       {Numerator: "BenchmarkA", Denominator: "BenchmarkB"},
	} {
		path := writeTempBaseline(t, baseline{
			Benchmarks: map[string]metric{"BenchmarkParallelModelQFT": nsOnly(1)},
			Ratios:     map[string]ratioGate{name: r},
		})
		if _, err := readBaseline(path); err == nil {
			t.Errorf("ratio %s accepted, want error", name)
		}
	}
}

func TestRunEmptyInput(t *testing.T) {
	var out strings.Builder
	if err := run(nil, strings.NewReader("no benchmarks here\n"), &out); err == nil {
		t.Fatal("want error on empty input")
	}
}

func TestCommittedBaselineMatchesRepoFile(t *testing.T) {
	// The committed repo baseline must parse, track the CI smoke
	// benchmarks, gate the grouped explorer's allocations, and state the
	// annealer's speed contracts as same-run ratios.
	b, err := readBaseline("../../BENCH_BASELINE.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"BenchmarkParallelModelQFT",
		"BenchmarkDesignSpaceExploration",
		"BenchmarkLegacyDesignSpaceExploration",
	} {
		if b.Benchmarks[name].NsOp <= 0 {
			t.Errorf("baseline missing %s", name)
		}
	}
	if m := b.Benchmarks["BenchmarkDesignSpaceExploration"]; m.AllocsOp == nil || *m.AllocsOp <= 0 {
		t.Errorf("grouped explorer benchmark must gate allocs/op, got %+v", m)
	}
	for _, name := range []string{"annealer-vs-full-eval", "annealer-qft32-vs-full-eval"} {
		if r, ok := b.Ratios[name]; !ok || r.MaxNsOp == nil {
			t.Errorf("baseline must gate the %s ratio's ns/op", name)
		}
	}
}
