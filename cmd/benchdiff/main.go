// Command benchdiff compares `go test -bench` output against a committed
// baseline and flags regressions — the check CI's benchmark-smoke job runs
// so hot-path slowdowns surface in the pull request, not after. Three
// metrics are gated, each with its own tolerance: ns/op (timing, noisy),
// allocs/op (deterministic, tight tolerance), and B/op.
//
//	go test -run '^$' -bench . -benchtime 200x . | benchdiff
//	go test -run '^$' -bench . . | benchdiff -fail            # exit 1 on regression
//	go test -run '^$' -bench . -count 3 . | benchdiff -update BENCH_BASELINE.json
//
// Repeated counts of the same benchmark are averaged. Benchmark names are
// matched with the -N GOMAXPROCS suffix stripped, so baselines recorded on
// different core counts compare cleanly.
//
// Baseline entries come in two forms: a bare number is ns/op only (the
// legacy format), and an object tracks any of ns_op, allocs_op, and b_op:
//
//	"benchmarks": {
//	  "BenchmarkLegacy": 13465503,
//	  "BenchmarkGated":  {"ns_op": 4100000, "allocs_op": 1141, "b_op": 221568}
//	}
//
// A benchmark is gated exactly on the metrics its entry tracks; -update
// preserves each entry's tracked-metric shape and errors if the input
// lacks a tracked metric (allocs require ReportAllocs or -benchmem).
//
// A baseline can additionally gate RATIOS between two benchmarks from the
// same run — the scaling contract "metric X of A stays within factor R of
// B" that absolute thresholds cannot express (both sides drift together
// with hardware, the ratio does not):
//
//	"ratios": {
//	  "streaming-memory-flat": {
//	    "numerator": "BenchmarkStreamingEvalLarge",
//	    "denominator": "BenchmarkStreamingEvalSmall",
//	    "max_b_op": 1.1, "max_allocs_op": 1.1
//	  }
//	}
//
// Each ratio entry gates exactly the metrics it sets a max_* bound for;
// missing inputs WARN rather than fail, mirroring the benchmark gates.
// -update leaves the ratios section untouched (bounds are contracts, not
// measurements).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// baseline is the committed reference file format.
type baseline struct {
	Note       string               `json:"note,omitempty"`
	Benchmarks map[string]metric    `json:"benchmarks"`
	Ratios     map[string]ratioGate `json:"ratios,omitempty"`
}

// ratioGate bounds the ratio numerator/denominator of two benchmarks in
// the same run, per metric. A nil bound means that metric's ratio is not
// gated; each entry must set at least one.
type ratioGate struct {
	Numerator   string   `json:"numerator"`
	Denominator string   `json:"denominator"`
	MaxNsOp     *float64 `json:"max_ns_op,omitempty"`
	MaxAllocsOp *float64 `json:"max_allocs_op,omitempty"`
	MaxBOp      *float64 `json:"max_b_op,omitempty"`
}

// metric is one benchmark's tracked values. NsOp is always tracked;
// AllocsOp and BOp are optional — nil means "not gated", which is distinct
// from an explicit zero.
type metric struct {
	NsOp     float64
	AllocsOp *float64
	BOp      *float64
}

// MarshalJSON writes the legacy bare number when only ns/op is tracked
// and the object form otherwise.
func (m metric) MarshalJSON() ([]byte, error) {
	if m.AllocsOp == nil && m.BOp == nil {
		return json.Marshal(m.NsOp)
	}
	obj := map[string]float64{"ns_op": m.NsOp}
	if m.AllocsOp != nil {
		obj["allocs_op"] = *m.AllocsOp
	}
	if m.BOp != nil {
		obj["b_op"] = *m.BOp
	}
	return json.Marshal(obj)
}

// UnmarshalJSON accepts both entry forms.
func (m *metric) UnmarshalJSON(data []byte) error {
	if t := bytes.TrimSpace(data); len(t) > 0 && t[0] == '{' {
		var obj struct {
			NsOp     *float64 `json:"ns_op"`
			AllocsOp *float64 `json:"allocs_op"`
			BOp      *float64 `json:"b_op"`
		}
		if err := json.Unmarshal(data, &obj); err != nil {
			return err
		}
		if obj.NsOp == nil {
			return fmt.Errorf("benchmark entry missing ns_op")
		}
		m.NsOp, m.AllocsOp, m.BOp = *obj.NsOp, obj.AllocsOp, obj.BOp
		return nil
	}
	m.AllocsOp, m.BOp = nil, nil
	return json.Unmarshal(data, &m.NsOp)
}

// benchLine matches one result row of `go test -bench` output, e.g.
// "BenchmarkX-8   200   199960 ns/op   221568 B/op   1141 allocs/op"
// (the memory columns appear under ReportAllocs or -benchmem, after the
// MB/s column of a benchmark that calls SetBytes).
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+[0-9.]+ MB/s)?(?:\s+([0-9.]+) B/op)?(?:\s+([0-9.]+) allocs/op)?`)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

// thresholds bundles the per-metric tolerances.
type thresholds struct {
	ns, allocs, bytes float64
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	var (
		basePath = fs.String("baseline", "BENCH_BASELINE.json", "baseline JSON file")
		thr      thresholds
		fail     = fs.Bool("fail", false, "exit non-zero when a regression is found")
		update   = fs.String("update", "", "write measured values back to this baseline file instead of comparing")
	)
	fs.Float64Var(&thr.ns, "threshold", 0.30, "relative ns/op increase that counts as a regression")
	fs.Float64Var(&thr.allocs, "alloc-threshold", 0.05, "relative allocs/op increase that counts as a regression")
	fs.Float64Var(&thr.bytes, "bytes-threshold", 0.15, "relative B/op increase that counts as a regression")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	got, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(got) == 0 {
		return fmt.Errorf("no benchmark results in input")
	}
	if *update != "" {
		return writeBaseline(*update, got)
	}
	base, err := readBaseline(*basePath)
	if err != nil {
		return err
	}
	regressions := report(out, base, got, thr)
	if regressions > 0 && *fail {
		return fmt.Errorf("%d benchmark regression(s) beyond threshold", regressions)
	}
	return nil
}

// parseBench extracts the per-benchmark metrics, averaging repeated counts
// and stripping the -N GOMAXPROCS suffix from names. AllocsOp/BOp are set
// only when at least one row reported them.
func parseBench(in io.Reader) (map[string]metric, error) {
	type acc struct {
		ns, bytes, allocs float64
		n, nb, na         int
	}
	accs := map[string]*acc{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		a := accs[m[1]]
		if a == nil {
			a = &acc{}
			accs[m[1]] = a
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %w", sc.Text(), err)
		}
		a.ns += ns
		a.n++
		if m[3] != "" {
			v, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				return nil, fmt.Errorf("bad B/op in %q: %w", sc.Text(), err)
			}
			a.bytes += v
			a.nb++
		}
		if m[4] != "" {
			v, err := strconv.ParseFloat(m[4], 64)
			if err != nil {
				return nil, fmt.Errorf("bad allocs/op in %q: %w", sc.Text(), err)
			}
			a.allocs += v
			a.na++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]metric, len(accs))
	for name, a := range accs {
		m := metric{NsOp: a.ns / float64(a.n)}
		if a.na > 0 {
			v := a.allocs / float64(a.na)
			m.AllocsOp = &v
		}
		if a.nb > 0 {
			v := a.bytes / float64(a.nb)
			m.BOp = &v
		}
		out[name] = m
	}
	return out, nil
}

func readBaseline(path string) (*baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(b.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks recorded", path)
	}
	for name, r := range b.Ratios {
		if r.Numerator == "" || r.Denominator == "" {
			return nil, fmt.Errorf("%s: ratio %s needs both numerator and denominator", path, name)
		}
		if r.MaxNsOp == nil && r.MaxAllocsOp == nil && r.MaxBOp == nil {
			return nil, fmt.Errorf("%s: ratio %s gates no metric (set max_ns_op, max_allocs_op, or max_b_op)", path, name)
		}
	}
	return &b, nil
}

// writeBaseline records the measured averages. When the file already
// exists, the note, the tracked benchmark set, AND each entry's tracked
// metric shape are preserved; dropping a tracked metric is an error, so a
// run without allocation reporting cannot silently shed the allocs gate.
func writeBaseline(path string, got map[string]metric) error {
	b := baseline{Benchmarks: got}
	if old, err := readBaseline(path); err == nil {
		b.Note = old.Note
		// Ratio bounds are contracts, not measurements: always preserved.
		b.Ratios = old.Ratios
		b.Benchmarks = map[string]metric{}
		for name, ref := range old.Benchmarks {
			m, ok := got[name]
			if !ok {
				continue
			}
			if ref.AllocsOp != nil && m.AllocsOp == nil {
				return fmt.Errorf("%s tracks allocs/op for %s but the input has none (run with ReportAllocs or -benchmem)", path, name)
			}
			if ref.BOp != nil && m.BOp == nil {
				return fmt.Errorf("%s tracks B/op for %s but the input has none (run with ReportAllocs or -benchmem)", path, name)
			}
			if ref.AllocsOp == nil {
				m.AllocsOp = nil
			}
			if ref.BOp == nil {
				m.BOp = nil
			}
			b.Benchmarks[name] = m
		}
		if len(b.Benchmarks) == 0 {
			return fmt.Errorf("input contains none of the benchmarks tracked by %s", path)
		}
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// report prints one line per tracked (benchmark, metric) pair and returns
// how many regressed beyond their metric's threshold.
func report(out io.Writer, base *baseline, got map[string]metric, thr thresholds) int {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	regressions := 0
	for _, name := range names {
		ref := base.Benchmarks[name]
		cur, ok := got[name]
		if !ok {
			fmt.Fprintf(out, "WARN %s: tracked in baseline but missing from input\n", name)
			continue
		}
		if ref.NsOp <= 0 {
			fmt.Fprintf(out, "WARN %s: non-positive baseline %g ns/op\n", name, ref.NsOp)
		} else {
			regressions += compareMetric(out, name, "ns/op", cur.NsOp, ref.NsOp, thr.ns)
		}
		if ref.AllocsOp != nil {
			if cur.AllocsOp == nil {
				fmt.Fprintf(out, "WARN %s: baseline tracks allocs/op but input has none (run with ReportAllocs or -benchmem)\n", name)
			} else {
				regressions += compareMetric(out, name, "allocs/op", *cur.AllocsOp, *ref.AllocsOp, thr.allocs)
			}
		}
		if ref.BOp != nil {
			if cur.BOp == nil {
				fmt.Fprintf(out, "WARN %s: baseline tracks B/op but input has none (run with ReportAllocs or -benchmem)\n", name)
			} else {
				regressions += compareMetric(out, name, "B/op", *cur.BOp, *ref.BOp, thr.bytes)
			}
		}
	}
	rnames := make([]string, 0, len(base.Ratios))
	for name := range base.Ratios {
		rnames = append(rnames, name)
	}
	sort.Strings(rnames)
	for _, name := range rnames {
		r := base.Ratios[name]
		num, okN := got[r.Numerator]
		den, okD := got[r.Denominator]
		if !okN || !okD {
			fmt.Fprintf(out, "WARN ratio %s: needs %s and %s in the input\n", name, r.Numerator, r.Denominator)
			continue
		}
		regressions += compareRatio(out, name, "ns/op", &num.NsOp, &den.NsOp, r.MaxNsOp)
		regressions += compareRatio(out, name, "allocs/op", num.AllocsOp, den.AllocsOp, r.MaxAllocsOp)
		regressions += compareRatio(out, name, "B/op", num.BOp, den.BOp, r.MaxBOp)
	}
	var extras []string
	for name := range got {
		if !tracked(base, name) {
			extras = append(extras, name)
		}
	}
	sort.Strings(extras)
	for _, name := range extras {
		fmt.Fprintf(out, "note %s: %.0f ns/op (not tracked in baseline)\n", name, got[name].NsOp)
	}
	return regressions
}

// tracked reports whether a benchmark participates in any gate — its own
// entry or either side of a ratio.
func tracked(base *baseline, name string) bool {
	if _, ok := base.Benchmarks[name]; ok {
		return true
	}
	for _, r := range base.Ratios {
		if r.Numerator == name || r.Denominator == name {
			return true
		}
	}
	return false
}

// compareRatio prints one ratio-gate line and returns 1 on regression. A
// nil max means the metric's ratio is not gated; a missing metric or a
// non-positive denominator WARNs (the gate cannot be evaluated) rather
// than fails, mirroring the benchmark gates.
func compareRatio(out io.Writer, name, unit string, num, den, max *float64) int {
	if max == nil {
		return 0
	}
	if num == nil || den == nil {
		fmt.Fprintf(out, "WARN ratio %s: input lacks %s (run with ReportAllocs or -benchmem)\n", name, unit)
		return 0
	}
	if *den <= 0 {
		fmt.Fprintf(out, "WARN ratio %s: non-positive denominator %g %s\n", name, *den, unit)
		return 0
	}
	ratio := *num / *den
	if ratio > *max {
		fmt.Fprintf(out, "REGRESSION ratio %s: %s %.3fx vs max %.2fx (%.0f / %.0f)\n",
			name, unit, ratio, *max, *num, *den)
		return 1
	}
	fmt.Fprintf(out, "ok ratio %s: %s %.3fx within max %.2fx\n", name, unit, ratio, *max)
	return 0
}

// compareMetric prints one comparison line and returns 1 on regression.
func compareMetric(out io.Writer, name, unit string, cur, ref, threshold float64) int {
	switch {
	case cur > ref*(1+threshold):
		fmt.Fprintf(out, "REGRESSION %s: %.0f %s vs baseline %.0f (%.2fx slower, threshold %.0f%%)\n",
			name, cur, unit, ref, cur/ref, threshold*100)
		return 1
	case cur < ref:
		fmt.Fprintf(out, "ok %s: %.0f %s vs baseline %.0f (%.2fx faster)\n", name, cur, unit, ref, ref/cur)
	case cur == 0: // ref is 0 too: cur > 0 would have regressed above
		fmt.Fprintf(out, "ok %s: 0 %s vs baseline 0\n", name, unit)
	default:
		fmt.Fprintf(out, "ok %s: %.0f %s vs baseline %.0f (+%.1f%%)\n", name, cur, unit, ref, (cur/ref-1)*100)
	}
	return 0
}
