// Command perfbench is velociti's benchmark: one command per workload that
// measures the end-to-end metrics a user of the tool waits on, checks every
// op's output, and — in a separate traced run — charges the op's host time
// to the layers it passes through.
//
// Usage (from the repository root, after building with perfbench/run.sh):
//
//	perfbench --workload sweep-cold --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones (set-up time, throughput, op latency percentiles,
// peak RSS); with --trace 1 they are the per-layer ledger, and the spans
// are written in the Chrome trace format to --trace-out. See README.md for
// why each workload exists and how the metrics relate.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// workload is one benchmark traffic mix. Its ops have one shape, so their
// latencies are samples of one distribution.
type workload interface {
	// setup builds the workload's inputs from seed and runs its fixed
	// warm-up. Every call starts from fresh state, so set-up can be timed
	// several times in one run.
	setup(seed int64) error
	// passLen is the number of ops in one pass over the workload's mix; a
	// run always measures whole passes.
	passLen() int
	// op runs measured op i. It is the only code on the clock.
	op(i int) (any, error)
	// check validates op i's output off the clock and returns the
	// canonical bytes of its simulated results, which feed the digest.
	check(i int, out any) ([]byte, error)
	// replay re-runs op i through the layers' public functions, recording
	// a span around each call, and returns an output that must equal op
	// i's byte for byte.
	replay(i int, tr *tracer) (any, error)
	// ledger adds the workload's counters that no span carries (cache and
	// server statistics, differenced stream costs) once a traced run ends.
	ledger(l *ledger) error
	// close releases the state of the last setup.
	close()
}

// size selects how big a workload's ops are: fullSize is the benchmark,
// tinySize keeps the package's tests fast.
type size int

const (
	fullSize size = iota
	tinySize
)

// newWorkload returns the named workload at the given size.
func newWorkload(name string, sz size) (workload, error) {
	switch name {
	case "sweep-cold":
		return newSweepCold(sz), nil
	case "serve-warm":
		return newServeWarm(sz), nil
	case "stream-1m":
		return newStream1M(sz), nil
	case "qasm-import":
		return newQASMImport(sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want sweep-cold, serve-warm, stream-1m or qasm-import)", name)
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	size     size
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// minOps is the least number of measured ops a run holds, so that
	// op_ms_p90 has at least ten samples beyond it.
	minOps int
}

func main() {
	start := time.Now()
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	if err := run(cfg, start, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{setups: 3, minOps: minOpsForP90}
	fs.StringVar(&cfg.workload, "workload", "", "sweep-cold, serve-warm, stream-1m or qasm-import")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; every op derives its own seed from it")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "how long the measured window lasts (extended to whole passes and the minimum op count)")
	trace := fs.Int("trace", 0, "1 runs the traced replay and prints the per-layer ledger")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "Chrome trace file for --trace 1 (default .bench_build/perfbench-<workload>.trace.json)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("--seconds must be positive, got %g", cfg.seconds)
	}
	switch *trace {
	case 0:
	case 1:
		cfg.trace = true
	default:
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if cfg.traceOut == "" {
		cfg.traceOut = fmt.Sprintf(".bench_build/perfbench-%s.trace.json", cfg.workload)
	}
	return cfg, nil
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one benchmark invocation and prints its report to stdout;
// progress and diagnostics go to stderr.
func run(cfg config, start time.Time, stdout, stderr io.Writer) error {
	w, err := newWorkload(cfg.workload, cfg.size)
	if err != nil {
		return err
	}
	defer w.close()
	env := readEnv()
	fmt.Fprintln(stdout, env.String())
	var res result
	if cfg.trace {
		res, err = tracedRun(cfg, w, stdout, stderr)
	} else {
		res, err = measuredRun(cfg, w, start, stdout, stderr)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// errCheck marks an op whose output failed its check.
var errCheck = errors.New("output check failed")
