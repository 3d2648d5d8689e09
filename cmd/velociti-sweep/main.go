// Command velociti-sweep runs design-space sweeps over the VelociTI model
// parameters and emits one CSV row per configuration — the batch-script
// workflow the paper's §V-A describes for "easy design space exploration
// and scalability experiments".
//
// The workload is either a Table II application (-app), a quantum-volume
// sweep (-qv), a fixed-ratio sweep (-ratio), or explicit counts
// (-qubits/-two-qubit-gates). Swept knobs take comma-separated values:
//
//	velociti-sweep -app QAOA -chain-lengths 8,16,24,32
//	velociti-sweep -qv -qubit-range 8:128:20 -alphas 2.0,1.6,1.2,1.0
//	velociti-sweep -ratio 2 -qubit-range 8:128:20 -chain-lengths 32,48,64
//	velociti-sweep -qubits 64 -two-qubit-gates 560 -placers random,load-balanced
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"velociti/internal/cache"
	"velociti/internal/core"
	"velociti/internal/prof"
	"velociti/internal/shuttle"
	"velociti/internal/ti"
	"velociti/internal/verr"
	"velociti/internal/workload"
)

func main() {
	start := time.Now()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if verr.IsInput(err) {
			fmt.Fprintln(os.Stderr, "velociti-sweep: invalid input:", err)
		} else {
			fmt.Fprintln(os.Stderr, "velociti-sweep:", err)
		}
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "velociti-sweep: done in %s\n", time.Since(start).Round(time.Millisecond))
}

func run(ctx context.Context, args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("velociti-sweep", flag.ContinueOnError)
	var (
		profile    prof.Flags
		app        = fs.String("app", "", "Table II application workload")
		qv         = fs.Bool("qv", false, "quantum-volume workload (N qubits, N/2 2-qubit gates)")
		ratio      = fs.Float64("ratio", 0, "fixed-ratio workload (N qubits, ratio*N 2-qubit gates)")
		qubits     = fs.Int("qubits", 0, "explicit workload qubits")
		oneQ       = fs.Int("one-qubit-gates", 0, "explicit workload 1-qubit gates")
		twoQ       = fs.Int("two-qubit-gates", 0, "explicit workload 2-qubit gates")
		qubitRange = fs.String("qubit-range", "", "qubit sweep as from:to:step (with -qv or -ratio)")
		chainLens  = fs.String("chain-lengths", "16", "comma-separated chain lengths")
		alphas     = fs.String("alphas", "2.0", "comma-separated weak-link penalties")
		placers    = fs.String("placers", "random", "comma-separated gate placers (random, weak-avoiding, load-balanced, edge-constrained, annealed)")
		topology   = fs.String("topology", "ring", "weak-link topology: ring, line, or tape")
		backendF   = fs.String("backend", "weaklink", "timing backend: weaklink or shuttle (explicit ion transport)")
		runs       = fs.Int("runs", core.DefaultRuns, "randomized trials per configuration")
		seed       = fs.Int64("seed", 1, "master random seed")
		workers    = fs.Int("workers", 1, "trials to run concurrently per configuration")
		cacheStats = fs.Bool("cache-stats", false, "report stage-cache counters and per-phase wall clock on stderr")
		streamF    = fs.Bool("stream", false, "memory-bounded streaming evaluation: identical CSV bytes with peak memory independent of the gate counts")
	)
	profile.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Profiles go to their own files, so the CSV on stdout is byte-identical
	// with or without them.
	if err := profile.Start(); err != nil {
		return err
	}
	defer func() {
		if perr := profile.Stop(); perr != nil && err == nil {
			err = perr
		}
	}()

	// Workload resolution and grid evaluation are shared with the sweep
	// service (internal/serve): both front ends lower onto
	// workload.Selector and core.RunGrid, which is what makes the
	// service's CLI-equivalence guarantee hold by construction.
	sel := workload.Selector{
		App: *app, QV: *qv, Ratio: *ratio,
		Qubits: *qubits, OneQubitGates: *oneQ, TwoQubitGates: *twoQ,
		QubitRange: *qubitRange,
	}
	specs, err := sel.Specs()
	if err != nil {
		return err
	}
	lengths, err := parseInts(*chainLens)
	if err != nil {
		return verr.Inputf("-chain-lengths: %w", err)
	}
	alphaVals, err := parseFloats(*alphas)
	if err != nil {
		return verr.Inputf("-alphas: %w", err)
	}
	topo, err := ti.ParseTopology(*topology)
	if err != nil {
		return err
	}
	backend, err := shuttle.ByName(*backendF, shuttle.Default())
	if err != nil {
		return err
	}

	// One artifact store across the whole grid: cells that differ only in α
	// (or any other Time-stage knob) share placement, synthesis, and binding
	// work. Content-keyed artifacts keep the CSV byte-identical either way.
	pipeline := core.NewPipeline()
	evalStart := time.Now()
	grid := core.Grid{
		Specs:        specs,
		ChainLengths: lengths,
		Alphas:       alphaVals,
		Placers:      splitList(*placers),
		Topology:     topo,
		Runs:         *runs,
		Seed:         *seed,
		Workers:      *workers,
		Pipeline:     pipeline,
		Backend:      backend,
		Stream:       *streamF,
	}
	res, err := core.RunGrid(ctx, grid)
	if err != nil {
		return err
	}

	renderStart := time.Now()
	res.EachSkip(func(c core.GridCell, err error) {
		fmt.Fprintf(os.Stderr, "velociti-sweep: skipping %s L=%d α=%g %s: %v\n",
			c.Spec.Name, c.ChainLength, c.Alpha, c.Placer, err)
	})
	if err := res.WriteCSV(out); err != nil {
		return err
	}
	if err := res.Err(); err != nil {
		return err
	}
	if *cacheStats {
		st := pipeline.Stats()
		fmt.Fprintf(os.Stderr, "velociti-sweep: %d cells evaluated in %s, rendered in %s\n",
			len(res.Cells)-res.Failed(), renderStart.Sub(evalStart).Round(time.Millisecond), time.Since(renderStart).Round(time.Millisecond))
		for _, stage := range []struct {
			name string
			s    cache.Stats
		}{{"bind", st.Bind}, {"stream", st.Stream}} {
			fmt.Fprintf(os.Stderr, "velociti-sweep: cache %-6s %d hit / %d miss / %d evict / %d resident\n",
				stage.name, stage.s.Hits, stage.s.Misses, stage.s.Evictions, stage.s.Entries)
		}
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range splitList(s) {
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
