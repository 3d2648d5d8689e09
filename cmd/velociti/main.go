// Command velociti runs one VelociTI simulation: a workload (abstract
// boundary conditions, a Table II application, a JSON circuit, or an
// OpenQASM file) placed-and-routed onto a trapped-ion machine, evaluated
// under the serial and parallel performance models across randomized
// trials.
//
// The flag set mirrors the paper's Table I parameters:
//
//	velociti -qubits 64 -two-qubit-gates 560 -chain-length 16
//	velociti -app QFT -chain-length 32 -alpha 1.4 -runs 35
//	velociti -qasm circuit.qasm -chain-length 16 -verbose
//	velociti -config params.json -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"velociti/internal/apps"
	"velociti/internal/circuit"
	"velociti/internal/config"
	"velociti/internal/core"
	"velociti/internal/fidelity"
	"velociti/internal/perf"
	"velociti/internal/qasm"
	"velociti/internal/shuttle"
	"velociti/internal/stats"
	"velociti/internal/verr"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		// Input-kind failures get an explicit marker so scripts (and
		// humans) can tell a bad invocation from a framework bug.
		if verr.IsInput(err) {
			fmt.Fprintln(os.Stderr, "velociti: invalid input:", err)
		} else {
			fmt.Fprintln(os.Stderr, "velociti:", err)
		}
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("velociti", flag.ContinueOnError)
	var (
		qubits     = fs.Int("qubits", 0, "number of qubits in the workload")
		oneQ       = fs.Int("one-qubit-gates", 0, "number of 1-qubit gates (q)")
		twoQ       = fs.Int("two-qubit-gates", 0, "number of 2-qubit gates (p)")
		app        = fs.String("app", "", "Table II application (Supremacy, QAOA, SquareRoot, QFT, Adder, BV)")
		appGates   = fs.Bool("app-gates", false, "with -app: simulate the gate-level generator instead of the abstract spec")
		circJSON   = fs.String("circuit", "", "path to a JSON circuit file (explicit mode)")
		qasmPath   = fs.String("qasm", "", "path to an OpenQASM 2.0 file (explicit mode)")
		cfgPath    = fs.String("config", "", "path to a JSON params file (other workload flags override it)")
		saveConfig = fs.String("save-config", "", "write the effective configuration to this JSON file and continue")
		chainLen   = fs.Int("chain-length", 16, "ions per chain (paper range: 8-32)")
		topology   = fs.String("topology", "ring", "weak-link topology: ring or line")
		delta      = fs.Float64("delta", 1, "1-qubit gate latency in microseconds")
		gamma      = fs.Float64("gamma", 100, "2-qubit gate latency in microseconds")
		alpha      = fs.Float64("alpha", 2, "weak-link penalty factor (>= 1)")
		placementF = fs.String("placement", "random", "qubit placement: random, round-robin, or sequential")
		placer     = fs.String("placer", "random", "gate placement: random, weak-avoiding, load-balanced, edge-constrained, or annealed")
		runs       = fs.Int("runs", core.DefaultRuns, "randomized trials to average over")
		seed       = fs.Int64("seed", 1, "master random seed")
		jsonOut    = fs.Bool("json", false, "emit the full report as JSON")
		verbose    = fs.Bool("verbose", false, "print the critical path and chain layout of one trial")
		dotPath    = fs.String("dot", "", "write one trial's gate dependency graph as Graphviz DOT to this file")
		gantt      = fs.Bool("gantt", false, "print one trial's schedule as an ASCII Gantt chart")
		timelineJS = fs.String("timeline-json", "", "write one trial's full schedule as JSON to this file")
		fidelityF  = fs.Bool("fidelity", false, "print one trial's success-probability estimate")
		shuttleF   = fs.Bool("shuttle", false, "compare weak-link vs ion-shuttling communication on one trial")
		backendF   = fs.String("backend", "", "timing backend: weaklink (default) or shuttle (explicit ion transport)")
		workers    = fs.Int("workers", 1, "trials to run concurrently")
		streamF    = fs.Bool("stream", false, "memory-bounded streaming evaluation: generate, place, and price gates in one pass without materializing the circuit (report omits critical paths)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	params := config.Default()
	if *cfgPath != "" {
		loaded, err := config.LoadParams(*cfgPath)
		if err != nil {
			return err
		}
		params = loaded
	}
	// Flags override the config file.
	params.ChainLength = *chainLen
	params.Topology = *topology
	params.Latencies = perf.Latencies{OneQubit: *delta, TwoQubit: *gamma, WeakPenalty: *alpha}
	params.Placement = *placementF
	params.Placer = *placer
	params.Runs = *runs
	params.Seed = *seed
	// Unlike the flags above, -backend only overrides the config file when
	// given: its empty default would otherwise stomp a configured backend.
	if *backendF != "" {
		params.Backend = *backendF
	}

	// A workload comes from exactly one source. Silently ignoring a
	// conflicting flag (e.g. -app QFT -qubits 32 dropping -qubits) would
	// report results for a different workload than the one asked for.
	var sources []string
	if *app != "" {
		sources = append(sources, "-app")
	}
	if *circJSON != "" {
		sources = append(sources, "-circuit")
	}
	if *qasmPath != "" {
		sources = append(sources, "-qasm")
	}
	if *qubits > 0 {
		sources = append(sources, "-qubits")
	}
	if len(sources) > 1 {
		return verr.Inputf("conflicting workload flags %s: pass exactly one workload source", strings.Join(sources, " and "))
	}
	if *qubits <= 0 && (*oneQ != 0 || *twoQ != 0) {
		return verr.Inputf("-one-qubit-gates/-two-qubit-gates need -qubits to define the abstract workload")
	}
	if *streamF && (*verbose || *dotPath != "" || *gantt || *timelineJS != "" || *fidelityF || *shuttleF) {
		// The per-trial inspection extras all reconstruct materialized
		// artifacts (critical paths, gate graphs, timelines) — exactly what
		// streaming avoids holding.
		return verr.Inputf("-stream cannot produce per-trial inspection output; drop -verbose/-dot/-gantt/-timeline-json/-fidelity/-shuttle or drop -stream")
	}
	if params.Backend == (shuttle.Backend{}).Name() && (*dotPath != "" || *gantt || *timelineJS != "") {
		// The schedule and graph views draw the weak-link model; under
		// transport they would contradict the report they accompany.
		return verr.Inputf("-dot/-gantt/-timeline-json draw the weak-link schedule; drop them or drop -backend shuttle")
	}
	params.Stream = *streamF

	var explicit *circuit.Circuit
	var prog *circuit.Program
	switch {
	case *app != "":
		a, err := apps.ByName(*app)
		if err != nil {
			return err
		}
		if *appGates && *streamF {
			// Streaming keeps the generator as a Program: gates are
			// re-emitted per trial, never stored.
			p, err := a.Program()
			if err != nil {
				return err
			}
			prog = &p
		} else if *appGates {
			explicit, err = a.Build()
			if err != nil {
				return err
			}
		} else {
			params.Workload = a.Spec
		}
	case *circJSON != "":
		c, err := config.LoadCircuit(*circJSON)
		if err != nil {
			return err
		}
		explicit = c
	case *qasmPath != "":
		res, err := qasm.ParseFile(*qasmPath)
		if err != nil {
			return err
		}
		explicit = res.Circuit
	case *qubits > 0:
		params.Workload = circuit.Spec{
			Name:          "cli",
			Qubits:        *qubits,
			OneQubitGates: *oneQ,
			TwoQubitGates: *twoQ,
		}
	case *cfgPath != "":
		// Workload comes from the config file.
	default:
		return verr.Inputf("no workload: pass -qubits/-two-qubit-gates, -app, -circuit, -qasm, or -config (see -h)")
	}

	if *saveConfig != "" {
		if err := params.Save(*saveConfig); err != nil {
			return err
		}
	}

	var cfg core.Config
	var err error
	if prog != nil {
		cfg, err = params.ToCoreConfigWithProgram(prog)
	} else {
		cfg, err = params.ToCoreConfigWithCircuit(explicit)
	}
	if err != nil {
		return err
	}
	cfg.Workers = *workers
	report, err := core.Run(cfg)
	if err != nil {
		return err
	}

	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}
	printReport(out, report)

	if *verbose || *dotPath != "" || *gantt || *fidelityF || *shuttleF || *timelineJS != "" {
		b, res, err := core.RunOnce(cfg, stats.SplitSeed(cfg.Seed, 0))
		if err != nil {
			return err
		}
		c, layout := b.Evaluator().Circuit(), b.Layout()
		if *verbose {
			fmt.Fprintf(out, "\n--- trial 0 detail ---\n")
			fmt.Fprint(out, layout.String())
			fmt.Fprintf(out, "critical path (%d gates):", len(res.CriticalPath))
			for _, label := range res.CriticalPath {
				fmt.Fprintf(out, " %s", label)
			}
			fmt.Fprintln(out)
		}
		if *gantt || *timelineJS != "" {
			tl, err := perf.BuildTimeline(c, layout, cfg.Latencies)
			if err != nil {
				return err
			}
			if *gantt {
				fmt.Fprint(out, tl.Gantt(100))
			}
			if *timelineJS != "" {
				data, err := json.MarshalIndent(tl, "", "  ")
				if err != nil {
					return err
				}
				if err := os.WriteFile(*timelineJS, data, 0o644); err != nil {
					return err
				}
				fmt.Fprintf(out, "wrote timeline to %s\n", *timelineJS)
			}
		}
		if *fidelityF {
			est, err := fidelity.Default().EstimateBinding(b, cfg.Latencies)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, est)
		}
		if *shuttleF {
			sp := params.ShuttleParams()
			cmp, err := shuttle.Compare(c, layout, cfg.Latencies, sp)
			if err != nil {
				return err
			}
			breakEven, err := sp.BreakEvenAlpha(cfg.Latencies)
			if err != nil {
				return err
			}
			winner := "weak link"
			if !cmp.WeakLinkWins() {
				winner = "shuttling"
			}
			fmt.Fprintf(out, "weak-link parallel %.1f µs vs shuttling %.1f µs over %d cross-chain gates → %s wins (break-even α = %.2f)\n",
				cmp.WeakLinkMicros, cmp.ShuttleMicros, cmp.CrossGates, winner,
				breakEven)
		}
		if *dotPath != "" {
			dot := perf.GateGraphDOT(report.Spec.Name, c, layout, cfg.Latencies)
			if err := os.WriteFile(*dotPath, []byte(dot), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote dependency graph to %s\n", *dotPath)
		}
	}
	return nil
}

func printReport(out io.Writer, r *core.Report) {
	fmt.Fprintf(out, "workload: %s\n", r.Spec)
	fmt.Fprintf(out, "machine:  %d chains of %d ions (%s, %d weak links)\n",
		r.Device.NumChains, r.Device.ChainLength, r.Device.Topology, r.Device.MaxWeakLinks)
	fmt.Fprintf(out, "trials:   %d\n", len(r.Trials))
	fmt.Fprintf(out, "serial:   %.3f ms  (min %.3f, max %.3f)\n",
		r.Serial.Mean/1000, r.Serial.Min/1000, r.Serial.Max/1000)
	fmt.Fprintf(out, "parallel: %.3f ms  (min %.3f, max %.3f)\n",
		r.Parallel.Mean/1000, r.Parallel.Min/1000, r.Parallel.Max/1000)
	fmt.Fprintf(out, "speedup:  %.2fx\n", r.MeanSpeedup())
	fmt.Fprintf(out, "weak-link gates: %.1f mean (links used: %.1f of %d)\n",
		r.WeakGates.Mean, r.LinksUsed.Mean, r.Device.MaxWeakLinks)
}
