// Command velociti-repro regenerates every table and figure of the
// VelociTI paper's evaluation: Tables II–III, the tool-runtime study
// (Figure 5), Case Study 1 (Figure 6), the chain-length sweep (Figure 7),
// the quantum-volume and 2:1-ratio scaling studies (Figures 8–9), and the
// extension-policy ablations.
//
//	velociti-repro                 # everything, paper settings (35 runs)
//	velociti-repro -only fig6,fig7 # a subset
//	velociti-repro -runs 10        # faster, noisier
//	velociti-repro -csv out/       # also write one CSV per experiment
//	velociti-repro -cpuprofile cpu.pprof -memprofile mem.pprof  # pprof files
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"velociti/internal/apps"
	"velociti/internal/cache"
	"velociti/internal/core"
	"velociti/internal/expt"
	"velociti/internal/perf"
	"velociti/internal/prof"
	"velociti/internal/shuttle"
)

// experiment names in execution order.
var order = []string{"table1", "table2", "table3", "fig5", "fig6", "fig7", "fig8", "fig9", "ext-fidelity", "ext-capacity", "ablations"}

func main() {
	start := time.Now()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "velociti-repro:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "velociti-repro: done in %s\n", time.Since(start).Round(time.Millisecond))
}

// statsDelta renders the change in one stage's cache counters since the
// previous experiment finished.
func statsDelta(cur, prev cache.Stats) string {
	return fmt.Sprintf("%d hit/%d miss/%d evict", cur.Hits-prev.Hits, cur.Misses-prev.Misses, cur.Evictions-prev.Evictions)
}

// run writes the tables to out and the per-experiment clock lines to errOut.
func run(ctx context.Context, args []string, out, errOut io.Writer) (err error) {
	fs := flag.NewFlagSet("velociti-repro", flag.ContinueOnError)
	var (
		profile    prof.Flags
		runs       = fs.Int("runs", core.DefaultRuns, "randomized trials per data point")
		seed       = fs.Int64("seed", 1, "master random seed")
		backendF   = fs.String("backend", "weaklink", "timing backend: weaklink (the paper's) or shuttle (explicit ion transport)")
		only       = fs.String("only", "", "comma-separated subset of: "+strings.Join(order, ","))
		csvDir     = fs.String("csv", "", "directory to write per-experiment CSV files into")
		workers    = fs.Int("workers", 1, "concurrent trials, across all data points of an experiment")
		svgDir     = fs.String("svg", "", "directory to write per-figure SVG charts into")
		mdPath     = fs.String("md", "", "write a Markdown reproduction report to this file")
		cacheStats = fs.Bool("cache-stats", false, "report per-stage artifact-cache counters per experiment on stderr")
	)
	profile.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Profiles go to their own files, so the tables on stdout are
	// byte-identical with or without them.
	if err := profile.Start(); err != nil {
		return err
	}
	defer func() {
		if perr := profile.Stop(); perr != nil && err == nil {
			err = perr
		}
	}()
	selected := map[string]bool{}
	if *only == "" {
		for _, name := range order {
			selected[name] = true
		}
	} else {
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			found := false
			for _, known := range order {
				if name == known {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("unknown experiment %q (want one of %s)", name, strings.Join(order, ", "))
			}
			selected[name] = true
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}
	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			return err
		}
	}
	// One shared artifact store across every selected experiment: cells that
	// agree on workload, device, policies, and trial seed reuse each other's
	// bindings, which carry their layouts and circuits. Content keying
	// guarantees the tables and figures are byte-identical with or without
	// it.
	pipeline := core.NewPipeline()
	backend, err := shuttle.ByName(*backendF, shuttle.Default())
	if err != nil {
		return err
	}
	opt := expt.Options{Runs: *runs, Seed: *seed, Workers: *workers, Pipeline: pipeline, Backend: backend}
	var md strings.Builder
	if *mdPath != "" {
		fmt.Fprintf(&md, "# VelociTI reproduction report\n\n%d randomized trials per data point, master seed %d.\n", *runs, *seed)
	}
	emit := func(body string) {
		fmt.Fprintln(out, body)
		if *mdPath != "" {
			fmt.Fprintf(&md, "\n```\n%s```\n", body)
		}
	}
	writeSVG := func(name string, render func() (string, error)) error {
		if *svgDir == "" {
			return nil
		}
		body, err := render()
		if err != nil {
			return err
		}
		path := filepath.Join(*svgDir, name+".svg")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "(svg written to %s)\n", path)
		return nil
	}
	writeCSV := func(name, data string) error {
		if *csvDir == "" {
			return nil
		}
		path := filepath.Join(*csvDir, name+".csv")
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "(csv written to %s)\n", path)
		return nil
	}
	// clock reports per-experiment wall-clock time on stderr so sweep cost
	// is visible without polluting the captured stdout tables; with
	// -cache-stats it also reports what the artifact store did for the
	// experiment (per-stage hit/miss/eviction deltas).
	lap := time.Now()
	var prev core.StageStats
	clock := func(name string) {
		if *cacheStats {
			cur := pipeline.Stats()
			fmt.Fprintf(errOut, "velociti-repro: %s in %s [bind %s | stream %s]\n",
				name, time.Since(lap).Round(time.Millisecond),
				statsDelta(cur.Bind, prev.Bind),
				statsDelta(cur.Stream, prev.Stream))
			prev = cur
		} else {
			fmt.Fprintf(errOut, "velociti-repro: %s in %s\n", name, time.Since(lap).Round(time.Millisecond))
		}
		lap = time.Now()
	}

	if selected["table1"] {
		t1, err := expt.TableIContext(ctx, opt, apps.PaperSpecs()[3], 16) // QFT, the paper's worked example
		if err != nil {
			return err
		}
		emit(t1)
		clock("table1")
	}
	if selected["table2"] {
		emit(expt.TableII())
		clock("table2")
	}
	if selected["table3"] {
		emit(expt.TableIII(perf.DefaultLatencies()))
		clock("table3")
	}
	if selected["fig5"] {
		res, err := expt.Fig5Context(ctx, opt)
		if err != nil {
			return err
		}
		emit(res.Table())
		if err := writeCSV("fig5", res.CSV()); err != nil {
			return err
		}
		if err := writeSVG("fig5", res.SVG); err != nil {
			return err
		}
		clock("fig5")
	}
	if selected["fig6"] {
		res, err := expt.Fig6Context(ctx, opt)
		if err != nil {
			return err
		}
		emit(res.Table())
		if err := writeCSV("fig6", res.CSV()); err != nil {
			return err
		}
		if err := writeSVG("fig6", res.SVG); err != nil {
			return err
		}
		clock("fig6")
	}
	if selected["fig7"] {
		res, err := expt.Fig7Context(ctx, opt)
		if err != nil {
			return err
		}
		emit(res.Table())
		if err := writeCSV("fig7", res.CSV()); err != nil {
			return err
		}
		if err := writeSVG("fig7", res.SVG); err != nil {
			return err
		}
		clock("fig7")
	}
	if selected["fig8"] {
		res, err := expt.Fig8Context(ctx, opt)
		if err != nil {
			return err
		}
		emit(res.Table())
		if err := writeCSV("fig8", res.CSV()); err != nil {
			return err
		}
		if err := writeSVG("fig8a", res.SVGChain); err != nil {
			return err
		}
		if err := writeSVG("fig8b", res.SVGAlpha); err != nil {
			return err
		}
		clock("fig8")
	}
	if selected["fig9"] {
		res, err := expt.Fig9Context(ctx, opt)
		if err != nil {
			return err
		}
		emit(res.Table())
		if err := writeCSV("fig9", res.CSV()); err != nil {
			return err
		}
		if err := writeSVG("fig9a", res.SVGChain); err != nil {
			return err
		}
		if err := writeSVG("fig9b", res.SVGAlpha); err != nil {
			return err
		}
		clock("fig9")
	}
	if selected["ext-fidelity"] {
		res, err := expt.ExtFidelityContext(ctx, opt)
		if err != nil {
			return err
		}
		emit(res.Table())
		if err := writeCSV("ext-fidelity", res.CSV()); err != nil {
			return err
		}
		clock("ext-fidelity")
	}
	if selected["ext-capacity"] {
		res, err := expt.ExtControlCapacityContext(ctx, opt)
		if err != nil {
			return err
		}
		emit(res.Table())
		if err := writeCSV("ext-capacity", res.CSV()); err != nil {
			return err
		}
		clock("ext-capacity")
	}
	if selected["ablations"] {
		comm, err := expt.AblationCommContext(ctx, opt)
		if err != nil {
			return err
		}
		emit(comm.Table())
		if err := writeCSV("ablation-comm", comm.CSV()); err != nil {
			return err
		}
		// A named slice, not a map: map iteration order would shuffle the
		// ablation tables between runs (velociti-vet's determinism pass
		// rejects ranging over a map literal for exactly this reason).
		for _, ab := range []struct {
			name string
			f    func(context.Context, expt.Options) (*expt.AblationResult, error)
		}{
			{"ablation-schedulers", expt.AblationSchedulersContext},
			{"ablation-placement", expt.AblationPlacementContext},
			{"ablation-annealed", expt.AblationAnnealedPlacementContext},
			{"ablation-topology", expt.AblationTopologyContext},
		} {
			res, err := ab.f(ctx, opt)
			if err != nil {
				return err
			}
			emit(res.Table())
			if err := writeCSV(ab.name, res.CSV()); err != nil {
				return err
			}
		}
		clock("ablations")
	}
	if *mdPath != "" {
		if err := os.WriteFile(*mdPath, []byte(md.String()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote markdown report to %s\n", *mdPath)
	}
	return nil
}
