package core_test

// Streaming-path equivalence tests: Config.Stream must reproduce the
// materialized pipeline bit for bit — same trials, same floats, same
// report — for every workload form (explicit circuit, Program, spec +
// streaming placer), both timing backends, and any worker count. The one
// sanctioned deviation is Result.CriticalPath, which streaming does not
// recover; tests clear it from the materialized side before comparing.

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"velociti/internal/apps"
	"velociti/internal/circuit"
	"velociti/internal/core"
	"velociti/internal/perf"
	"velociti/internal/schedule"
	"velociti/internal/shuttle"
	"velociti/internal/verr"
)

// stripReportPaths clears the sanctioned streaming deviation from a
// materialized report so DeepEqual checks everything else.
func stripReportPaths(rep *core.Report) *core.Report {
	for i := range rep.Trials {
		rep.Trials[i].Perf.CriticalPath = nil
	}
	return rep
}

// streamBackends returns the two shipped timing backends.
func streamBackends() map[string]perf.TimingBackend {
	return map[string]perf.TimingBackend{
		"weaklink": perf.WeakLink{},
		"shuttle":  shuttle.Backend{Params: shuttle.Default()},
	}
}

// streamConfigs enumerates the three workload forms over a QFT workload:
// explicit circuit, Program, and spec + streaming placer.
func streamConfigs(t *testing.T) map[string]core.Config {
	t.Helper()
	prog, err := apps.QFTProgram(24)
	if err != nil {
		t.Fatal(err)
	}
	circ, err := prog.Circuit()
	if err != nil {
		t.Fatal(err)
	}
	base := core.Config{ChainLength: 8, Runs: 4, Seed: 99}
	explicit, program, spec := base, base, base
	explicit.Circuit = circ
	program.Program = &prog
	spec.Spec = circuit.Spec{Name: "spec", Qubits: 24, OneQubitGates: 40, TwoQubitGates: 160}
	spec.Placer = schedule.WeakAvoiding{}
	return map[string]core.Config{"explicit": explicit, "program": program, "spec": spec}
}

func TestStreamRunMatchesMaterialized(t *testing.T) {
	for mode, cfg := range streamConfigs(t) {
		for beName, be := range streamBackends() {
			for _, workers := range []int{1, 4} {
				mat := cfg
				mat.Backend = be
				mat.Workers = workers
				want, err := core.Run(mat)
				if err != nil {
					t.Fatalf("%s/%s/w%d materialized: %v", mode, beName, workers, err)
				}
				str := mat
				str.Stream = true
				got, err := core.Run(str)
				if err != nil {
					t.Fatalf("%s/%s/w%d streaming: %v", mode, beName, workers, err)
				}
				if !reflect.DeepEqual(got, stripReportPaths(want)) {
					t.Fatalf("%s/%s/w%d: streaming report diverges\ngot  %+v\nwant %+v",
						mode, beName, workers, got, want)
				}
			}
		}
	}
}

func TestStreamSweepMatchesMaterialized(t *testing.T) {
	lats := make([]perf.Latencies, 3)
	for i, alpha := range []float64{1, 4, 9.5} {
		lats[i] = perf.DefaultLatencies()
		lats[i].WeakPenalty = alpha
	}
	for mode, cfg := range streamConfigs(t) {
		for beName, be := range streamBackends() {
			mat := cfg
			mat.Backend = be
			mat.Workers = 4
			want, err := core.RunSweep(mat, lats)
			if err != nil {
				t.Fatalf("%s/%s materialized: %v", mode, beName, err)
			}
			str := mat
			str.Stream = true
			got, err := core.RunSweep(str, lats)
			if err != nil {
				t.Fatalf("%s/%s streaming: %v", mode, beName, err)
			}
			for j := range want {
				if !reflect.DeepEqual(got[j], stripReportPaths(want[j])) {
					t.Fatalf("%s/%s lane %d: streaming sweep diverges", mode, beName, j)
				}
			}
		}
	}
}

// TestStreamGridMatchesMaterialized pins the sweep surface end to end:
// the CSV a streaming grid renders is byte-identical to the materialized
// one (the CSV never contained critical paths).
func TestStreamGridMatchesMaterialized(t *testing.T) {
	grid := core.Grid{
		Specs: []circuit.Spec{
			{Name: "a", Qubits: 20, OneQubitGates: 30, TwoQubitGates: 90},
			{Name: "b", Qubits: 33, OneQubitGates: 10, TwoQubitGates: 140},
		},
		ChainLengths: []int{8, 12},
		Alphas:       []float64{1, 7},
		Placers:      []string{"random", "weak-avoiding"},
		Runs:         3,
		Seed:         5,
		Workers:      2,
	}
	res, err := core.RunGrid(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	grid.Stream = true
	sres, err := core.RunGrid(context.Background(), grid)
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := res.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if err := sres.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if res.Failed() != 0 || sres.Failed() != 0 {
		t.Fatalf("failed cells: materialized %d, streaming %d", res.Failed(), sres.Failed())
	}
	if want.String() != got.String() {
		t.Fatalf("streaming grid CSV diverges\ngot:\n%s\nwant:\n%s", got.String(), want.String())
	}
}

// TestStreamPipelineCaches: a second identical streaming run over a
// shared Pipeline must hit the stream cache instead of recomputing. A
// Program has no content key, so its runs store nothing and report exactly
// what an unpiped run does.
func TestStreamPipelineCaches(t *testing.T) {
	for mode, cfg := range streamConfigs(t) {
		pl := core.NewPipeline()
		cfg.Stream = true
		unpiped, err := core.Run(cfg)
		if err != nil {
			t.Fatalf("%s unpiped run: %v", mode, err)
		}
		cfg.Pipeline = pl
		first, err := core.Run(cfg)
		if err != nil {
			t.Fatalf("%s first run: %v", mode, err)
		}
		second, err := core.Run(cfg)
		if err != nil {
			t.Fatalf("%s second run: %v", mode, err)
		}
		if !reflect.DeepEqual(first, second) || !reflect.DeepEqual(first, unpiped) {
			t.Fatalf("%s: piped streaming runs diverge from the unpiped one", mode)
		}
		st := pl.Stats().Stream
		if mode == "program" {
			if st.Hits != 0 || st.Entries != 0 {
				t.Fatalf("program: %d stream hits and %d entries, want none", st.Hits, st.Entries)
			}
			continue
		}
		if st.Hits < uint64(cfg.Runs) {
			t.Fatalf("%s: stream cache hits = %d, want >= %d", mode, st.Hits, cfg.Runs)
		}
		if st.Entries == 0 {
			t.Fatalf("%s: stream cache retained nothing", mode)
		}
	}
}

func TestStreamValidateRejects(t *testing.T) {
	prog, err := apps.QFTProgram(8)
	if err != nil {
		t.Fatal(err)
	}
	circ, err := prog.Circuit()
	if err != nil {
		t.Fatal(err)
	}
	base := core.Config{ChainLength: 8, Runs: 2, Seed: 1,
		Spec: circuit.Spec{Name: "s", Qubits: 8, OneQubitGates: 4, TwoQubitGates: 12}}

	cases := map[string]struct {
		mutate func(*core.Config)
		want   string
	}{
		"searching placer cannot stream": {
			mutate: func(c *core.Config) {
				c.Stream = true
				c.Placer = schedule.Annealed{}
			},
			want: "cannot stream",
		},
		"circuit and program conflict": {
			mutate: func(c *core.Config) {
				c.Circuit = circ
				c.Program = &prog
			},
			want: "both Circuit and Program",
		},
		"program without body": {
			mutate: func(c *core.Config) {
				c.Program = &circuit.Program{Name: "empty", Qubits: 4}
				c.Stream = true
			},
			want: "no body",
		},
	}
	for name, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		_, err := core.Run(cfg)
		if err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if !verr.IsInput(err) {
			t.Fatalf("%s: not an input-kind rejection: %v", name, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}

	cfg := base
	cfg.Stream = true
	if _, _, err := core.RunOnce(cfg, 7); err == nil || !verr.IsInput(err) {
		t.Fatalf("RunOnce with Stream: err = %v, want input-kind rejection", err)
	}
}

// TestProgramModeMaterializedRun: a Program without Stream runs through
// the classic pipeline by materializing once — equal to the explicit
// circuit config, critical paths included.
func TestProgramModeMaterializedRun(t *testing.T) {
	prog, err := apps.QFTProgram(16)
	if err != nil {
		t.Fatal(err)
	}
	circ, err := prog.Circuit()
	if err != nil {
		t.Fatal(err)
	}
	progCfg := core.Config{Program: &prog, ChainLength: 8, Runs: 3, Seed: 3}
	circCfg := core.Config{Circuit: circ, ChainLength: 8, Runs: 3, Seed: 3}
	got, err := core.Run(progCfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Run(circCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("program-mode materialized run diverges from explicit circuit")
	}
}
