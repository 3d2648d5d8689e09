package core_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"velociti/internal/core"
	"velociti/internal/perf"
	"velociti/internal/schedule"
	"velociti/internal/shuttle"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// TestShuttleSweepGolden pins RunSweep's reports under the shuttle
// backend byte for byte, critical paths included, for a random, a
// latency-steered and a searching placer, at the default transport costs
// and at non-integer ones. Regenerate with
//
//	go test ./internal/core -run TestShuttleSweepGolden -update
func TestShuttleSweepGolden(t *testing.T) {
	lats := []perf.Latencies{
		perf.DefaultLatencies(),
		{OneQubit: 1, TwoQubit: 100, WeakPenalty: 1},
		{OneQubit: 1.5, TwoQubit: 120.25, WeakPenalty: 1.5},
	}
	costSets := []struct {
		file   string
		params shuttle.Params
	}{
		{"sweep_shuttle_default.json", shuttle.Default()},
		{"sweep_shuttle_fractional.json", shuttle.Params{SplitMicros: 12.3, MergeMicros: 45.6, MovePerHopMicros: 7.7, RecoolMicros: 33.1}},
	}
	type placerReports struct {
		Placer  string         `json:"placer"`
		Reports []*core.Report `json:"reports"`
	}
	for _, cs := range costSets {
		var got []placerReports
		for _, name := range []string{"random", "load-balanced", "annealed"} {
			placer, err := schedule.ByName(name, lats[0])
			if err != nil {
				t.Fatal(err)
			}
			reps, err := core.RunSweep(core.Config{
				Spec:        backendSpec(),
				ChainLength: 8,
				Latencies:   lats[0],
				Placer:      placer,
				Runs:        3,
				Seed:        23,
				Backend:     shuttle.Backend{Params: cs.params},
			}, lats)
			if err != nil {
				t.Fatalf("%s %s: %v", cs.file, name, err)
			}
			got = append(got, placerReports{Placer: name, Reports: reps})
		}
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, '\n')
		path := filepath.Join("testdata", "golden", cs.file)
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want) {
			t.Errorf("%s differs from %s", cs.file, path)
		}
	}
}
