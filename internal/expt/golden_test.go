package expt

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// TestExperimentGolden pins the rendered tables of the experiments whose
// trials are bound through core.Stages rather than core.Run — the
// communication ablation and the control-capacity extension — byte for
// byte, Table and CSV, at a small fixed run count. Regenerate with
//
//	go test ./internal/expt -run TestExperimentGolden -update
func TestExperimentGolden(t *testing.T) {
	opt := Options{Runs: 4, Seed: 5}
	comm, err := AblationComm(opt)
	if err != nil {
		t.Fatal(err)
	}
	capacity, err := ExtControlCapacity(opt)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{
		"ablation_comm.txt": comm.Table(),
		"ablation_comm.csv": comm.CSV(),
		"ext_capacity.txt":  capacity.Table(),
		"ext_capacity.csv":  capacity.CSV(),
	}
	for name, data := range got {
		path := filepath.Join("testdata", "golden", name)
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal([]byte(data), want) {
			t.Errorf("%s differs from %s:\ngot:\n%s\nwant:\n%s", name, path, data, want)
		}
	}
}
