package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestReproSubset(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-runs", "3", "-only", "table2,table3,fig6"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table II", "Table III", "Figure 6", "geomean"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(out, "Figure 7") {
		t.Errorf("unselected experiment ran")
	}
}

func TestReproCSVOutput(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-runs", "2", "-only", "fig7", "-csv", dir}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig7.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 7 { // header + 6 apps
		t.Fatalf("fig7.csv rows = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "app,parallel_us_L8") {
		t.Fatalf("header = %q", lines[0])
	}
}

func TestReproAblations(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-runs", "2", "-only", "ablations"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"scheduling policy", "placement policy", "topology"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation output missing %q", want)
		}
	}
}

// TestReproAblationOrderingIsStable pins the fix for the map-literal
// range that velociti-vet's determinism pass caught: the three named
// ablations must appear in declaration order on every run, not in map
// iteration order.
func TestReproAblationOrderingIsStable(t *testing.T) {
	var first string
	for i := 0; i < 3; i++ {
		var buf bytes.Buffer
		if err := run(context.Background(), []string{"-runs", "1", "-only", "ablations"}, &buf, io.Discard); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		iSched := strings.Index(out, "scheduling policy")
		iPlace := strings.Index(out, "placement policy")
		iTopo := strings.Index(out, "topology")
		if iSched < 0 || iPlace < 0 || iTopo < 0 {
			t.Fatalf("run %d: missing ablation tables:\n%s", i, out)
		}
		if !(iSched < iPlace && iPlace < iTopo) {
			t.Fatalf("run %d: ablations out of declaration order (schedulers@%d, placement@%d, topology@%d)",
				i, iSched, iPlace, iTopo)
		}
		if i == 0 {
			first = out
		} else if out != first {
			t.Fatalf("run %d: ablation output differs between identical invocations", i)
		}
	}
}

func TestReproUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-only", "fig42"}, &buf, io.Discard); err == nil {
		t.Fatalf("unknown experiment should error")
	}
}

func TestReproScalingStudies(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-runs", "2", "-only", "fig8,fig9"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "quantum volume") || !strings.Contains(out, "2:1 ratio") {
		t.Errorf("scaling studies missing:\n%s", out)
	}
}

func TestReproSVGOutput(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-runs", "2", "-only", "fig6,fig8", "-svg", dir}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig6.svg", "fig8a.svg", "fig8b.svg"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.HasPrefix(string(data), "<svg") {
			t.Fatalf("%s is not SVG", name)
		}
	}
}

func TestReproMarkdownReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.md")
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-runs", "2", "-only", "table2,fig6", "-md", path}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	report := string(data)
	for _, want := range []string{"# VelociTI reproduction report", "Table II", "Figure 6", "```"} {
		if !strings.Contains(report, want) {
			t.Errorf("markdown report missing %q", want)
		}
	}
}

func TestProfilingFlagsKeepStdoutByteIdentical(t *testing.T) {
	base := []string{"-only", "table2,ext-capacity", "-runs", "2"}
	var plain bytes.Buffer
	if err := run(context.Background(), base, &plain, io.Discard); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var profiled bytes.Buffer
	args := append([]string{"-cpuprofile", cpu, "-memprofile", mem}, base...)
	if err := run(context.Background(), args, &profiled, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), profiled.Bytes()) {
		t.Fatalf("stdout changed under profiling:\n--- plain ---\n%s--- profiled ---\n%s", plain.String(), profiled.String())
	}
	for _, path := range []string{cpu, mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
}
