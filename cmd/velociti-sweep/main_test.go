package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func sweep(t *testing.T, args ...string) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(context.Background(), args, &buf); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("no data rows:\n%s", buf.String())
	}
	return lines
}

func TestAppSweepShape(t *testing.T) {
	lines := sweep(t, "-app", "BV", "-chain-lengths", "8,16,32", "-alphas", "2.0,1.0", "-runs", "3")
	if len(lines) != 1+3*2 {
		t.Fatalf("rows = %d, want 6 + header", len(lines)-1)
	}
	header := strings.Split(lines[0], ",")
	if header[0] != "workload" || header[len(header)-1] != "weak_gates" {
		t.Fatalf("header = %v", header)
	}
	for _, line := range lines[1:] {
		cells := strings.Split(line, ",")
		if len(cells) != len(header) {
			t.Fatalf("row width mismatch: %v", line)
		}
		if cells[0] != "BV" {
			t.Fatalf("workload column = %q", cells[0])
		}
	}
}

func TestQVSweepRange(t *testing.T) {
	lines := sweep(t, "-qv", "-qubit-range", "8:48:20", "-runs", "2")
	// N = 8, 28, 48.
	if len(lines) != 4 {
		t.Fatalf("rows = %d", len(lines)-1)
	}
	if !strings.HasPrefix(lines[1], "qv8,8,4,") {
		t.Fatalf("first row = %q", lines[1])
	}
}

func TestRatioSweep(t *testing.T) {
	lines := sweep(t, "-ratio", "2", "-qubit-range", "8:28:20", "-runs", "2")
	for _, line := range lines[1:] {
		cells := strings.Split(line, ",")
		n, _ := strconv.Atoi(cells[1])
		p, _ := strconv.Atoi(cells[2])
		if p != 2*n {
			t.Fatalf("ratio broken: %v", line)
		}
	}
}

func TestExplicitSweepWithPlacers(t *testing.T) {
	lines := sweep(t, "-qubits", "32", "-two-qubit-gates", "100",
		"-placers", "random,load-balanced", "-runs", "3")
	if len(lines) != 3 {
		t.Fatalf("rows = %d", len(lines)-1)
	}
	var randPar, lbPar float64
	for _, line := range lines[1:] {
		cells := strings.Split(line, ",")
		v, _ := strconv.ParseFloat(cells[9], 64)
		switch cells[7] {
		case "random":
			randPar = v
		case "load-balanced":
			lbPar = v
		}
	}
	if lbPar <= 0 || randPar <= 0 || lbPar >= randPar {
		t.Fatalf("load-balanced %v should beat random %v", lbPar, randPar)
	}
}

func TestAlphaColumnMonotone(t *testing.T) {
	lines := sweep(t, "-qubits", "64", "-two-qubit-gates", "128",
		"-chain-lengths", "16", "-alphas", "2.0,1.5,1.0", "-runs", "5")
	var prev float64 = -1
	for _, line := range lines[1:] {
		cells := strings.Split(line, ",")
		par, _ := strconv.ParseFloat(cells[9], 64)
		if prev >= 0 && par > prev {
			t.Fatalf("parallel time should fall as α falls: %v then %v", prev, par)
		}
		prev = par
	}
}

func TestSweepErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"-app", "Nope"},
		{"-qv", "-qubit-range", "8:128"},
		{"-qv", "-qubit-range", "8:128:0"},
		{"-qv", "-qubit-range", "a:b:c"},
		{"-qubits", "8", "-chain-lengths", "x"},
		{"-qubits", "8", "-alphas", "zz"},
		{"-qubits", "8", "-alphas", "NaN"},
		{"-qubits", "8", "-alphas", "Inf"},
		{"-qubits", "8", "-placers", "zz"},
		{"-qubits", "8", "-topology", "hex"},
		{"-qubits", "-4"},
	}
	for i, args := range cases {
		var buf bytes.Buffer
		if err := run(context.Background(), args, &buf); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

func TestListParsers(t *testing.T) {
	ints, err := parseInts(" 8, 16 ,32 ")
	if err != nil || len(ints) != 3 || ints[2] != 32 {
		t.Fatalf("parseInts: %v %v", ints, err)
	}
	floats, err := parseFloats("2.0,1.0")
	if err != nil || floats[1] != 1.0 {
		t.Fatalf("parseFloats: %v %v", floats, err)
	}
	if _, err := parseInts(","); err == nil {
		t.Fatalf("empty list should error")
	}
}

func TestWorkersFlagMatchesSerial(t *testing.T) {
	serial := sweep(t, "-app", "BV", "-chain-lengths", "8,16", "-runs", "6")
	concurrent := sweep(t, "-app", "BV", "-chain-lengths", "8,16", "-runs", "6", "-workers", "4")
	for i := range serial {
		if serial[i] != concurrent[i] {
			t.Fatalf("row %d differs between serial and concurrent sweeps:\n%s\n%s", i, serial[i], concurrent[i])
		}
	}
}

func TestProfilingFlagsKeepStdoutByteIdentical(t *testing.T) {
	base := []string{"-app", "BV", "-chain-lengths", "8,16", "-runs", "2"}
	var plain bytes.Buffer
	if err := run(context.Background(), base, &plain); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var profiled bytes.Buffer
	args := append([]string{"-cpuprofile", cpu, "-memprofile", mem}, base...)
	if err := run(context.Background(), args, &profiled); err != nil {
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

func TestBackendFlagShuttle(t *testing.T) {
	base := []string{"-qubits", "32", "-two-qubit-gates", "100", "-chain-lengths", "8,16", "-runs", "3"}
	weak := sweep(t, base...)
	shut := sweep(t, append([]string{"-backend", "shuttle"}, base...)...)
	if len(weak) != len(shut) {
		t.Fatalf("row counts differ: %d vs %d", len(weak), len(shut))
	}
	if weak[0] != shut[0] {
		t.Fatalf("headers differ:\n%s\n%s", weak[0], shut[0])
	}
	same := true
	for i := 1; i < len(weak); i++ {
		if weak[i] != shut[i] {
			same = false
		}
	}
	if same {
		t.Fatalf("shuttle backend produced identical rows to weak link")
	}
	// Explicit weaklink is the default spelled out.
	explicit := sweep(t, append([]string{"-backend", "weaklink"}, base...)...)
	for i := range weak {
		if weak[i] != explicit[i] {
			t.Fatalf("row %d differs between default and explicit weaklink", i)
		}
	}
	var buf bytes.Buffer
	if err := run(context.Background(), append([]string{"-backend", "bogus"}, base...), &buf); err == nil {
		t.Fatalf("unknown backend should error")
	}
}
