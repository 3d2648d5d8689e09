package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"velociti/internal/stats"
)

// minOpsForP90 is the sample count at which the 90th percentile has ten
// samples beyond it (see samplesBeyond); a run measures at least this many
// ops.
const minOpsForP90 = 100

// digestOps is how many leading ops feed the output digest. Op i's output
// depends only on the workload seed and i, so the digest is the same on
// every run and every commit that simulates the same numbers.
const digestOps = 16

// opSeed derives op i's seed from the workload seed. Warm-up ops use
// negative indexes, so they never repeat a measured op's inputs.
func opSeed(seed int64, i int) int64 { return stats.SplitSeed(seed, i) }

// warmupIndex is the op index of the k-th warm-up op.
func warmupIndex(k int) int { return -1 - k }

// warmUp runs n warm-up ops, each checked like a measured op.
func warmUp(w workload, n int) error {
	for k := 0; k < n; k++ {
		out, err := w.op(warmupIndex(k))
		if err == nil {
			_, err = w.check(warmupIndex(k), out)
		}
		if err != nil {
			return fmt.Errorf("warm-up op %d: %w", k, err)
		}
	}
	return nil
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p ≤ 100):
// the smallest sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[percentileRank(len(s), p)-1]
}

// percentileRank is the 1-based nearest rank of the p-th percentile of n
// samples.
func percentileRank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// samplesBeyond is how many of n samples lie strictly above the p-th
// percentile's rank. A percentile is reported only when this is at least
// ten.
func samplesBeyond(n int, p float64) int { return n - percentileRank(n, p) }

// median is the 50th percentile with the even-count midpoint, as Python's
// statistics.median gives it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// measuredRun is a --trace 0 invocation: set up several times, then run
// ops closed-loop, one at a time, until the window has lasted cfg.seconds,
// holds at least cfg.minOps ops and ends on a pass boundary.
func measuredRun(cfg config, w workload, start time.Time, stdout, stderr io.Writer) (result, error) {
	// Each set-up is followed by a probe, which scales the set-up median.
	setups := make([]float64, 0, cfg.setups)
	var setupSpeed hostSpeed
	t0 := start
	for k := 0; k < cfg.setups; k++ {
		if k > 0 {
			w.close()
			t0 = time.Now()
		}
		if err := w.setup(cfg.seed); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err := setupSpeed.probe(); err != nil {
			return result{}, err
		}
	}

	digest := sha256.New()
	digested := 0
	// Every op's duration and the number of probes taken before it;
	// failed ops count towards throughput but leave the latency sample.
	var durs []time.Duration
	var probesBefore []int
	var okOp []bool
	var speed hostSpeed
	attempted, failed := 0, 0
	window := time.Now()
	for i := 0; ; i++ {
		if i%w.passLen() == 0 && i >= cfg.minOps && time.Since(window).Seconds() >= cfg.seconds {
			break
		}
		t := time.Now()
		out, err := w.op(i)
		d := time.Since(t)
		attempted++
		durs = append(durs, d)
		probesBefore = append(probesBefore, len(speed.samples))
		if err == nil {
			var canon []byte
			canon, err = w.check(i, out)
			if err == nil && digested < digestOps {
				digest.Write(canon)
				digested++
			}
		}
		if perr := speed.afterOp(d); perr != nil {
			return result{}, perr
		}
		okOp = append(okOp, err == nil)
		if err != nil {
			failed++
			fmt.Fprintf(stderr, "op %d failed: %v\n", i, err)
		}
	}
	windowS := time.Since(window).Seconds()
	for len(speed.samples) < probeMin {
		if err := speed.probe(); err != nil {
			return result{}, err
		}
	}

	// Each op is scaled by the probes around it.
	var lat, scaled []float64 // ms, successful ops only
	var busy, scaledBusy float64
	for k, d := range durs {
		ms := float64(d) / float64(time.Millisecond)
		sms := ms * speed.scaleAt(probesBefore[k])
		busy += ms
		scaledBusy += sms
		if okOp[k] {
			lat = append(lat, ms)
			scaled = append(scaled, sms)
		}
	}
	setupS := median(setups)
	fmt.Fprintf(stdout, "digest %s seed=%d ops=%d sha256=%x\n", cfg.workload, cfg.seed, digested, digest.Sum(nil))
	fmt.Fprintf(stdout, "run %s seed=%d attempted=%d failed=%d window_s=%.3f busy_s=%.3f setups_s=%s p90_samples_beyond=%d\n",
		cfg.workload, cfg.seed, attempted, failed, windowS, busy/1e3, formatFloats(setups), samplesBeyond(len(lat), 90))
	fmt.Fprintf(stdout, "host probes=%d probe_ms=%.3f scale=%.4f unscaled: setup_s=%.4f ops_per_s=%.3f op_ms_p50=%.3f op_ms_p90=%.3f\n",
		len(speed.samples), median(speed.samples)/1e6, speed.scale(), setupS, float64(attempted)/busy*1e3,
		finite(percentile(lat, 50)), finite(percentile(lat, 90)))

	return result{Correct: failed == 0 && len(lat) > 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{
		"setup_s":      {Value: setupS * setupSpeed.scale(), Unit: "s"},
		"ops_per_s":    {Value: float64(attempted) / scaledBusy * 1e3, Unit: "1/s"},
		"op_ms_p50":    {Value: finite(percentile(scaled, 50)), Unit: "ms"},
		"op_ms_p90":    {Value: finite(percentile(scaled, 90)), Unit: "ms"},
		"peak_rss_mib": {Value: peakRSSMiB(), Unit: "MiB"},
	}}, nil
}

// finite maps the NaN of an empty sample to 0, which JSON can carry; the
// run is then reported as failed.
func finite(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

func formatFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	kb := procStatusKB("VmHWM")
	return float64(kb) / 1024
}

// procStatusKB reads one "<key>: <n> kB" line of /proc/self/status; 0 when
// it is missing.
func procStatusKB(key string) int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok || name != key {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			return 0
		}
		n, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0
		}
		return n
	}
	return 0
}

// env is the machine and runtime a result was measured on.
type env struct {
	goVersion  string
	gomaxprocs int
	gogc       string
	nproc      int
	cpu        string
}

func readEnv() env {
	e := env{
		goVersion:  runtime.Version(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		gogc:       os.Getenv("GOGC"),
		nproc:      runtime.NumCPU(),
		cpu:        "unknown",
	}
	if e.gogc == "" {
		e.gogc = "100"
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(b))
		for sc.Scan() {
			name, val, ok := strings.Cut(sc.Text(), ":")
			if ok && strings.TrimSpace(name) == "model name" {
				e.cpu = strings.TrimSpace(val)
				break
			}
		}
	}
	return e
}

func (e env) String() string {
	return fmt.Sprintf("env go=%s GOMAXPROCS=%d GOGC=%s nproc=%d cpu=%q", e.goVersion, e.gomaxprocs, e.gogc, e.nproc, e.cpu)
}
