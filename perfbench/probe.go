package main

import (
	"errors"
	"sort"
	"strconv"
	"time"
)

// On a shared 2-vCPU host the same op drifts by ±25% over minutes as
// neighbours contend for the core and the memory system; two sets of runs
// taken twenty minutes apart differed by 35% with no change to the code.
// So every run also times a fixed probe — sorting floats, churning a
// string-keyed map and allocating a linked list, work that depends on
// nothing in velociti — between ops, off the clock, and scales each op's
// time to a host on which the probe takes probeNominal, using the probes
// taken around that op: a burst that slows an op slows its neighbouring
// probes too; each set-up is followed by a probe that scales it. Over
// minutes the probe tracks the ops' drift to within ≈3% (coefficient of
// variation of op time over probe time, against 6–17% for op time alone).
// The host line prints the unscaled values and the run's median factor.

const (
	probeFloats = 40_000
	probeKeys   = 8_000
	probeNodes  = 40_000
	// probeNominal is the probe's duration on the reference host; the
	// scaled metrics read as if measured on a host that runs it this fast.
	probeNominal = 12 * time.Millisecond
	// probeEvery is how much measured op time passes between probes.
	probeEvery = 200 * time.Millisecond
	// probeMin is how many probes a run takes at least.
	probeMin = 5
)

// runProbe runs the probe once and returns its wall time.
func runProbe() (time.Duration, error) {
	t := time.Now()
	xs := make([]float64, probeFloats)
	x := uint64(88172645463325252)
	for i := range xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		xs[i] = float64(x>>11) / (1 << 53)
	}
	sort.Float64s(xs)
	m := make(map[string]int)
	for i := 0; i < probeKeys; i++ {
		m[probeKey(i)] = i
	}
	sum := 0
	for i := 0; i < probeKeys; i++ {
		sum += m[probeKey(i)]
	}
	var head *probeNode
	for i := 0; i < probeNodes; i++ {
		head = &probeNode{next: head, v: i}
	}
	nodes := 0
	for n := head; n != nil; n = n.next {
		nodes += n.v & 1
	}
	d := time.Since(t)
	if sum != probeKeys*(probeKeys-1)/2 || nodes != probeNodes/2 || !sort.Float64sAreSorted(xs) {
		return 0, errors.New("host probe computed a wrong result")
	}
	return d, nil
}

type probeNode struct {
	next *probeNode
	v    int
	pad  [3]int64
}

func probeKey(i int) string { return "key|" + strconv.Itoa(i*7919) + "|seed=" + strconv.Itoa(i) }

// hostSpeed collects probe times over a run.
type hostSpeed struct {
	since   time.Duration // op time since the last probe
	samples []float64     // probe times, ns
}

// afterOp counts an op's time and probes once probeEvery has passed.
func (h *hostSpeed) afterOp(op time.Duration) error {
	h.since += op
	if h.since < probeEvery {
		return nil
	}
	h.since = 0
	return h.probe()
}

func (h *hostSpeed) probe() error {
	d, err := runProbe()
	if err != nil {
		return err
	}
	h.samples = append(h.samples, float64(d))
	return nil
}

// scale is probeNominal over the run's median probe time: a duration
// measured anywhere in the run, times scale, is the duration on the
// reference host.
func (h *hostSpeed) scale() float64 { return float64(probeNominal) / median(h.samples) }

// scaleAt is scale for an op that ran after the first at probes: it uses
// the median of the two probes before the op and the two after it.
func (h *hostSpeed) scaleAt(at int) float64 {
	lo, hi := max(at-2, 0), min(at+2, len(h.samples))
	return float64(probeNominal) / median(h.samples[lo:hi])
}
