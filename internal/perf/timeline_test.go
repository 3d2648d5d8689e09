package perf

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"velociti/internal/circuit"
	"velociti/internal/ti"
)

func TestTimelineFig3(t *testing.T) {
	c, l := fig3(t)
	lat := DefaultLatencies()
	tl, err := BuildTimeline(c, l, lat)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl.Intervals) != 6 {
		t.Fatalf("intervals = %d", len(tl.Intervals))
	}
	// Makespan must equal the parallel model: (1+α)γ + γ = 400.
	if tl.Makespan != 400 {
		t.Fatalf("makespan = %v, want 400", tl.Makespan)
	}
	// The three start gates begin at t=0.
	for _, id := range []int{0, 1, 2} {
		if tl.Intervals[id].Start != 0 {
			t.Errorf("gate %d start = %v, want 0", id, tl.Intervals[id].Start)
		}
	}
	// The weak-link gate (id 3) spans both chains and is marked weak.
	iv := tl.Intervals[3]
	if !iv.Weak || len(iv.Chains) != 2 {
		t.Fatalf("weak gate interval = %+v", iv)
	}
	if iv.Start != 100 || iv.Finish != 300 {
		t.Fatalf("weak gate runs [%v,%v], want [100,300]", iv.Start, iv.Finish)
	}
}

func TestTimelineMakespanEqualsParallelTime(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	lat := DefaultLatencies()
	for trial := 0; trial < 50; trial++ {
		n := 4 + r.Intn(16)
		d, _ := ti.NewDevice(4, (n+3)/4, ti.Ring)
		chains := make([][]int, d.NumChains())
		for q := 0; q < n; q++ {
			chains[q/4] = append(chains[q/4], q)
		}
		l, _ := ti.NewLayout(d, chains)
		c := circuit.New("rand", n)
		for k := 0; k < r.Intn(40); k++ {
			if r.Intn(4) == 0 {
				c.X(r.Intn(n))
			} else {
				a, b := r.Intn(n), r.Intn(n)
				for b == a {
					b = r.Intn(n)
				}
				c.CX(a, b)
			}
		}
		tl, err := BuildTimeline(c, l, lat)
		if err != nil {
			t.Fatal(err)
		}
		if want := ParallelTime(c, l, lat); math.Abs(tl.Makespan-want) > 1e-9 {
			t.Fatalf("trial %d: makespan %v != parallel %v", trial, tl.Makespan, want)
		}
		// No two intervals sharing a qubit may overlap.
		for i, a := range tl.Intervals {
			for j := i + 1; j < len(tl.Intervals); j++ {
				b := tl.Intervals[j]
				shares := false
				for _, q := range c.Gate(a.GateID).Qubits {
					if c.Gate(b.GateID).Touches(q) {
						shares = true
					}
				}
				if shares && a.Start < b.Finish && b.Start < a.Finish {
					t.Fatalf("trial %d: overlapping gates %d and %d on shared qubit", trial, a.GateID, b.GateID)
				}
			}
		}
	}
}

func TestTimelineConcurrency(t *testing.T) {
	c, l := fig3(t)
	tl, err := BuildTimeline(c, l, DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	// Three start gates run simultaneously at t=0.
	if got := tl.Concurrency(); got != 3 {
		t.Fatalf("concurrency = %d, want 3", got)
	}
	// A fully serial ladder has concurrency 1.
	d, _ := ti.NewDevice(2, 1, ti.Ring)
	sl, _ := ti.NewLayout(d, [][]int{{0, 1}})
	sc := circuit.New("serial", 2)
	for i := 0; i < 5; i++ {
		sc.CX(0, 1)
	}
	stl, err := BuildTimeline(sc, sl, DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	if stl.Concurrency() != 1 {
		t.Fatalf("serial ladder concurrency = %d", stl.Concurrency())
	}
}

func TestTimelineChainLanes(t *testing.T) {
	c, l := fig3(t)
	tl, _ := BuildTimeline(c, l, DefaultLatencies())
	lanes := tl.ChainLanes()
	if len(lanes) != 2 {
		t.Fatalf("lanes = %d", len(lanes))
	}
	// Chain 0 hosts gates q1q2, q3q4, q2q3 plus the weak gate; chain 1
	// hosts q6q7, q5q6 plus the weak gate.
	if len(lanes[0]) != 4 || len(lanes[1]) != 3 {
		t.Fatalf("lane sizes = %d/%d, want 4/3", len(lanes[0]), len(lanes[1]))
	}
	for _, lane := range lanes {
		for i := 1; i < len(lane); i++ {
			if lane[i].Start < lane[i-1].Start {
				t.Fatalf("lane not sorted by start")
			}
		}
	}
}

func TestTimelineGantt(t *testing.T) {
	c, l := fig3(t)
	tl, _ := BuildTimeline(c, l, DefaultLatencies())
	g := tl.Gantt(40)
	if !strings.Contains(g, "chain  0") || !strings.Contains(g, "chain  1") {
		t.Fatalf("gantt rows missing:\n%s", g)
	}
	if !strings.Contains(g, "W") {
		t.Fatalf("gantt should mark the weak-link gate:\n%s", g)
	}
	if !strings.Contains(g, "makespan 400.0") {
		t.Fatalf("gantt header missing makespan:\n%s", g)
	}
	// Zero-width request falls back to the default width.
	if len(strings.Split(tl.Gantt(0), "\n")[1]) < 80 {
		t.Fatalf("default width not applied")
	}
	empty := &Timeline{NumChains: 1}
	if !strings.Contains(empty.Gantt(10), "empty") {
		t.Fatalf("empty timeline rendering")
	}
}

func TestTimelineValidation(t *testing.T) {
	c, l := fig3(t)
	if _, err := BuildTimeline(c, l, Latencies{WeakPenalty: 0}); err == nil {
		t.Fatalf("invalid latencies should fail")
	}
	wide := circuit.New("wide", 100)
	if _, err := BuildTimeline(wide, l, DefaultLatencies()); err == nil {
		t.Fatalf("circuit wider than layout should fail")
	}
}

func TestTimelineTraceJSON(t *testing.T) {
	c, l := fig3(t)
	tl, _ := BuildTimeline(c, l, DefaultLatencies())
	data, err := tl.TraceJSON()
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name  string  `json:"name"`
		Phase string  `json:"ph"`
		TS    float64 `json:"ts"`
		Dur   float64 `json:"dur"`
		TID   int     `json:"tid"`
		Cat   string  `json:"cat"`
	}
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("invalid trace json: %v", err)
	}
	// 6 gates, one of which (the weak gate) occupies two chains → 7 events.
	if len(events) != 7 {
		t.Fatalf("events = %d, want 7", len(events))
	}
	weak := 0
	for _, e := range events {
		if e.Phase != "X" || e.Dur <= 0 {
			t.Fatalf("malformed event %+v", e)
		}
		if e.Cat == "weak" {
			weak++
		}
	}
	if weak != 2 {
		t.Fatalf("weak events = %d, want 2 (one per occupied chain)", weak)
	}
}
