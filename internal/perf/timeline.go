package perf

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"velociti/internal/circuit"
	"velociti/internal/ti"
)

// Interval is one scheduled gate execution in a Timeline.
type Interval struct {
	// GateID indexes into the placed circuit's gate list.
	GateID int `json:"gate"`
	// Label is the gate's SSA label ("q3q4.2").
	Label string `json:"label"`
	// Start and Finish are in µs from circuit start.
	Start  float64 `json:"start_us"`
	Finish float64 `json:"finish_us"`
	// Chains lists the chains the gate occupies (two for weak-link gates).
	Chains []int `json:"chains"`
	// Weak marks cross-chain gates.
	Weak bool `json:"weak"`
}

// Timeline is the full as-soon-as-possible schedule implied by the parallel
// performance model: each gate starts the moment every gate it depends on
// has finished. Its Makespan equals ParallelTime; the per-gate intervals
// support Gantt-style inspection of where the critical path and the
// weak-link serialization live.
type Timeline struct {
	Intervals []Interval `json:"intervals"`
	// Makespan is the total execution time in µs.
	Makespan float64 `json:"makespan_us"`
	// NumChains is the device's chain count.
	NumChains int `json:"num_chains"`
}

// BuildTimeline computes the ASAP schedule of a placed circuit.
func BuildTimeline(c *circuit.Circuit, l *ti.Layout, lat Latencies) (*Timeline, error) {
	if err := lat.Validate(); err != nil {
		return nil, err
	}
	if c.NumQubits() > l.NumQubits() {
		return nil, fmt.Errorf("perf: circuit has %d qubits but layout places only %d", c.NumQubits(), l.NumQubits())
	}
	w := walk(c, lat.under(l))
	labels := c.Labels()
	tl := &Timeline{NumChains: l.Device().NumChains(), Makespan: w.makespan}
	for _, g := range c.Gates() {
		chains := []int{l.ChainOf(g.Qubits[0])}
		if g.IsTwoQubit() {
			switch cb := l.ChainOf(g.Qubits[1]); {
			case cb < chains[0]:
				chains = []int{cb, chains[0]}
			case cb > chains[0]:
				chains = append(chains, cb)
			}
		}
		tl.Intervals = append(tl.Intervals, Interval{
			GateID: g.ID,
			Label:  labels[g.ID],
			Start:  w.start[g.ID],
			Finish: w.finish[g.ID],
			Chains: chains,
			Weak:   len(chains) > 1,
		})
	}
	return tl, nil
}

// ChainLanes groups the intervals by chain (a weak-link gate appears in
// both of its chains' lanes), each lane sorted by start time.
func (t *Timeline) ChainLanes() [][]Interval {
	lanes := make([][]Interval, t.NumChains)
	for _, iv := range t.Intervals {
		for _, ch := range iv.Chains {
			lanes[ch] = append(lanes[ch], iv)
		}
	}
	for _, lane := range lanes {
		sort.Slice(lane, func(i, j int) bool {
			if lane[i].Start != lane[j].Start {
				return lane[i].Start < lane[j].Start
			}
			return lane[i].GateID < lane[j].GateID
		})
	}
	return lanes
}

// Concurrency returns the maximum number of gates executing simultaneously
// — a direct measure of the intra-chain parallelism the parallel model
// exploits over the serial baseline.
func (t *Timeline) Concurrency() int {
	type event struct {
		at    float64
		delta int
	}
	events := make([]event, 0, 2*len(t.Intervals))
	for _, iv := range t.Intervals {
		if iv.Finish <= iv.Start {
			continue
		}
		events = append(events, event{iv.Start, +1}, event{iv.Finish, -1})
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		// Process finishes before starts at the same instant.
		return events[i].delta < events[j].delta
	})
	cur, best := 0, 0
	for _, e := range events {
		cur += e.delta
		if cur > best {
			best = cur
		}
	}
	return best
}

// Gantt renders the timeline as a fixed-width ASCII chart with one row per
// chain. Each row is width columns wide; a column is '#' when the chain is
// running an intra-chain gate in that slice, 'W' when it is held by a
// weak-link gate, and '.' when idle.
func (t *Timeline) Gantt(width int) string {
	if width <= 0 {
		width = 80
	}
	if t.Makespan == 0 {
		return "(empty timeline)\n"
	}
	lanes := t.ChainLanes()
	var b strings.Builder
	fmt.Fprintf(&b, "gantt: %d chains, makespan %.1f µs, peak concurrency %d\n",
		t.NumChains, t.Makespan, t.Concurrency())
	slice := t.Makespan / float64(width)
	for ch, lane := range lanes {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, iv := range lane {
			from := int(iv.Start / slice)
			to := int((iv.Finish - 1e-9) / slice)
			if to >= width {
				to = width - 1
			}
			mark := byte('#')
			if iv.Weak {
				mark = 'W'
			}
			for i := from; i <= to; i++ {
				// Weak-link occupancy dominates in the display.
				if row[i] != 'W' {
					row[i] = mark
				}
			}
		}
		fmt.Fprintf(&b, "chain %2d |%s|\n", ch, row)
	}
	return b.String()
}

// traceEvent is one Catapult/Chrome-tracing complete event.
type traceEvent struct {
	Name     string  `json:"name"`
	Phase    string  `json:"ph"`
	StartUs  float64 `json:"ts"`
	DurUs    float64 `json:"dur"`
	PID      int     `json:"pid"`
	TID      int     `json:"tid"`
	Category string  `json:"cat,omitempty"`
}

// TraceJSON renders the timeline in the Chrome tracing (Catapult) JSON
// array format: one complete ("X") event per gate occupancy, with chains
// as threads. Load the output at chrome://tracing or in Perfetto to
// inspect schedules visually. Weak-link gates appear once per chain they
// occupy, categorized "weak".
func (t *Timeline) TraceJSON() ([]byte, error) {
	events := make([]traceEvent, 0, len(t.Intervals)*2)
	for _, iv := range t.Intervals {
		cat := ""
		if iv.Weak {
			cat = "weak"
		}
		for _, ch := range iv.Chains {
			events = append(events, traceEvent{
				Name:     iv.Label,
				Phase:    "X",
				StartUs:  iv.Start,
				DurUs:    iv.Finish - iv.Start,
				PID:      0,
				TID:      ch,
				Category: cat,
			})
		}
	}
	return json.Marshal(events)
}
