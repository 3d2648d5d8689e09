package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"time"
)

// Span names with a fixed role in the ledger.
const (
	// opSpan is the root of one traced op; the ledger's shares are of the
	// summed duration of these roots, less the replays inside them.
	opSpan = "op"
	// replaySpan is an out-of-band re-run, inside an op, of work that
	// happened behind a process boundary (a server handler), used to break
	// the span that timed it down by layer. Its time is not op time.
	replaySpan = "replay"
)

// span is one timed call into a layer. Spans of one op share its op id;
// parent is the index of the enclosing span, -1 for a root.
type span struct {
	name       string
	op         int
	parent     int
	start, end time.Duration // since the tracer's origin
	// covers is, for a replay, the index of the span whose in-process work
	// the replay re-runs; -1 otherwise.
	covers int
	// label names an op root's kind of work (a served endpoint).
	label string
}

// tracer records spans in memory. Work counts (gates, bytes, trials) are
// recorded at the same boundaries, keyed by span name.
type tracer struct {
	origin time.Time
	op     int
	spans  []span
	open   []int
	units  []named
}

// named is one (name, value) entry of a small ordered table.
type named struct {
	name string
	v    float64
}

// add adds v to name's entry, appending the entry when it is new.
func addNamed(t []named, name string, v float64) []named {
	for i := range t {
		if t[i].name == name {
			t[i].v += v
			return t
		}
	}
	return append(t, named{name, v})
}

// lookup returns name's value, 0 when absent.
func lookup(t []named, name string) float64 {
	for _, e := range t {
		if e.name == name {
			return e.v
		}
	}
	return 0
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, op: t.op, parent: parent, start: time.Since(t.origin), end: -1, covers: -1})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *tracer) end() {
	n := len(t.open)
	idx := t.open[n-1]
	t.open = t.open[:n-1]
	t.spans[idx].end = time.Since(t.origin)
}

// last returns the index of the most recently closed or opened span with
// the given name in the current op, -1 when there is none.
func (t *tracer) last(name string) int {
	for i := len(t.spans) - 1; i >= 0 && t.spans[i].op == t.op; i-- {
		if t.spans[i].name == name {
			return i
		}
	}
	return -1
}

// beginReplay opens a replay that breaks down the in-process work of span
// covered.
func (t *tracer) beginReplay(covered int) {
	t.begin(replaySpan)
	t.spans[len(t.spans)-1].covers = covered
}

// label names the current op's kind of work.
func (t *tracer) label(s string) { t.spans[t.open[0]].label = s }

// count records n units of work done by the layer of the named span.
func (t *tracer) count(name string, n float64) { t.units = addNamed(t.units, name, n) }

// dur is a closed span's duration.
func (s span) dur() time.Duration { return s.end - s.start }

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered := time.Duration(0)
		cur, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			st, en := spans[k].start, spans[k].end
			if st < s.start {
				st = s.start
			}
			if en > s.end {
				en = s.end
			}
			if en <= st {
				continue
			}
			if st > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = st, en
			} else if en > curEnd {
				curEnd = en
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		self[i] = s.dur() - covered
	}
	// A replay re-runs work that its covered span already timed, so that
	// span keeps only the time the replay does not account for.
	for _, s := range spans {
		if s.covers >= 0 {
			self[s.covers] -= s.dur()
		}
	}
	return self
}

// ledger is the per-layer account of a traced run.
type ledger struct {
	// opTotal is the op roots' summed duration less their replays: the
	// denominator of every share.
	opTotal time.Duration
	// unattributed is op time no layer span covers: the self time of op
	// roots and replays.
	unattributed time.Duration
	// replayTotal sums the replays, which re-run in-process work.
	replayTotal time.Duration
	replays     int
	self        []named // ns of self time per span name, in first-seen order
	calls       []named // closed spans per name
	units       []named // work units per span name
	// extra holds metrics a workload computes from counters no span
	// carries.
	extra []named
}

// newLedger accounts for every op of the trace.
func newLedger(t *tracer) *ledger { return newLedgerOf(t, "") }

// newLedgerOf accounts for the ops labelled label, or for every op when
// label is empty.
func newLedgerOf(t *tracer, label string) *ledger {
	l := &ledger{units: t.units}
	self := selfTimes(t.spans)
	opLabel := ""
	for i, s := range t.spans {
		if s.parent < 0 {
			opLabel = s.label
		}
		if label != "" && opLabel != label {
			continue
		}
		switch {
		case s.parent < 0 && s.name == opSpan:
			l.opTotal += s.dur()
			l.unattributed += self[i]
		case s.covers >= 0:
			l.opTotal -= s.dur()
			l.unattributed += self[i]
			l.replayTotal += s.dur()
			l.replays++
		default:
			l.self = addNamed(l.self, s.name, float64(self[i]))
			l.calls = addNamed(l.calls, s.name, 1)
		}
	}
	return l
}

// shares renders every layer's share of op time, largest first, then the
// unattributed rest.
func (l *ledger) shares() string {
	rows := append([]named(nil), l.self...)
	sort.SliceStable(rows, func(a, b int) bool { return rows[a].v > rows[b].v })
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, " %s=%.4f", r.name, l.share(r.name))
	}
	if l.opTotal > 0 {
		fmt.Fprintf(&b, " unattributed=%.4f", float64(l.unattributed)/float64(l.opTotal))
	}
	return b.String()
}

func (l *ledger) set(name string, v float64) { l.extra = addNamed(l.extra, name, v) }

// share is a layer's self time as a share of the op time.
func (l *ledger) share(name string) float64 {
	if l.opTotal <= 0 {
		return 0
	}
	return lookup(l.self, name) / float64(l.opTotal)
}

// perUnit is a layer's self time per unit of work it counted, in ns.
func (l *ledger) perUnit(name string) float64 {
	u := lookup(l.units, name)
	if u == 0 {
		return 0
	}
	return lookup(l.self, name) / u
}

// perCall is a layer's mean self time per span, in ns.
func (l *ledger) perCall(name string) float64 {
	c := lookup(l.calls, name)
	if c == 0 {
		return 0
	}
	return lookup(l.self, name) / c
}

// layerMetric is one per-layer row of the traced run's output. A layer
// that does not run on a workload reads 0 there.
type layerMetric struct {
	name, unit string
	value      func(l *ledger) float64
}

func share(span string) func(*ledger) float64 {
	return func(l *ledger) float64 { return l.share(span) }
}

func nsPerUnit(span string) func(*ledger) float64 {
	return func(l *ledger) float64 { return l.perUnit(span) }
}

func usPerUnit(span string) func(*ledger) float64 {
	return func(l *ledger) float64 { return l.perUnit(span) / 1e3 }
}

func extra(name string) func(*ledger) float64 {
	return func(l *ledger) float64 { return lookup(l.extra, name) }
}

// layerMetrics is the per-layer ledger, in the order README.md's table
// lists it.
var layerMetrics = []layerMetric{
	{"perf.critical_path.share", "ratio", share("perf.critical_path")},
	{"perf.critical_path.labels_used_ratio", "ratio", func(l *ledger) float64 {
		if built := lookup(l.units, "perf.critical_path"); built > 0 {
			return lookup(l.units, labelsUsed) / built
		}
		return 0
	}},
	{"stats.seed.us_per_trial", "us/trial", usPerUnit("stats.seed")},
	{"placement.place.us_per_trial", "us/trial", usPerUnit("placement.place")},
	{"schedule.synthesize.ns_per_gate", "ns/gate", nsPerUnit("schedule.synthesize")},
	{"perf.bind.ns_per_gate", "ns/gate", nsPerUnit("perf.bind")},
	{"perf.fold.ns_per_gate_lane", "ns/gate-lane", nsPerUnit("perf.fold")},
	{"shuttle.transport.ns_per_gate_lane", "ns/gate-lane", nsPerUnit("shuttle.transport")},
	{"core.cache.bind_hit_ratio", "ratio", extra("core.cache.bind_hit_ratio")},
	{"core.cache.hit_ns", "ns", func(l *ledger) float64 { return l.perCall("core.cache") }},
	{"core.grid.skipped_cells", "count", extra("core.grid.skipped_cells")},
	{"core.render.ns_per_byte", "ns/byte", nsPerUnit("core.render")},
	{"dse.explore.share", "ratio", share("dse.explore")},
	{"fidelity.estimate.share", "ratio", share("fidelity.estimate")},
	{"serve.http.self_us", "us", func(l *ledger) float64 { return l.perCall("serve.http") / 1e3 }},
	{"serve.queue_wait_us", "us", extra("serve.queue_wait_us")},
	{"serve.coalesced_ratio", "ratio", extra("serve.coalesced_ratio")},
	{"circuit.generate.ns_per_gate", "ns/gate", extra("circuit.generate.ns_per_gate")},
	{"circuit.fingerprint.ns_per_gate", "ns/gate", extra("circuit.fingerprint.ns_per_gate")},
	{"perf.stream_classify.ns_per_gate", "ns/gate", extra("perf.stream_classify.ns_per_gate")},
	{"perf.stream_fold.ns_per_gate_lane", "ns/gate-lane", extra("perf.stream_fold.ns_per_gate_lane")},
	{"qasm.parse.ns_per_byte", "ns/byte", nsPerUnit("qasm.parse")},
	{"qasm.parse.share", "ratio", share("qasm.parse")},
	{"runtime.gc_cpu_share", "ratio", extra("runtime.gc_cpu_share")},
	{"runtime.alloc_bytes_per_op", "B/op", extra("runtime.alloc_bytes_per_op")},
	{"trace.overhead_ratio", "ratio", extra("trace.overhead_ratio")},
	{"trace.unattributed_share", "ratio", func(l *ledger) float64 {
		if l.opTotal <= 0 {
			return 0
		}
		return float64(l.unattributed) / float64(l.opTotal)
	}},
}

// minTracedOps is the least number of traced ops a traced run holds.
const minTracedOps = 10

// tracedRun is a --trace 1 invocation: set up once, then alternate each
// op with its traced replay, checking that both render the same bytes.
// The untraced ops give the allocation count and the baseline for the
// tracing overhead; the GC share covers the whole window.
func tracedRun(cfg config, w workload, stdout, stderr io.Writer) (result, error) {
	if err := w.setup(cfg.seed); err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	tr := newTracer()
	var plain, traced []float64
	var allocs uint64
	attempted, failed := 0, 0
	cpu0 := readCPU()
	window := time.Now()
	for i := 0; ; i++ {
		if i%w.passLen() == 0 && i >= minTracedOps && time.Since(window).Seconds() >= cfg.seconds {
			break
		}
		attempted++
		a0 := heapAllocs()
		t := time.Now()
		out, err := w.op(i)
		d := time.Since(t)
		allocs += heapAllocs() - a0
		var want []byte
		if err == nil {
			want, err = w.check(i, out)
		}
		if err != nil {
			failed++
			fmt.Fprintf(stderr, "op %d failed: %v\n", i, err)
			continue
		}
		plain = append(plain, float64(d))

		tr.op = i
		tr.begin(opSpan)
		rout, err := w.replay(i, tr)
		for len(tr.open) > 0 {
			tr.end() // closes the op root, and any span an error left open
		}
		var got []byte
		if err == nil {
			got, err = w.check(i, rout)
		}
		if err == nil && !bytes.Equal(got, want) {
			err = fmt.Errorf("%w: traced replay of op %d renders different bytes than the op", errCheck, i)
		}
		if err != nil {
			failed++
			fmt.Fprintf(stderr, "traced op %d failed: %v\n", i, err)
			continue
		}
		// The traced op is the op root, or — when the op crossed a process
		// boundary and a replay broke it down — the span the replay covers.
		root := tr.last(opSpan)
		if r := tr.last(replaySpan); r >= 0 {
			root = tr.spans[r].covers
		}
		traced = append(traced, float64(tr.spans[root].dur()))
	}
	cpu := readCPU().sub(cpu0)

	l := newLedger(tr)
	if err := w.ledger(l); err != nil {
		return result{}, err
	}
	l.set("runtime.alloc_bytes_per_op", float64(allocs)/float64(attempted))
	if len(plain) > 0 && len(traced) > 0 {
		l.set("trace.overhead_ratio", median(traced)/median(plain)-1)
	}
	if cpu.total > 0 {
		l.set("runtime.gc_cpu_share", cpu.gc/cpu.total)
	}
	if err := writeChromeTrace(cfg.traceOut, tr.spans); err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "trace %s seed=%d ops=%d traced=%d spans=%d file=%s\n",
		cfg.workload, cfg.seed, attempted, len(traced), len(tr.spans), cfg.traceOut)
	fmt.Fprintf(stdout, "layers %s all:%s\n", cfg.workload, l.shares())
	var labels []string
	for _, s := range tr.spans {
		if s.parent < 0 && s.label != "" && !slices.Contains(labels, s.label) {
			labels = append(labels, s.label)
		}
	}
	for _, lb := range labels {
		fmt.Fprintf(stdout, "layers %s %s:%s\n", cfg.workload, strings.ReplaceAll(lb, " ", "+"), newLedgerOf(tr, lb).shares())
	}

	res := result{Correct: failed == 0 && len(traced) > 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, m := range layerMetrics {
		res.Metrics[m.name] = metric{Value: m.value(l), Unit: m.unit}
	}
	return res, nil
}

// heapAllocs is the cumulative count of bytes allocated on the heap.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuTimes is the runtime's estimate of CPU time spent, in seconds.
type cpuTimes struct{ gc, total float64 }

func readCPU() cpuTimes {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return cpuTimes{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

func (c cpuTimes) sub(o cpuTimes) cpuTimes {
	return cpuTimes{gc: c.gc - o.gc, total: c.total - o.total}
}

// traceEvent is one complete ("X") event of the Chrome trace format, the
// shape perf.Timeline.TraceJSON writes, with the op id and parent span as
// arguments.
type traceEvent struct {
	Name    string    `json:"name"`
	Phase   string    `json:"ph"`
	StartUs float64   `json:"ts"`
	DurUs   float64   `json:"dur"`
	PID     int       `json:"pid"`
	TID     int       `json:"tid"`
	Args    traceArgs `json:"args"`
}

type traceArgs struct {
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Label  string `json:"label,omitempty"`
}

// writeChromeTrace writes the spans to path as a Chrome trace.
func writeChromeTrace(path string, spans []span) error {
	events := make([]traceEvent, len(spans))
	for i, s := range spans {
		events[i] = traceEvent{
			Name:    s.name,
			Phase:   "X",
			StartUs: float64(s.start) / 1e3,
			DurUs:   float64(s.dur()) / 1e3,
			Args:    traceArgs{Op: s.op, Parent: s.parent, Label: s.label},
		}
	}
	b, err := json.Marshal(events)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
