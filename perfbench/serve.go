package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"velociti/internal/apps"
	"velociti/internal/circuit"
	"velociti/internal/core"
	"velociti/internal/dse"
	"velociti/internal/expt"
	"velociti/internal/fidelity"
	"velociti/internal/perf"
	"velociti/internal/schedule"
	"velociti/internal/serve"
	"velociti/internal/shuttle"
	"velociti/internal/stats"
	"velociti/internal/ti"
)

// serveWarm is a long-lived service answering overlapping questions: one
// client on one keep-alive loopback connection to
// serve.New(Options{Workers: 1}).Handler(). Set-up sends each request of a
// fixed set once, cold, and records the bodies; every measured op replays
// one request of the set, whole passes at a time in a seeded order, so
// every artifact is a cache hit and the pricing folds, cache lookups,
// CSV/JSON encoding and HTTP do the work.
type serveWarm struct {
	mix   []mixEntry
	chain int
	runs  int

	seed   int64
	srv    *serve.Server
	hs     *http.Server
	done   chan error
	client *http.Client
	base   string
	reqs   []serveReq
	order  []int
	pass   int
	snap0  serve.Snapshot
	// skipped sums X-Velociti-Skipped-Cells over the traced window.
	skipped int
}

// mixEntry is one request of the set: an endpoint over a Table II app,
// under a timing backend ("" is weak links), sent repeat times per pass.
type mixEntry struct {
	path, app, backend string
	repeat             int
}

// serveMix is one pass: an α-panel sweep per Table II app at L=16, two
// apps also under shuttle, an evaluate at each of those plans, and two
// explorations. The repeats make the pass 23 requests long with the
// heaviest request — the QFT α-panel sweep — as its last 5: the p50 rank
// (11.5 requests in) then falls mid-way through the ≈4 ms plateau of
// requests and the p90 rank (20.7 in) mid-way through the QFT sweeps,
// never on a boundary between two requests' latencies. README.md lists
// the order.
var serveMix = []mixEntry{
	{"/v1/sweep", "Supremacy", "", 1},
	{"/v1/sweep", "QAOA", "", 1},
	{"/v1/sweep", "SquareRoot", "", 1},
	{"/v1/sweep", "QFT", "", 5},
	{"/v1/sweep", "Adder", "", 1},
	{"/v1/sweep", "BV", "", 1},
	{"/v1/sweep", "QAOA", "shuttle", 1},
	{"/v1/sweep", "Adder", "shuttle", 1},
	{"/v1/evaluate", "Supremacy", "", 1},
	{"/v1/evaluate", "QAOA", "", 1},
	{"/v1/evaluate", "SquareRoot", "", 1},
	{"/v1/evaluate", "QFT", "", 1},
	{"/v1/evaluate", "Adder", "", 1},
	{"/v1/evaluate", "BV", "", 1},
	{"/v1/evaluate", "QAOA", "shuttle", 1},
	{"/v1/evaluate", "Adder", "shuttle", 1},
	{"/v1/explore", "Adder", "", 1},
	{"/v1/explore", "BV", "", 2},
}

// serveReq is one request of the fixed set with the body its cold pass
// returned.
type serveReq struct {
	label string // endpoint and backend, e.g. "/v1/sweep shuttle"
	path  string
	body  []byte
	want  []byte
	sweep *serve.SweepRequest
	eval  *serve.EvaluateRequest
	expl  *serve.ExploreRequest
}

func newServeWarm(sz size) *serveWarm {
	w := &serveWarm{mix: serveMix, chain: 16, runs: 35}
	if sz == tinySize {
		w.mix = []mixEntry{{"/v1/sweep", "BV", "", 1}, {"/v1/sweep", "BV", "shuttle", 1},
			{"/v1/evaluate", "BV", "", 1}, {"/v1/evaluate", "BV", "shuttle", 1}, {"/v1/explore", "BV", "", 1}}
		w.runs = 2
	}
	return w
}

// requestSeed is the seed every request of the set carries, derived from
// the workload seed (the service treats 0 as 1, so it is kept positive).
func requestSeed(seed int64) int64 {
	s := opSeed(seed, 0) & (1<<31 - 1)
	if s == 0 {
		s = 1
	}
	return s
}

// buildRequests expands the mix into the fixed request set.
func (w *serveWarm) buildRequests() ([]serveReq, error) {
	seed := requestSeed(w.seed)
	var reqs []serveReq
	for _, m := range w.mix {
		a, err := apps.ByName(m.app)
		if err != nil {
			return nil, err
		}
		r := serveReq{path: m.path, label: strings.TrimSpace(m.path + " " + m.backend)}
		var v any
		switch m.path {
		case "/v1/sweep":
			r.sweep = &serve.SweepRequest{ChainLengths: []int{w.chain}, Alphas: expt.ScalingAlphas, Runs: w.runs, Seed: seed, Backend: m.backend}
			r.sweep.App = m.app
			v = r.sweep
		case "/v1/evaluate":
			r.eval = &serve.EvaluateRequest{}
			r.eval.Workload, r.eval.ChainLength, r.eval.Runs, r.eval.Seed, r.eval.Backend = a.Spec, w.chain, w.runs, seed, m.backend
			v = r.eval
		default:
			r.expl = &serve.ExploreRequest{Spec: a.Spec, Seed: seed}
			v = r.expl
		}
		if r.body, err = json.Marshal(v); err != nil {
			return nil, err
		}
		for k := 0; k < m.repeat; k++ {
			reqs = append(reqs, r)
		}
	}
	return reqs, nil
}

// setup boots the server on a loopback listener, sends every request once
// cold and records the bodies, then runs one warm pass as the warm-up.
func (w *serveWarm) setup(seed int64) error {
	w.seed = seed
	reqs, err := w.buildRequests()
	if err != nil {
		return err
	}
	w.reqs = reqs
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = serve.New(serve.Options{Workers: 1})
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.done = make(chan error, 1)
	go func() { w.done <- w.hs.Serve(ln) }()
	w.base = "http://" + ln.Addr().String()
	w.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	for k := range w.reqs {
		resp, err := w.post(k)
		if err != nil {
			return err
		}
		if err := resp.ok(); err != nil {
			return err
		}
		w.reqs[k].want = resp.body
	}
	for k := range w.reqs {
		resp, err := w.post(k)
		if err != nil {
			return err
		}
		if err := w.checkResp(k, resp); err != nil {
			return err
		}
	}
	w.pass = -1
	w.snap0 = w.srv.MetricsSnapshot()
	return nil
}

func (w *serveWarm) passLen() int { return len(w.reqs) }

// reqIndex is the set index op i sends: pass i/len(set) visits the set in
// an order shuffled by that pass's seed.
func (w *serveWarm) reqIndex(i int) int {
	n := len(w.reqs)
	if p := i / n; p != w.pass {
		w.order = make([]int, n)
		for k := range w.order {
			w.order[k] = k
		}
		stats.Shuffle(stats.NewRand(opSeed(w.seed, p)), w.order)
		w.pass = p
	}
	return w.order[i%n]
}

// serveResp is one response as the client saw it.
type serveResp struct {
	req     int
	status  int
	skipped int
	body    []byte
}

func (r serveResp) ok() error {
	if r.status < 200 || r.status > 299 {
		return fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	if r.skipped != 0 {
		return fmt.Errorf("%d sweep cells skipped", r.skipped)
	}
	return nil
}

// post sends set request k and reads the whole response.
func (w *serveWarm) post(k int) (serveResp, error) {
	r := w.reqs[k]
	resp, err := w.client.Post(w.base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return serveResp{}, err
	}
	body, err := io.ReadAll(resp.Body)
	cerr := resp.Body.Close()
	if err == nil {
		err = cerr
	}
	if err != nil {
		return serveResp{}, err
	}
	out := serveResp{req: k, status: resp.StatusCode, body: body}
	if h := resp.Header.Get("X-Velociti-Skipped-Cells"); h != "" {
		if out.skipped, err = strconv.Atoi(h); err != nil {
			return serveResp{}, err
		}
	}
	return out, nil
}

func (w *serveWarm) op(i int) (any, error) { return w.post(w.reqIndex(i)) }

// check asserts a 2xx status, no skipped cells, and a body byte-identical
// to the request's cold set-up body.
func (w *serveWarm) check(i int, out any) ([]byte, error) {
	r := out.(serveResp)
	return r.body, w.checkResp(r.req, r)
}

func (w *serveWarm) checkResp(k int, r serveResp) error {
	if err := r.ok(); err != nil {
		return fmt.Errorf("%w: %s: %v", errCheck, w.reqs[k].path, err)
	}
	if !bytes.Equal(r.body, w.reqs[k].want) {
		return fmt.Errorf("%w: %s body differs from its cold set-up body", errCheck, w.reqs[k].path)
	}
	return nil
}

// replay sends op i's request under a serve.http span, then re-runs the
// handler's in-process work against the server's warm pipeline one public
// call at a time. The replay breaks the span down by layer; its rendered
// body must equal the response.
func (w *serveWarm) replay(i int, tr *tracer) (any, error) {
	k := w.reqIndex(i)
	tr.begin("serve.http")
	resp, err := w.post(k)
	tr.end()
	if err != nil {
		return nil, err
	}
	w.skipped += resp.skipped
	if err := resp.ok(); err != nil {
		return nil, err
	}
	r := w.reqs[k]
	tr.label(r.label)
	tr.beginReplay(tr.last("serve.http"))
	defer tr.end()
	var body []byte
	switch {
	case r.sweep != nil:
		body, err = w.replaySweep(tr, r.sweep)
	case r.eval != nil:
		body, err = w.replayEvaluate(tr, r.eval)
	default:
		body, err = w.replayExplore(tr, r.expl)
	}
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(body, resp.body) {
		return nil, fmt.Errorf("%w: in-process replay of %s differs from the response", errCheck, r.path)
	}
	return resp, nil
}

// priceTrials runs a warm config's trials: every Bind is a cache hit, and
// the backend's fold prices it.
func priceTrials(tr *tracer, cfg core.Config) ([]core.TrialResult, *ti.Device, circuit.Spec, error) {
	st, err := core.NewStages(cfg)
	if err != nil {
		return nil, nil, circuit.Spec{}, err
	}
	fold := "perf.fold"
	if _, weak := cfg.Backend.(perf.WeakLink); !weak {
		fold = "shuttle.transport"
	}
	trials := make([]core.TrialResult, cfg.Runs)
	for t := range trials {
		seed := stats.SplitSeed(cfg.Seed, t)
		tr.begin("core.cache")
		b, err := st.Bind(seed)
		tr.end()
		if err != nil {
			return nil, nil, circuit.Spec{}, err
		}
		tr.begin(fold)
		res, err := st.Time(b, cfg.Latencies)
		tr.end()
		if err != nil {
			return nil, nil, circuit.Spec{}, err
		}
		tr.count(fold, float64(b.NumGates()))
		trials[t] = core.TrialResult{Seed: seed, Perf: res}
	}
	return trials, st.Device(), st.Spec(), nil
}

func (w *serveWarm) replaySweep(tr *tracer, req *serve.SweepRequest) ([]byte, error) {
	a, err := apps.ByName(req.App)
	if err != nil {
		return nil, err
	}
	backend, err := shuttle.ByName(req.Backend, shuttle.Default())
	if err != nil {
		return nil, err
	}
	res := &core.GridResult{}
	for _, L := range req.ChainLengths {
		for _, alpha := range req.Alphas {
			lat := perf.DefaultLatencies()
			lat.WeakPenalty = alpha
			placer, err := schedule.ByName("random", lat)
			if err != nil {
				return nil, err
			}
			cfg := core.Config{Spec: a.Spec, ChainLength: L, Topology: ti.Ring, Latencies: lat, Placer: placer,
				Runs: req.Runs, Seed: req.Seed, Workers: 1, Pipeline: w.srv.Pipeline(), Backend: backend}
			trials, d, spec, err := priceTrials(tr, cfg)
			if err != nil {
				return nil, err
			}
			res.Cells = append(res.Cells, core.GridCell{Spec: a.Spec, ChainLength: L, Alpha: alpha, Placer: "random"})
			res.Reports = append(res.Reports, buildReport(tr, spec, d, trials))
		}
	}
	tr.begin("core.render")
	var buf bytes.Buffer
	err = res.WriteCSV(&buf)
	tr.end()
	tr.count("core.render", float64(buf.Len()))
	return buf.Bytes(), err
}

func (w *serveWarm) replayEvaluate(tr *tracer, req *serve.EvaluateRequest) ([]byte, error) {
	cfg, err := req.Params.ToCoreConfig()
	if err != nil {
		return nil, err
	}
	cfg.Workers = 1
	cfg.Pipeline = w.srv.Pipeline()
	trials, d, spec, err := priceTrials(tr, cfg)
	if err != nil {
		return nil, err
	}
	rep := buildReport(tr, spec, d, trials)
	tr.begin("core.render")
	body, err := encodeJSON(rep)
	tr.end()
	tr.count("core.render", float64(len(body)))
	return body, err
}

// replayExplore re-runs the explorer's plan-grouped evaluation: per
// (chain length, placer) plan, one BindAll per seed — all cache hits —
// then the fidelity estimates across the α lanes, reduced in grid order.
func (w *serveWarm) replayExplore(tr *tracer, req *serve.ExploreRequest) ([]byte, error) {
	tr.begin("dse.explore")
	defer tr.end()
	chains, alphas, placers, runs := []int{8, 16, 24, 32}, []float64{2.0, 1.5, 1.0}, []string{"random", "load-balanced"}, 10
	est, err := fidelity.NewEstimator(fidelity.Default())
	if err != nil {
		return nil, err
	}
	nA, nP := len(alphas), len(placers)
	points := make([]dse.Point, len(chains)*nA*nP)
	for li, L := range chains {
		for pi, name := range placers {
			lats := make([]perf.Latencies, nA)
			for ai, a := range alphas {
				lats[ai] = perf.DefaultLatencies()
				lats[ai].WeakPenalty = a
			}
			placer, err := schedule.ByName(name, lats[0])
			if err != nil {
				return nil, err
			}
			st, err := core.NewStages(core.Config{Spec: req.Spec, ChainLength: L, Latencies: lats[0], Placer: placer,
				Runs: runs, Seed: req.Seed, Pipeline: w.srv.Pipeline(), Backend: perf.WeakLink{}})
			if err != nil {
				return nil, err
			}
			par := make([]float64, nA)
			logs := make([]float64, nA)
			weak := make([]float64, nA)
			for ri := 0; ri < runs; ri++ {
				tr.begin("core.cache")
				bs, err := st.BindAll(stats.SplitSeed(req.Seed, ri), lats)
				tr.end()
				if err != nil {
					return nil, err
				}
				for a0 := 0; a0 < nA; {
					a1 := a0 + 1
					for a1 < nA && bs[a1] == bs[a0] {
						a1++
					}
					tr.begin("fidelity.estimate")
					ests, err := est.EstimateAll(bs[a0], lats[a0:a1])
					tr.end()
					if err != nil {
						return nil, err
					}
					for ai := a0; ai < a1; ai++ {
						par[ai] += ests[ai-a0].MakespanMicros
						logs[ai] += ests[ai-a0].LogTotal
						weak[ai] += float64(bs[a0].WeakGates())
					}
					a0 = a1
				}
			}
			n := float64(runs)
			for ai := range alphas {
				points[(li*nA+ai)*nP+pi] = dse.Point{ChainLength: L, Alpha: alphas[ai], Placer: name, Backend: perf.WeakLink{}.Name(),
					ParallelMicros: par[ai] / n, LogFidelity: logs[ai] / n, WeakGates: weak[ai] / n}
			}
		}
	}
	tr.begin("core.render")
	body, err := encodeJSON(dse.Response{Points: points, Pareto: dse.Pareto(points)})
	tr.end()
	tr.count("core.render", float64(len(body)))
	return body, err
}

// ledger reads the server's counters over the traced window: the bind
// cache's hit ratio, coalesced requests, and the server-side time a
// request spends outside its in-process work (admission queue, decode,
// write).
func (w *serveWarm) ledger(l *ledger) error {
	s := w.srv.MetricsSnapshot()
	b0, b1 := w.snap0.Cache.Bind, s.Cache.Bind
	if n := (b1.Hits - b0.Hits) + (b1.Misses - b0.Misses); n > 0 {
		l.set("core.cache.bind_hit_ratio", float64(b1.Hits-b0.Hits)/float64(n))
	}
	e0, e1 := w.snap0.Endpoints, s.Endpoints
	var reqs, coalesced, count, micros uint64
	for _, p := range [][2]serve.EndpointStats{{e0.Sweep, e1.Sweep}, {e0.Evaluate, e1.Evaluate}, {e0.Explore, e1.Explore}} {
		reqs += p[1].Requests - p[0].Requests
		coalesced += p[1].Coalesced - p[0].Coalesced
		count += p[1].LatencyCount - p[0].LatencyCount
		micros += p[1].LatencyMicros - p[0].LatencyMicros
	}
	if reqs > 0 {
		l.set("serve.coalesced_ratio", float64(coalesced)/float64(reqs))
	}
	if count > 0 && l.replays > 0 {
		inProcess := float64(l.replayTotal) / float64(l.replays) / 1e3
		l.set("serve.queue_wait_us", max(float64(micros)/float64(count)-inProcess, 0))
	}
	l.set("core.grid.skipped_cells", float64(w.skipped))
	return nil
}

// close shuts the server down and waits for its serve loop to return.
func (w *serveWarm) close() {
	if w.hs == nil {
		return
	}
	w.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.hs.Shutdown(ctx); err != nil {
		_ = w.hs.Close() // the drain timed out; drop the remaining connections
	}
	<-w.done // Serve has returned http.ErrServerClosed
	w.srv.Close()
	w.hs = nil
}
