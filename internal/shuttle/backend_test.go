package shuttle

import (
	"testing"

	"velociti/internal/circuit"
	"velociti/internal/perf"
	"velociti/internal/ti"
	"velociti/internal/verr"
)

// TestBreakEvenAlphaRejectsZeroGamma pins the division-by-γ regression:
// a zero or negative 2-qubit latency used to produce ±Inf/NaN break-even
// values; it must now be a typed input error before any division runs.
func TestBreakEvenAlphaRejectsZeroGamma(t *testing.T) {
	p := Default()
	for _, gamma := range []float64{0, -100} {
		lat := perf.DefaultLatencies()
		lat.TwoQubit = gamma
		v, err := p.BreakEvenAlpha(lat)
		if err == nil {
			t.Fatalf("γ=%g: BreakEvenAlpha = %v, want error", gamma, v)
		}
		if !verr.IsInput(err) {
			t.Fatalf("γ=%g: error should be input-kind, got %v", gamma, err)
		}
	}
	// Bad transport costs are rejected too, before the latency check.
	if _, err := (Params{SplitMicros: -1}).BreakEvenAlpha(perf.DefaultLatencies()); err == nil {
		t.Fatal("negative costs should fail")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"", "weaklink"} {
		be, err := ByName(name, Default())
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if _, ok := be.(perf.WeakLink); !ok {
			t.Fatalf("ByName(%q) = %T, want perf.WeakLink", name, be)
		}
	}
	be, err := ByName("shuttle", Default())
	if err != nil {
		t.Fatal(err)
	}
	if sb, ok := be.(Backend); !ok || sb.Params != Default() {
		t.Fatalf("ByName(shuttle) = %#v", be)
	}
	if _, err := ByName("shuttle", Params{SplitMicros: -1}); err == nil {
		t.Fatal("shuttle with bad params should fail")
	}
	_, err = ByName("bogus", Default())
	if err == nil {
		t.Fatal("unknown backend should fail")
	}
	if !verr.IsInput(err) {
		t.Fatalf("unknown-backend error should be input-kind, got %v", err)
	}
}

// TestBackendCacheKeys: the cache key must separate the weak-link model,
// the default shuttle pricing, and any altered shuttle pricing — bindings
// prepared under one must never be reused under another.
func TestBackendCacheKeys(t *testing.T) {
	def := Backend{Params: Default()}
	alt := Backend{Params: Params{SplitMicros: 1, MovePerHopMicros: 2, MergeMicros: 3, RecoolMicros: 4}}
	keys := map[string]string{
		"weaklink":    perf.WeakLink{}.CacheKey(),
		"shuttle-def": def.CacheKey(),
		"shuttle-alt": alt.CacheKey(),
	}
	seen := map[string]string{}
	for name, k := range keys {
		if k == "" {
			t.Errorf("%s: empty cache key", name)
		}
		if prior, dup := seen[k]; dup {
			t.Errorf("cache key collision between %s and %s: %q", prior, name, k)
		}
		seen[k] = name
	}
	if def.Name() != "shuttle" {
		t.Errorf("backend name = %q", def.Name())
	}
}

// TestGateLatencyDisconnected: pricing a weak gate across disconnected
// chains is an input error, not a finite cost.
func TestGateLatencyDisconnected(t *testing.T) {
	d, err := ti.NewDeviceLinks(2, 3, []ti.WeakLink{
		{A: ti.Port{Chain: 0, Side: ti.Right}, B: ti.Port{Chain: 1, Side: ti.Left}},
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := ti.NewLayout(d, [][]int{{0, 1}, {2, 3}, {4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	c := circuit.New("disc", 6)
	c.CX(0, 4) // chain 0 ↔ chain 2: no path
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	_, err = Compare(c, l, perf.DefaultLatencies(), Default())
	if err == nil {
		t.Fatal("Compare over a disconnected gate should fail")
	}
	if !verr.IsInput(err) {
		t.Fatalf("error should be input-kind, got %v", err)
	}
}
