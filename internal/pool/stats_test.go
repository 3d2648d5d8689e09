package pool

import (
	"context"
	"errors"
	"testing"
)

// The process-wide counters are monotonic totals, so tests assert deltas.
func TestStatsCounters(t *testing.T) {
	before := Stats()
	if errs := RunAll(context.Background(), 4, 10, func(i int) error { return nil }); errs != nil {
		t.Fatal(errs)
	}
	errs := RunAll(context.Background(), 2, 3, func(i int) error {
		if i == 1 {
			panic("boom")
		}
		return nil
	})
	var pe *PanicError
	if errs == nil || !errors.As(errs[1], &pe) {
		t.Fatalf("errs = %v, want PanicError at index 1", errs)
	}
	after := Stats()
	if got := after.Batches - before.Batches; got != 2 {
		t.Errorf("batches delta = %d, want 2", got)
	}
	if got := after.Jobs - before.Jobs; got != 13 {
		t.Errorf("jobs delta = %d, want 13", got)
	}
	if got := after.Panics - before.Panics; got != 1 {
		t.Errorf("panics delta = %d, want 1", got)
	}
}
