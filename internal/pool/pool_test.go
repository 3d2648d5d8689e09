package pool

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// The pool has one runner, RunAll. The TestRun* tests pin its scheduling
// and panic isolation, the TestRunAll* tests its per-index error slice.

func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		n := 100
		counts := make([]int32, n)
		errs := RunAll(context.Background(), workers, n, func(i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		})
		if errs != nil {
			t.Fatalf("workers=%d: %v", workers, errs)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	errs := RunAll(ctx, 4, 100_000, func(i int) error {
		if ran.Add(1) == 50 {
			cancel()
		}
		time.Sleep(10 * time.Microsecond)
		return nil
	})
	if errs == nil || !errors.Is(errs[len(errs)-1], context.Canceled) {
		t.Fatalf("last job's error = %v, want context.Canceled", errs)
	}
	if got := ran.Load(); got >= 100_000 {
		t.Fatalf("cancellation did not stop dispatch (ran %d)", got)
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	errs := RunAll(context.Background(), workers, 200, func(i int) error {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(50 * time.Microsecond)
		inFlight.Add(-1)
		return nil
	})
	if errs != nil {
		t.Fatal(errs)
	}
	limit := int64(workers)
	if p := int64(runtime.GOMAXPROCS(0)); p < limit {
		limit = p
	}
	if peak.Load() > limit {
		t.Fatalf("peak concurrency %d exceeds limit %d", peak.Load(), limit)
	}
}

func TestRunZeroJobs(t *testing.T) {
	if errs := RunAll(context.Background(), 8, 0, func(int) error { return errors.New("never") }); errs != nil {
		t.Fatal(errs)
	}
}

func TestWorkersKnob(t *testing.T) {
	if got := Workers(5); got != 5 {
		t.Fatalf("Workers(5) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-2); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-2) = %d, want GOMAXPROCS", got)
	}
}

func TestRunRecoversPanicsInline(t *testing.T) {
	// workers=1 exercises the inline path: a panic must come back as a
	// *PanicError, not crash the caller.
	errs := RunAll(context.Background(), 1, 5, func(i int) error {
		if i == 3 {
			panic("kaboom")
		}
		return nil
	})
	var pe *PanicError
	if errs == nil || !errors.As(errs[3], &pe) {
		t.Fatalf("errs = %v, want a *PanicError at index 3", errs)
	}
	if pe.Index != 3 || pe.Value != "kaboom" {
		t.Fatalf("PanicError = index %d value %v", pe.Index, pe.Value)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "pool_test") {
		t.Fatalf("stack should point at the panic site:\n%s", pe.Stack)
	}
	if !strings.Contains(pe.Error(), "job 3 panicked") {
		t.Fatalf("message = %q", pe.Error())
	}
}

func TestRunRecoversPanicsConcurrently(t *testing.T) {
	// A panicking job in a worker goroutine surfaces in its own slot while
	// every other job runs and its result lands untouched.
	for _, workers := range []int{2, 4, 8} {
		n := 64
		results := make([]int, n)
		errs := RunAll(context.Background(), workers, n, func(i int) error {
			if i == 10 {
				panic(fmt.Sprintf("job %d exploded", i))
			}
			results[i] = i * i
			return nil
		})
		var pe *PanicError
		if errs == nil || !errors.As(errs[10], &pe) {
			t.Fatalf("workers=%d: errs = %v, want a *PanicError at index 10", workers, errs)
		}
		if pe.Index != 10 {
			t.Fatalf("workers=%d: panic index = %d", workers, pe.Index)
		}
		for i, r := range results {
			if i != 10 && r != i*i {
				t.Fatalf("workers=%d: job %d result = %d, want %d", workers, i, r, i*i)
			}
		}
	}
}

func TestRunAllCollectsPerIndexErrors(t *testing.T) {
	for _, workers := range []int{1, 4} {
		n := 20
		results := make([]int, n)
		errs := RunAll(context.Background(), workers, n, func(i int) error {
			switch i {
			case 4:
				return fmt.Errorf("job %d failed", i)
			case 11:
				panic("job 11 blew up")
			}
			results[i] = 1
			return nil
		})
		if errs == nil {
			t.Fatalf("workers=%d: want non-nil error slice", workers)
		}
		if len(errs) != n {
			t.Fatalf("workers=%d: len(errs) = %d", workers, len(errs))
		}
		for i := 0; i < n; i++ {
			switch i {
			case 4:
				if errs[i] == nil || errs[i].Error() != "job 4 failed" {
					t.Fatalf("workers=%d: errs[4] = %v", workers, errs[4])
				}
			case 11:
				var pe *PanicError
				if !errors.As(errs[i], &pe) || pe.Index != 11 {
					t.Fatalf("workers=%d: errs[11] = %v", workers, errs[11])
				}
			default:
				if errs[i] != nil {
					t.Fatalf("workers=%d: errs[%d] = %v", workers, i, errs[i])
				}
				if results[i] != 1 {
					t.Fatalf("workers=%d: job %d skipped", workers, i)
				}
			}
		}
	}
}

func TestRunAllNilOnSuccess(t *testing.T) {
	for _, workers := range []int{1, 4} {
		if errs := RunAll(context.Background(), workers, 50, func(int) error { return nil }); errs != nil {
			t.Fatalf("workers=%d: errs = %v, want nil", workers, errs)
		}
	}
	if errs := RunAll(context.Background(), 4, 0, func(int) error { return errors.New("never") }); errs != nil {
		t.Fatalf("zero jobs: errs = %v", errs)
	}
}

func TestRunAllDeterministicAcrossWorkerCounts(t *testing.T) {
	// errs[i] must depend only on fn(i), never on scheduling.
	shape := func(workers int) []string {
		errs := RunAll(context.Background(), workers, 40, func(i int) error {
			if i%7 == 3 {
				return fmt.Errorf("mod7 %d", i)
			}
			if i == 25 {
				panic("deterministic panic")
			}
			return nil
		})
		out := make([]string, len(errs))
		for i, e := range errs {
			if e == nil {
				continue
			}
			var pe *PanicError
			if errors.As(e, &pe) {
				out[i] = fmt.Sprintf("panic@%d:%v", pe.Index, pe.Value)
			} else {
				out[i] = e.Error()
			}
		}
		return out
	}
	want := shape(1)
	for _, workers := range []int{2, 4, 8} {
		got := shape(workers)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: error shape diverged:\n%v\nvs\n%v", workers, got, want)
		}
	}
}

func TestRunAllCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		errs := RunAll(ctx, workers, 5, func(int) error { return nil })
		if errs == nil {
			t.Fatalf("workers=%d: cancelled context should mark jobs", workers)
		}
		for i, e := range errs {
			if !errors.Is(e, context.Canceled) {
				t.Fatalf("workers=%d: errs[%d] = %v", workers, i, e)
			}
		}
	}
}

func TestRunCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		RunAll(ctx, workers, 10, func(int) error {
			ran.Add(1)
			return nil
		})
		if ran.Load() != 0 {
			t.Fatalf("workers=%d: ran %d jobs under a dead context", workers, ran.Load())
		}
	}
}
