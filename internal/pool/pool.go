// Package pool provides the bounded worker-pool runner behind VelociTI's
// trial loop (internal/core), which runs every sweep, exploration and
// experiment driver.
//
// The loop's jobs are n independent, CPU-bound (plan, trial) jobs whose
// results land in index-addressed slots. RunAll executes them across a
// bounded set of goroutines while keeping outputs deterministic — callers
// derive any randomness from the job index (stats.SplitSeed), so results
// are bit-identical at every worker count, a property the test suites pin.
//
// Jobs are panic-isolated: a panic inside fn is recovered and converted
// into a *PanicError carrying the offending index, the panic value, and
// the goroutine stack, so one crashing job cannot take down the process
// or silently strand sibling workers. RunAll collects one error per job,
// so callers can degrade gracefully on partial failure.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Package-level counters behind Stats. They are monotonic process-wide
// totals (the pool is a function API — there is no per-pool object to hang
// them on) and exist for observability surfaces like velociti-serve's
// /metrics endpoint; they never influence scheduling or results.
var (
	batchCount atomic.Uint64
	jobCount   atomic.Uint64
	panicCount atomic.Uint64
)

// Counters is a point-in-time snapshot of the pool's process-wide
// totals.
type Counters struct {
	// Batches counts RunAll invocations that had work to do.
	Batches uint64 `json:"batches"`
	// Jobs counts individual job executions across all batches.
	Jobs uint64 `json:"jobs"`
	// Panics counts jobs whose panic was recovered into a *PanicError.
	Panics uint64 `json:"panics"`
}

// Stats snapshots the counters.
func Stats() Counters {
	return Counters{
		Batches: batchCount.Load(),
		Jobs:    jobCount.Load(),
		Panics:  panicCount.Load(),
	}
}

// PanicError is the error produced when a job passed to RunAll panics. It records which job crashed, the recovered value, and the stack
// captured at the panic site, so the report points at the bug rather than
// at the pool machinery.
type PanicError struct {
	Index int    // job index whose fn panicked
	Value any    // the value passed to panic()
	Stack []byte // debug.Stack() captured inside the recovering goroutine
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("pool: job %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// safeCall runs fn(i), converting a panic into a *PanicError. The recover
// happens here — inside the same goroutine frame as the panic — so the
// captured stack includes the panic site.
func safeCall(fn func(i int) error, i int) (err error) {
	jobCount.Add(1)
	defer func() {
		if v := recover(); v != nil {
			panicCount.Add(1)
			err = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// RunAll executes fn(i) for every i in [0, n), using at most workers
// concurrent goroutines. workers is additionally bounded by n and by
// GOMAXPROCS (the jobs are CPU-bound; more goroutines only add scheduling
// noise); workers <= 1 runs everything inline on the calling goroutine.
//
// fn must write its result into an index-addressed slot rather than shared
// state; distinct indices never race. RunAll never stops early on job
// failure: every job runs, and the result is a per-index error slice (nil
// on success, the job's error or *PanicError otherwise), or nil when every
// job succeeded. So one bad job degrades into one failed slot, and a
// caller that wants a single error takes the first in index order — the
// same at every worker count.
//
// Context cancellation still short-circuits: jobs not yet started are
// marked with ctx.Err() and the slice is returned as soon as in-flight
// jobs drain. errs[i] depends only on fn(i), never on scheduling order.
func RunAll(ctx context.Context, workers, n int, fn func(i int) error) []error {
	if n <= 0 {
		return nil
	}
	batchCount.Add(1)
	errs := make([]error, n)
	any := false
	if workers > n {
		workers = n
	}
	if p := runtime.GOMAXPROCS(0); workers > p {
		workers = p
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				any = true
				continue
			}
			if err := safeCall(fn, i); err != nil {
				errs[i] = err
				any = true
			}
		}
		if any {
			return errs
		}
		return nil
	}

	var (
		next   atomic.Int64
		anyErr atomic.Bool
		wg     sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					anyErr.Store(true)
					continue
				}
				if err := safeCall(fn, i); err != nil {
					errs[i] = err
					anyErr.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if anyErr.Load() {
		return errs
	}
	return nil
}

// Workers resolves a worker-count knob: values above zero are returned
// as-is, anything else selects GOMAXPROCS. It is the conventional
// interpretation of a -workers=0 / "auto" flag.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}
