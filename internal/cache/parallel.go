package cache

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
)

// Parallel fan-out. Trace simulations of distinct (kernel, size, tile,
// cache-config) points are CPU-bound and fully independent — each owns
// its workload and its simulated caches — so the experiment harness
// parallelizes at point granularity. Results are written to
// caller-indexed slots, making output deterministic regardless of worker
// count or scheduling.
//
// Long sweeps additionally need to survive two failure modes that a
// plain worker pool turns into a dead process: a panic in any single
// point (which would kill the whole run) and an interrupt (which would
// discard every completed point). ForEachCtx therefore recovers
// per-index panics into structured PointErrors and stops dispatching new
// indices once its context is cancelled, letting in-flight points drain
// so the caller can emit partial results.

// DefaultWorkers returns the default fan-out width, GOMAXPROCS.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// PointError records a panic recovered from one parallel point: which
// index panicked, the recovered value, and the goroutine stack at the
// point of the panic. The sweep engine stores these alongside results so
// a bad point is reported instead of killing the run.
type PointError struct {
	// Index is the fan-out index whose function panicked.
	Index int
	// Cause is the recovered panic value.
	Cause any
	// Stack is the formatted goroutine stack captured at recovery.
	Stack string
}

// Error implements the error interface.
func (e *PointError) Error() string {
	return fmt.Sprintf("point %d panicked: %v", e.Index, e.Cause)
}

// ForEachCtx runs fn(0..n-1) on up to workers goroutines. workers <= 0
// means DefaultWorkers. fn must be safe to call concurrently for
// distinct indices.
//
// A panic in fn(i) is recovered into a PointError and the remaining
// indices still run; the returned slice is sorted by index. When ctx is
// cancelled no further indices are dispatched, every in-flight call
// finishes normally (draining), and the returned error is the context's
// error; a sweep that dispatched every index before cancellation
// returns nil.
func ForEachCtx(ctx context.Context, n, workers int, fn func(i int)) ([]*PointError, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	var (
		mu      sync.Mutex
		errs    []*PointError
		stopped atomic.Bool
	)
	call := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				pe := &PointError{Index: i, Cause: r, Stack: string(debug.Stack())}
				mu.Lock()
				errs = append(errs, pe)
				mu.Unlock()
			}
		}()
		fn(i)
	}
	done := ctx.Done()
	if workers <= 1 {
		for i := 0; i < n; i++ {
			select {
			case <-done:
				stopped.Store(true)
			default:
			}
			if stopped.Load() {
				break
			}
			call(i)
		}
	} else {
		var next int64 = -1
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						stopped.Store(true)
						return
					default:
					}
					i := int(atomic.AddInt64(&next, 1))
					if i >= n {
						return
					}
					call(i)
				}
			}()
		}
		wg.Wait()
	}
	sort.Slice(errs, func(a, b int) bool { return errs[a].Index < errs[b].Index })
	if stopped.Load() {
		return errs, ctx.Err()
	}
	return errs, nil
}

// ForEach runs fn(0..n-1) on up to workers goroutines with no
// cancellation. A panic in any fn is re-raised in the caller (as a
// *PointError carrying the original cause and stack) after the remaining
// indices finish, so a caller that does not isolate points still
// observes the failure deterministically.
func ForEach(n, workers int, fn func(i int)) {
	errs, _ := ForEachCtx(context.Background(), n, workers, fn)
	if len(errs) > 0 {
		panic(errs[0])
	}
}
