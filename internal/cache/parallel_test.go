package cache

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

func TestForEachCtxPanicIsolation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran int64
		perrs, err := ForEachCtx(context.Background(), 10, workers, func(i int) {
			if i == 3 || i == 7 {
				panic(i * 100)
			}
			atomic.AddInt64(&ran, 1)
		})
		if err != nil {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		if ran != 8 {
			t.Errorf("workers=%d: %d healthy points ran, want 8", workers, ran)
		}
		if len(perrs) != 2 || perrs[0].Index != 3 || perrs[1].Index != 7 {
			t.Fatalf("workers=%d: point errors %v", workers, perrs)
		}
		if perrs[0].Cause != 300 {
			t.Errorf("cause = %v, want 300", perrs[0].Cause)
		}
		if perrs[0].Stack == "" || !strings.Contains(perrs[0].Error(), "point 3 panicked") {
			t.Errorf("error detail missing: %q / stack %d bytes", perrs[0].Error(), len(perrs[0].Stack))
		}
	}
}

func TestForEachCtxCancelDrains(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran int64
		perrs, err := ForEachCtx(ctx, 1000, workers, func(i int) {
			if atomic.AddInt64(&ran, 1) == 5 {
				cancel()
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if len(perrs) != 0 {
			t.Errorf("workers=%d: spurious point errors %v", workers, perrs)
		}
		// In-flight calls drain; nothing new is dispatched after the
		// workers observe cancellation, so far fewer than n points run.
		if got := atomic.LoadInt64(&ran); got < 5 || got >= 1000 {
			t.Errorf("workers=%d: %d points ran after cancel at 5", workers, got)
		}
	}
}

func TestForEachCtxCompletedSweepIgnoresLateCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	perrs, err := ForEachCtx(ctx, 8, 2, func(i int) {})
	if err != nil || len(perrs) != 0 {
		t.Errorf("uncancelled sweep: perrs=%v err=%v", perrs, err)
	}
}

func TestForEachRepanics(t *testing.T) {
	defer func() {
		r := recover()
		pe, ok := r.(*PointError)
		if !ok || pe.Index != 2 {
			t.Errorf("recovered %v, want *PointError for index 2", r)
		}
	}()
	forEach(5, 2, func(i int) {
		if i == 2 {
			panic("boom")
		}
	})
	t.Error("forEach did not re-panic")
}
