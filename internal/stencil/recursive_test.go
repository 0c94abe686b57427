package stencil

import (
	"testing"

	"tiling3d/internal/cache"
	"tiling3d/internal/core"
)

func TestJacobiRecursiveMatchesOrig(t *testing.T) {
	for _, n := range []int{5, 17, 30} {
		for _, leaf := range []int{1, 3, 8, 100} {
			aOrig := testGrid(n, 8, n, n, 1)
			bOrig := testGrid(n, 8, n, n, 2)
			aRec := aOrig.Clone()
			bRec := bOrig.Clone()
			JacobiOrig(aOrig, bOrig, 1.0/6.0)
			jacobiRecursive(aRec, bRec, 1.0/6.0, leaf)
			if d := aOrig.MaxAbsDiff(aRec); d != 0 {
				t.Errorf("n=%d leaf=%d: recursive Jacobi differs by %g", n, leaf, d)
			}
		}
	}
}

func TestJacobiRecursiveTraceCount(t *testing.T) {
	w := NewWorkload(Jacobi, 20, 8, planFor(20, 5, 5), DefaultCoeffs())
	var plain, rec cache.NullMemory
	Replay(Jacobi, core.Plan{}, w.Grids, cache.PerAccess{Mem: &plain})
	JacobiRecursiveTrace(w.Grids[0], w.Grids[1], &rec, 6)
	if plain.LoadCount != rec.LoadCount || plain.StoreCount != rec.StoreCount {
		t.Errorf("recursive trace counts differ: %d/%d vs %d/%d",
			rec.LoadCount, rec.StoreCount, plain.LoadCount, plain.StoreCount)
	}
}

// TestRecursiveCapturesReuseButNotConflicts is the related-work
// comparison: at a friendly size recursion rivals explicit tiling, but at
// a pathological size it inherits the conflict misses GcdPad's padding
// removes — recursion is cache-oblivious, not conflict-oblivious.
func TestRecursiveCapturesReuseButNotConflicts(t *testing.T) {
	sim := func(n, leaf int) float64 {
		w := NewWorkload(Jacobi, n, 10, planFor(n, 1, 1), DefaultCoeffs())
		h := cache.MustHierarchy(cache.UltraSparc2L1())
		trace := func() { JacobiRecursiveTrace(w.Grids[0], w.Grids[1], h, leaf) }
		trace()
		h.ResetStats()
		trace()
		return h.Level(0).Stats().MissRate()
	}
	simOrig := func(n int) float64 {
		w := NewWorkload(Jacobi, n, 10, planFor(n, 1, 1), DefaultCoeffs())
		w.Plan.Tiled = false
		h := cache.MustHierarchy(cache.UltraSparc2L1())
		w.RunTrace(h)
		h.ResetStats()
		w.RunTrace(h)
		return h.Level(0).Stats().MissRate()
	}
	// Friendly size: recursion recovers reuse vs the original sweep.
	if rec, orig := sim(300, 24), simOrig(300); rec >= orig {
		t.Errorf("N=300: recursive %.2f%% not below orig %.2f%%", rec, orig)
	}
	// Pathological size: the recursive blocks still self-conflict.
	recPath := sim(256, 24)
	if recPath < 30 {
		t.Errorf("N=256: recursive %.2f%% unexpectedly conflict-free; padding should still matter", recPath)
	}
}
