package stencil

// Equivalence tests: every transformed variant must compute exactly what
// the original nest computes — bit-identical results, since tiling and
// fusion only reorder whole point updates and red-black's skewed tiles
// preserve the red-before-black dependence order (Section 2, Figure 12).

import (
	"testing"

	"tiling3d/internal/core"
	"tiling3d/internal/grid"
)

func testGrid(n, k, di, dj int, seed float64) *grid.Grid3D {
	g := grid.Must3DPadded(n, n, k, di, dj)
	g.FillFunc(func(i, j, kk int) float64 {
		return seed + float64(i)*0.25 + float64(j)*0.5 - float64(kk)*0.125
	})
	return g
}

var tileCases = []struct{ ti, tj int }{
	{1, 1}, {2, 3}, {4, 4}, {5, 7}, {16, 16}, {13, 2}, {100, 100},
}

func TestJacobiTiledMatchesOrig(t *testing.T) {
	for _, n := range []int{4, 5, 17, 24} {
		for _, tc := range tileCases {
			aOrig := testGrid(n, 8, n, n, 1)
			bOrig := testGrid(n, 8, n, n, 2)
			aTiled := aOrig.Clone()
			bTiled := bOrig.Clone()
			JacobiOrig(aOrig, bOrig, 1.0/6.0)
			JacobiTiled(aTiled, bTiled, 1.0/6.0, tc.ti, tc.tj)
			if d := aOrig.MaxAbsDiff(aTiled); d != 0 {
				t.Errorf("n=%d tile=%v: JacobiTiled differs from JacobiOrig by %g", n, tc, d)
			}
		}
	}
}

func TestJacobiTiledMatchesOrigPadded(t *testing.T) {
	// Padding must not change results, only addresses.
	n := 20
	aRef := testGrid(n, 6, n, n, 1)
	bRef := testGrid(n, 6, n, n, 2)
	JacobiOrig(aRef, bRef, 1.0/6.0)

	aPad := grid.Must3DPadded(n, n, 6, n+13, n+5)
	bPad := grid.Must3DPadded(n, n, 6, n+13, n+5)
	aPad.CopyLogical(testGrid(n, 6, n, n, 1))
	bPad.CopyLogical(testGrid(n, 6, n, n, 2))
	JacobiTiled(aPad, bPad, 1.0/6.0, 6, 9)
	if d := aRef.MaxAbsDiff(aPad); d != 0 {
		t.Errorf("padded tiled Jacobi differs from original by %g", d)
	}
}

func TestJacobiTiled3LoopMatchesOrig(t *testing.T) {
	for _, n := range []int{5, 17} {
		for _, tk := range []int{1, 2, 5, 100} {
			for _, tc := range tileCases[:4] {
				aOrig := testGrid(n, 9, n, n, 1)
				bOrig := testGrid(n, 9, n, n, 2)
				aTiled := aOrig.Clone()
				bTiled := bOrig.Clone()
				JacobiOrig(aOrig, bOrig, 1.0/6.0)
				jacobiTiled3Loop(aTiled, bTiled, 1.0/6.0, tc.ti, tc.tj, tk)
				if d := aOrig.MaxAbsDiff(aTiled); d != 0 {
					t.Errorf("n=%d tile=(%d,%d,%d): 3-loop tiling differs by %g", n, tc.ti, tc.tj, tk, d)
				}
			}
		}
	}
}

func TestRedBlackFusedMatchesNaive(t *testing.T) {
	for _, n := range []int{4, 5, 16, 23} {
		for _, k := range []int{4, 5, 9} {
			ref := testGrid(n, k, n, n, 3)
			fused := ref.Clone()
			RedBlackNaive(ref, -0.15, 1.15/6)
			redBlackFused(fused, -0.15, 1.15/6)
			if d := ref.MaxAbsDiff(fused); d != 0 {
				t.Errorf("n=%d k=%d: redBlackFused differs from naive by %g", n, k, d)
			}
		}
	}
}

func TestRedBlackTiledMatchesNaive(t *testing.T) {
	for _, n := range []int{4, 5, 16, 23} {
		for _, tc := range tileCases {
			ref := testGrid(n, 7, n, n, 3)
			tiled := ref.Clone()
			RedBlackNaive(ref, -0.15, 1.15/6)
			RedBlackTiled(tiled, -0.15, 1.15/6, tc.ti, tc.tj)
			if d := ref.MaxAbsDiff(tiled); d != 0 {
				t.Errorf("n=%d tile=%v: RedBlackTiled differs from naive by %g", n, tc, d)
			}
		}
	}
}

func TestRedBlackMultiSweepEquivalence(t *testing.T) {
	// The equivalence must compose across sweeps (the outer time loop).
	n := 14
	ref := testGrid(n, 6, n, n, 4)
	tiled := ref.Clone()
	for s := 0; s < 5; s++ {
		RedBlackNaive(ref, -0.15, 1.15/6)
		RedBlackTiled(tiled, -0.15, 1.15/6, 5, 3)
	}
	if d := ref.MaxAbsDiff(tiled); d != 0 {
		t.Errorf("5-sweep tiled red-black differs from naive by %g", d)
	}
}

func TestResidTiledMatchesOrig(t *testing.T) {
	a := [4]float64{-8.0 / 3, 0.5, 1.0 / 6, 1.0 / 12}
	for _, n := range []int{4, 5, 18, 25} {
		for _, tc := range tileCases {
			u := testGrid(n, 8, n, n, 1)
			v := testGrid(n, 8, n, n, 2)
			rOrig := testGrid(n, 8, n, n, 0)
			rTiled := rOrig.Clone()
			ResidOrig(rOrig, v, u, a)
			ResidTiled(rTiled, v, u, a, tc.ti, tc.tj)
			if d := rOrig.MaxAbsDiff(rTiled); d != 0 {
				t.Errorf("n=%d tile=%v: ResidTiled differs from orig by %g", n, tc, d)
			}
		}
	}
}

func TestWorkloadVariantsAgree(t *testing.T) {
	// End-to-end: for every kernel and method, the workload built from the
	// selected plan computes the same logical values as the original.
	const cs = 256 // small cache so tiles are small relative to N
	for _, k := range Kernels() {
		orig := NewWorkload(k, 24, 8, core.Select(core.Orig, cs, 24, 24, k.Spec()), DefaultCoeffs())
		orig.RunNative()
		for _, m := range core.AllMethods()[1:] {
			plan := core.Select(m, cs, 24, 24, k.Spec())
			w := NewWorkload(k, 24, 8, plan, DefaultCoeffs())
			w.RunNative()
			if d := w.Grids[0].MaxAbsDiff(orig.Grids[0]); d != 0 {
				t.Errorf("%v/%v: result differs from Orig by %g (plan %+v)", k, m, d, plan)
			}
		}
	}
}
