package stencil

import (
	"testing"

	"tiling3d/internal/cache"
	"tiling3d/internal/core"
)

func TestJacobiCopyTiledMatchesOrig(t *testing.T) {
	for _, n := range []int{5, 16, 23} {
		for _, tc := range tileCases {
			aOrig := testGrid(n, 9, n, n, 1)
			bOrig := testGrid(n, 9, n, n, 2)
			aCopy := aOrig.Clone()
			bCopy := bOrig.Clone()
			JacobiOrig(aOrig, bOrig, 1.0/6.0)
			JacobiCopyTiled(aCopy, bCopy, 1.0/6.0, tc.ti, tc.tj)
			if d := aOrig.MaxAbsDiff(aCopy); d != 0 {
				t.Errorf("n=%d tile=%v: JacobiCopyTiled differs by %g", n, tc, d)
			}
		}
	}
}

func TestJacobiCopyTiledPadded(t *testing.T) {
	n := 18
	ref := testGrid(n, 7, n, n, 1)
	bRef := testGrid(n, 7, n, n, 2)
	JacobiOrig(ref, bRef, 1.0/6.0)
	a := testGrid(n, 7, n+9, n+3, 1)
	b := testGrid(n, 7, n+9, n+3, 2)
	JacobiCopyTiled(a, b, 1.0/6.0, 5, 4)
	if d := ref.MaxAbsDiff(a); d != 0 {
		t.Errorf("padded copy-tiled Jacobi differs by %g", d)
	}
}

// TestCopyTraceAccounting checks the copy variant's extra traffic: the
// trace must contain the same compute accesses as the plain tiled walker
// plus one load and one store per staged buffer element.
func TestCopyTraceAccounting(t *testing.T) {
	n, depth, ti, tj := 20, 8, 6, 5
	w := NewWorkload(Jacobi, n, depth, planFor(n, ti, tj), DefaultCoeffs())
	var plain cache.NullMemory
	w.RunTrace(&plain)

	var withCopy cache.NullMemory
	jacobiCopyTiledTrace(w.Grids[0], w.Grids[1], &withCopy, ti, tj)

	if withCopy.LoadCount <= plain.LoadCount {
		t.Errorf("copy variant loads %d not above plain %d", withCopy.LoadCount, plain.LoadCount)
	}
	if withCopy.StoreCount <= plain.StoreCount {
		t.Errorf("copy variant stores %d not above plain %d", withCopy.StoreCount, plain.StoreCount)
	}
	// The overhead fraction is large for stencils: Section 3.1's claim.
	total := float64(withCopy.LoadCount + withCopy.StoreCount)
	compute := float64(plain.LoadCount + plain.StoreCount)
	overhead := (total - compute) / total
	if overhead < 0.10 {
		t.Errorf("copy overhead fraction %.3f suspiciously low", overhead)
	}
	predicted := CopyOverheadFraction(ti, tj)
	if overhead < predicted/2 || overhead > predicted*2 {
		t.Errorf("measured overhead %.3f far from predicted %.3f", overhead, predicted)
	}
}

func planFor(n, ti, tj int) core.Plan {
	return core.Plan{DI: n, DJ: n, Tiled: true, Tile: core.Tile{TI: ti, TJ: tj}}
}

func TestCopyOverheadFraction(t *testing.T) {
	// Larger tiles amortize the halo but the fraction stays material:
	// for a 30x14 tile it is about 1/5.
	f := CopyOverheadFraction(30, 14)
	if f < 0.15 || f > 0.30 {
		t.Errorf("CopyOverheadFraction(30,14) = %.3f", f)
	}
	if CopyOverheadFraction(4, 4) <= f {
		t.Error("small tiles should pay a larger copy fraction")
	}
}
