package stencil

import (
	"testing"

	"tiling3d/internal/core"
)

func TestWorkloadAccounting(t *testing.T) {
	plan := core.Plan{DI: 25, DJ: 22, Tiled: true, Tile: core.Tile{TI: 4, TJ: 4}}
	w := NewWorkload(Resid, 20, 10, plan, DefaultCoeffs())
	if got, want := w.InteriorPoints(), int64(18*18*8); got != want {
		t.Errorf("InteriorPoints = %d, want %d", got, want)
	}
	if got, want := w.Flops(), int64(18*18*8*34); got != want {
		t.Errorf("Flops = %d, want %d", got, want)
	}
	if got, want := w.AccessCount(), int64(18*18*8*29); got != want {
		t.Errorf("AccessCount = %d, want %d", got, want)
	}
	if len(w.Grids) != 3 {
		t.Errorf("RESID workload has %d grids", len(w.Grids))
	}
	// Grids must not overlap in the arena.
	for i := 1; i < len(w.Grids); i++ {
		prevEnd := w.Grids[i-1].Base() + int64(w.Grids[i-1].Elems())
		if w.Grids[i].Base() < prevEnd {
			t.Errorf("grid %d overlaps grid %d", i, i-1)
		}
	}
}

func TestWorkloadPlacedGaps(t *testing.T) {
	plan := core.Plan{DI: 10, DJ: 10}
	w := NewWorkloadPlaced(Resid, 10, 6, plan, DefaultCoeffs(), []int{5, 7, 11})
	if w.Grids[0].Base() != 5 {
		t.Errorf("first base = %d, want 5", w.Grids[0].Base())
	}
	want := int64(5 + 600 + 7)
	if w.Grids[1].Base() != want {
		t.Errorf("second base = %d, want %d", w.Grids[1].Base(), want)
	}
}

func TestWorkloadRejectsBadPlan(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("undersized plan dims not rejected")
		}
	}()
	NewWorkload(Jacobi, 20, 8, core.Plan{DI: 10, DJ: 20}, DefaultCoeffs())
}

func TestKernelMetadata(t *testing.T) {
	for _, k := range Kernels() {
		if k.FlopsPerPoint() <= 0 || k.Accesses() <= 0 || k.Arrays() <= 0 {
			t.Errorf("%v: bad metadata", k)
		}
		if k.Accesses() <= k.FlopsPerPoint()/6 {
			t.Errorf("%v: accesses %d implausible vs flops %d", k, k.Accesses(), k.FlopsPerPoint())
		}
	}
	if _, err := ParseKernel("JaCoBi"); err != nil {
		t.Error("case-insensitive parse failed")
	}
	if _, err := ParseKernel("nope"); err == nil {
		t.Error("unknown kernel accepted")
	}
	if Jacobi.String() != "JACOBI" || RedBlack.String() != "REDBLACK" || Resid.String() != "RESID" {
		t.Error("kernel names changed")
	}
	if Jacobi.Spec() != (core.Stencil{TrimI: 2, TrimJ: 2, Depth: 3}) {
		t.Error("jacobi spec changed")
	}
	if RedBlack.Spec().Depth != 4 {
		t.Error("red-black fused depth must be 4")
	}
}

func TestWorkloadInitNoDenormals(t *testing.T) {
	w := NewWorkload(Jacobi, 12, 6, core.Plan{DI: 12, DJ: 12}, DefaultCoeffs())
	for _, g := range w.Grids {
		for k := 0; k < g.NK; k++ {
			for j := 0; j < g.NJ; j++ {
				for i := 0; i < g.NI; i++ {
					v := g.At(i, j, k)
					if v == 0 || (v < 1e-300 && v > -1e-300) {
						t.Fatalf("element (%d,%d,%d) = %g", i, j, k, v)
					}
				}
			}
		}
	}
}
