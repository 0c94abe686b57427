package grid

import (
	"testing"
	"testing/quick"
)

func TestColumnMajorLayout(t *testing.T) {
	g := New3D(4, 5, 6)
	if g.Index(1, 0, 0) != 1 {
		t.Error("I is not the fastest dimension")
	}
	if g.Index(0, 1, 0) != 4 {
		t.Error("J stride != DI")
	}
	if g.Index(0, 0, 1) != 20 {
		t.Error("K stride != DI*DJ")
	}
	// Bijective over the allocated extent.
	seen := make([]bool, g.Elems())
	for k := 0; k < g.NK; k++ {
		for j := 0; j < g.NJ; j++ {
			for i := 0; i < g.DI; i++ {
				idx := g.Index(i, j, k)
				if seen[idx] {
					t.Fatalf("index collision at (%d,%d,%d)", i, j, k)
				}
				seen[idx] = true
			}
		}
	}
}

func TestPaddedLayout(t *testing.T) {
	g := Must3DPadded(4, 5, 6, 7, 9)
	if g.Index(0, 1, 0) != 7 {
		t.Error("padded J stride != DI")
	}
	if g.Index(0, 0, 1) != 63 {
		t.Error("padded K stride != DI*DJ")
	}
	if g.Elems() != 7*9*6 {
		t.Errorf("Elems = %d", g.Elems())
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	g := Must3DPadded(3, 4, 5, 6, 7)
	g.Set(2, 3, 4, 42)
	if g.At(2, 3, 4) != 42 {
		t.Error("Set/At mismatch")
	}
	if g.Data[g.Index(2, 3, 4)] != 42 {
		t.Error("flat index mismatch")
	}
}

func TestFillFuncSkipsPadding(t *testing.T) {
	g := Must3DPadded(2, 2, 2, 4, 4)
	g.Fill(-1)
	g.FillFunc(func(i, j, k int) float64 { return 1 })
	if g.At(0, 0, 0) != 1 || g.At(1, 1, 1) != 1 {
		t.Error("logical elements not filled")
	}
	if g.Data[g.Index(3, 3, 1)] != -1 {
		t.Error("padding overwritten")
	}
}

func TestCopyLogicalAcrossPaddings(t *testing.T) {
	src := New3D(5, 5, 5)
	src.FillFunc(func(i, j, k int) float64 { return float64(i + 10*j + 100*k) })
	dst := Must3DPadded(5, 5, 5, 9, 11)
	dst.CopyLogical(src)
	if d := dst.MaxAbsDiff(src); d != 0 {
		t.Errorf("CopyLogical lost data: diff %g", d)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New3D(3, 3, 3)
	g.Fill(1)
	c := g.Clone()
	c.Set(1, 1, 1, 99)
	if g.At(1, 1, 1) != 1 {
		t.Error("Clone shares storage")
	}
}

func TestArenaPlacement(t *testing.T) {
	a := NewArena()
	g1 := a.Place(New3D(4, 4, 4))
	a.Gap(100)
	g2 := a.Place(New3D(4, 4, 4))
	if g1.Base() != 0 {
		t.Errorf("first grid base = %d", g1.Base())
	}
	if g2.Base() != 64+100 {
		t.Errorf("second grid base = %d, want 164", g2.Base())
	}
	// Address ranges must not overlap.
	if g2.Addr(0, 0, 0) < g1.Addr(3, 3, 3) {
		t.Error("grids overlap")
	}
}

func TestAddrQuick(t *testing.T) {
	a := NewArena()
	a.Gap(17)
	g := a.Place(Must3DPadded(6, 7, 8, 9, 10))
	f := func(i, j, k uint8) bool {
		ii, jj, kk := int(i)%6, int(j)%7, int(k)%8
		return g.Addr(ii, jj, kk) == 17+int64(ii+9*jj+90*kk)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGrid2D(t *testing.T) {
	g := Must2DPadded(4, 5, 6)
	if g.Elems() != 30 {
		t.Errorf("2D Elems = %d", g.Elems())
	}
}

func TestPanicsOnBadShapes(t *testing.T) {
	for _, f := range []func(){
		func() { New3D(0, 1, 1) },
		func() { Must3DPadded(4, 4, 4, 3, 4) },
		func() { Must2DPadded(4, 4, 3) },
		func() { New3D(5, 5, 5).CopyLogical(New3D(4, 5, 5)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
