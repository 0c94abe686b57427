package core

import "testing"

func TestEsseghirTallTiles(t *testing.T) {
	st := Jacobi6pt()
	// 2048-element cache, 100-column array, depth 3: 2048/(100*3) = 6
	// whole columns.
	p := esseghir(2048, 100, st)
	if p.Tile.TJ != 6-st.TrimJ || p.Tile.TI != 100-st.TrimI {
		t.Errorf("esseghir(2048, 100) = %v, want tall tile (98, 4)", p.Tile)
	}
	// Column larger than cache/depth: degenerate partial column.
	p = esseghir(2048, 4000, st)
	if p.Tile.TJ > 1 || !p.Tile.Valid() {
		t.Errorf("degenerate Esseghir = %v", p.Tile)
	}
}

func TestPandaPadFindsConflictFreePadding(t *testing.T) {
	st := Jacobi6pt()
	for _, d := range []int{200, 256, 341} {
		p, tests := PandaPad(2048, d, d, st)
		if !p.Tiled || !p.Tile.Valid() {
			t.Fatalf("d=%d: PandaPad plan %+v", d, p)
		}
		at := ArrayTile{TI: p.Tile.TI + st.TrimI, TJ: p.Tile.TJ + st.TrimJ, TK: st.Depth}
		if SelfConflicts(2048, p.DI, p.DJ, at.TI, at.TJ, at.TK) {
			t.Errorf("d=%d: PandaPad result still conflicts (%+v)", d, p)
		}
		if tests < 1 {
			t.Errorf("d=%d: no conflict tests recorded", d)
		}
		// The exhaustive scheme performs many conflict tests where
		// GcdPad performs none — the efficiency argument of Section 5.
		if d == 256 && tests < 5 {
			t.Errorf("d=256 (pathological): expected many tests, got %d", tests)
		}
	}
}

func TestPandaPadVsGcdPadPadding(t *testing.T) {
	st := Jacobi6pt()
	// Both must produce conflict-free plans; amounts may differ.
	for d := 200; d <= 260; d += 20 {
		pp, _ := PandaPad(2048, d, d, st)
		gp := GcdPad(2048, d, d, st)
		if pp.DI < d || gp.DI < d {
			t.Errorf("d=%d: padding shrank a dimension: panda %d, gcd %d", d, pp.DI, gp.DI)
		}
	}
}
