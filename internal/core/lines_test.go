package core

import (
	"testing"

	"tiling3d/internal/cache"
)

func TestSelfConflictsLinesBasics(t *testing.T) {
	// One contiguous segment never conflicts with itself.
	if selfConflictsLines(16<<10, 32, 8, 4096, 4096, 64, 1, 1) {
		t.Error("contiguous segment flagged")
	}
	// Two columns exactly one cache apart share every set.
	if !selfConflictsLines(16<<10, 32, 8, 2048, 2048, 8, 2, 1) {
		t.Error("cache-aligned columns not flagged")
	}
	// Element-granularity agreement on clearly separated tiles.
	if SelfConflicts(2048, 288, 272, 32, 16, 4) {
		t.Fatal("premise: GcdPad tile clean at element granularity")
	}
	if selfConflictsLines(16<<10, 32, 8, 288, 272, 32, 16, 4) {
		t.Error("GcdPad's power-of-two tile must stay clean at line granularity (line-aligned offsets)")
	}
}

func TestRefineForLinesPassThrough(t *testing.T) {
	st := Jacobi6pt()
	cfg := cache.UltraSparc2L1()
	// GcdPad plans are line-clean by construction (offsets are multiples
	// of TI >= one line).
	p := GcdPad(2048, 300, 300, st)
	got, clean := refineForLines(p, cfg, 8, st)
	if !clean || got.Tile != p.Tile {
		t.Errorf("GcdPad plan modified: %+v -> %+v (clean=%v)", p.Tile, got.Tile, clean)
	}
	// Untiled plans pass through untouched.
	orig := Plan{DI: 300, DJ: 300}
	if got, clean := refineForLines(orig, cfg, 8, st); !clean || got != orig {
		t.Error("untiled plan modified")
	}
}

func TestRefineForLinesShrinks(t *testing.T) {
	st := Jacobi6pt()
	cfg := cache.UltraSparc2L1()
	// Construct a tile that is element-clean but line-dirty: columns
	// separated by exactly TI elements where TI is not line-aligned, so
	// segment ends share sets. Search the paper's range for a case the
	// element model accepts and the line model rejects, then check the
	// refinement fixes it.
	found := false
	for d := 200; d <= 400 && !found; d++ {
		tile, ok := Euc3D(2048, d, d, st)
		if !ok {
			continue
		}
		plan := Plan{Tile: tile, DI: d, DJ: d, Tiled: true, Cost: Cost(tile, st)}
		at := ArrayTile{TI: tile.TI + st.TrimI, TJ: tile.TJ + st.TrimJ, TK: st.Depth}
		if SelfConflicts(2048, d, d, at.TI, at.TJ, at.TK) {
			continue // not even element-clean; Euc3D should prevent this
		}
		if !selfConflictsLines(cfg.SizeBytes, cfg.LineBytes, 8, d, d, at.TI, at.TJ, at.TK) {
			continue // line-clean too: nothing to refine
		}
		found = true
		got, clean := refineForLines(plan, cfg, 8, st)
		if clean {
			t.Errorf("d=%d: line-dirty plan reported clean", d)
		}
		if got.Tiled {
			at2 := ArrayTile{TI: got.Tile.TI + st.TrimI, TJ: got.Tile.TJ + st.TrimJ, TK: st.Depth}
			if selfConflictsLines(cfg.SizeBytes, cfg.LineBytes, 8, d, d, at2.TI, at2.TJ, at2.TK) {
				t.Errorf("d=%d: refined tile %v still line-dirty", d, got.Tile)
			}
			if got.Tile.TI > tile.TI || got.Tile.TJ > tile.TJ {
				t.Errorf("d=%d: refinement grew the tile", d)
			}
		}
	}
	if !found {
		t.Skip("no element-clean/line-dirty case in range; nothing to refine")
	}
}
