package core

// Related-work algorithms the paper positions itself against (Section 5),
// implemented for the ablation benchmarks.

// esseghir computes the "tall tile" of Esseghir's thesis: the maximum
// number of whole array columns that fit in cache, with no attention to
// conflicts. For 3D stencils the tile must span the array tile depth, so
// TJ = C_s / (DI * Depth) columns of height DI.
func esseghir(cs, di int, st Stencil) Plan {
	st.validate()
	tj := cs / (di * st.Depth)
	ti := di
	if tj < 1 {
		// Even one full column exceeds cache: fall back to a partial
		// column, the thesis's degenerate case.
		tj = 1
		ti = cs / st.Depth
		if ti < 1 {
			ti = 1
		}
	}
	t := ArrayTile{TI: ti, TJ: tj, TK: st.Depth}.Trim(st)
	if !t.Valid() {
		t = Tile{TI: 1, TJ: 1}
	}
	return Plan{Tile: t, Tiled: true, Cost: Cost(t, st)}
}

// PandaPad implements the padding scheme of Panda, Nakamura, Dutt and
// Nicolau (IEEE ToC 1999) as the paper describes it: pick the largest
// cost-optimal tile that fits in cache, then increment the array pads by
// one, exhaustively re-testing the tile for conflicts, until it is
// conflict-free. It returns the plan and the number of conflict tests
// performed — the cost the paper's direct-construction algorithms avoid
// ("our algorithm is more efficient because we generate non-conflicting
// tile sizes directly for different pads").
func PandaPad(cs, di, dj int, st Stencil) (Plan, int) {
	st.validate()
	p := SquareTile(cs, st)
	at := ArrayTile{TI: p.Tile.TI + st.TrimI, TJ: p.Tile.TJ + st.TrimJ, TK: st.Depth}
	tests := 0
	pi, pj := 0, 0
	// Alternate which dimension grows, as the exhaustive search would,
	// bounded by the array tile extents (beyond one full period the
	// mapping repeats).
	for bound := 2 * (at.TI + at.TJ) * 4; pi+pj <= bound; {
		tests++
		if !SelfConflicts(cs, di+pi, dj+pj, at.TI, at.TJ, at.TK) {
			return Plan{Tile: p.Tile, DI: di + pi, DJ: dj + pj, Tiled: true, Cost: p.Cost}, tests
		}
		if pi <= pj {
			pi++
		} else {
			pj++
		}
	}
	// No conflict-free padding found for this tile within the search
	// bound; shrink the tile and retry, as the exhaustive scheme must.
	smaller := st
	shrunk := Tile{TI: p.Tile.TI / 2, TJ: p.Tile.TJ / 2}
	if !shrunk.Valid() {
		return Plan{Tile: Tile{TI: 1, TJ: 1}, DI: di, DJ: dj, Tiled: true, Cost: Cost(Tile{TI: 1, TJ: 1}, st)}, tests
	}
	sub, t2 := pandaPadWithTile(cs, di, dj, smaller, shrunk)
	return sub, tests + t2
}

func pandaPadWithTile(cs, di, dj int, st Stencil, tile Tile) (Plan, int) {
	at := ArrayTile{TI: tile.TI + st.TrimI, TJ: tile.TJ + st.TrimJ, TK: st.Depth}
	tests := 0
	pi, pj := 0, 0
	for bound := 2 * (at.TI + at.TJ) * 4; pi+pj <= bound; {
		tests++
		if !SelfConflicts(cs, di+pi, dj+pj, at.TI, at.TJ, at.TK) {
			return Plan{Tile: tile, DI: di + pi, DJ: dj + pj, Tiled: true, Cost: Cost(tile, st)}, tests
		}
		if pi <= pj {
			pi++
		} else {
			pj++
		}
	}
	return Plan{Tile: Tile{TI: 1, TJ: 1}, DI: di, DJ: dj, Tiled: true, Cost: Cost(Tile{TI: 1, TJ: 1}, st)}, tests
}
