package bench

import (
	"sort"

	"tiling3d/internal/core"
	"tiling3d/internal/stencil"
)

// Empirical validation of the cost model (Section 2.3): the model claims
// that among non-conflicting tiles, minimizing (TI+m)(TJ+n)/(TI*TJ)
// minimizes misses. ExhaustiveTileSearch simulates every candidate tile
// and reports the empirically best one next to the model's choice; the
// tests assert the model's pick is within a small margin of the best.

// TileCandidate is one simulated tile.
type TileCandidate struct {
	Tile core.Tile
	L1   float64
}

// ExhaustiveTileSearch simulates the kernel at size n under every
// trimmed frontier tile (plus the model's own pick), returning the
// candidates in deterministic (TI, TJ) order, the empirical best, and
// the cost model's choice. Candidates simulate concurrently on the
// batched engine.
func ExhaustiveTileSearch(k stencil.Kernel, n int, opt Options) (cands []TileCandidate, best, model TileCandidate) {
	st := k.Spec()
	cs := opt.CacheElems()
	tiles := map[core.Tile]bool{}
	for _, e := range core.Frontier(cs, n, n, st.Depth, 0) {
		t := core.ArrayTile{TI: e.TI, TJ: e.TJ, TK: st.Depth}.Trim(st)
		if t.Valid() {
			tiles[t] = true
		}
	}
	modelTile, ok := core.Euc3D(cs, n, n, st)
	if ok {
		tiles[modelTile] = true
	}
	order := make([]core.Tile, 0, len(tiles))
	for t := range tiles {
		order = append(order, t)
	}
	sort.Slice(order, func(a, b int) bool {
		if order[a].TI != order[b].TI {
			return order[a].TI < order[b].TI
		}
		return order[a].TJ < order[b].TJ
	})
	cands = make([]TileCandidate, len(order))
	forEachCtx(opt, len(order), func(i int) {
		t := order[i]
		plan := core.Plan{Tile: t, DI: n, DJ: n, Tiled: true}
		w := stencil.NewTraceWorkload(k, n, opt.K, plan)
		h := cacheHierarchy(opt)
		opt.warmMeasure(h, w.ReplayTrace)
		cands[i] = TileCandidate{Tile: t, L1: h.Level(0).Stats().MissRate()}
	})
	for i, c := range cands {
		if i == 0 || c.L1 < best.L1 {
			best = c
		}
		if c.Tile == modelTile {
			model = c
		}
	}
	return cands, best, model
}
