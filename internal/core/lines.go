package core

// Line-granularity refinement: the paper's algorithms work in elements
// (two tile pieces conflict only when congruent mod C_s), which is exact
// for unit-line caches and a very good approximation otherwise — but a
// tile that is element-wise conflict-free can still collide at line
// granularity when two column segments from different columns occupy
// the same cache set through partial lines at their ends. refineForLines
// checks a selected plan against the real line geometry and, if needed,
// shrinks the tile until it is conflict-free there too.

import "tiling3d/internal/cache"

// refineForLines validates plan's array tile at line granularity for the
// given cache geometry and element size, shrinking TI and then TJ (the
// cost model prefers losing the longer dimension's excess first) until
// the tile is conflict-free. Untiled plans pass through. The boolean
// reports whether the plan was already clean.
func refineForLines(plan Plan, cfg cache.Config, elemSize int, st Stencil) (Plan, bool) {
	if !plan.Tiled {
		return plan, true
	}
	ok := func(t Tile) bool {
		if !t.Valid() {
			return false
		}
		return !selfConflictsLines(cfg.SizeBytes, cfg.LineBytes, elemSize,
			plan.DI, plan.DJ, t.TI+st.TrimI, t.TJ+st.TrimJ, st.Depth)
	}
	if ok(plan.Tile) {
		return plan, true
	}
	t := plan.Tile
	for !ok(t) {
		// Shrink the dimension whose reduction costs less reuse: the
		// larger one (the cost model is symmetric and favors squares).
		switch {
		case t.TI >= t.TJ && t.TI > 1:
			t.TI--
		case t.TJ > 1:
			t.TJ--
		default:
			// Even a 1x1 iteration tile conflicts at line granularity:
			// give up on tiling rather than emit a conflicting plan.
			plan.Tiled = false
			plan.Tile = Tile{}
			plan.Cost = Cost(plan.Tile, st)
			return plan, false
		}
	}
	plan.Tile = t
	plan.Cost = Cost(t, st)
	return plan, false
}
