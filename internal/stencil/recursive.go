package stencil

import (
	"tiling3d/internal/cache"
	"tiling3d/internal/grid"
	"tiling3d/internal/ir"
	"tiling3d/internal/trace"
)

// Cache-oblivious recursion, the related-work alternative to explicit
// tiling (Gatlin & Carter; Yi, Adve & Kennedy — Section 5): instead of
// computing tile sizes for a known cache, recursively halve the I and J
// extents until blocks are small, running the full K sweep on each leaf.
// The recursion fits every level of the hierarchy without knowing any of
// them — but it cannot avoid conflict misses the way padding does, which
// is what BenchmarkAblationRecursive measures against GcdPad.

// JacobiRecursive computes one Jacobi sweep with cache-oblivious
// divide and conquer; leaf blocks have extent at most leaf in both I and
// J. Results are bit-identical to JacobiOrig.
func JacobiRecursive(a, b *grid.Grid3D, c float64, leaf int) {
	recurse(a, leaf, func(iLo, iHi, jLo, jHi int) {
		for k := 1; k <= a.NK-2; k++ {
			for j := jLo; j <= jHi; j++ {
				jacobiRow(a, b, c, iLo, iHi, j, k)
			}
		}
	})
}

// recurse halves the interior's longer side until both extents are at
// most leaf (at least 1), calling visit on each leaf block in order.
func recurse(a *grid.Grid3D, leaf int, visit func(iLo, iHi, jLo, jHi int)) {
	leaf = max(leaf, 1)
	var rec func(iLo, iHi, jLo, jHi int)
	rec = func(iLo, iHi, jLo, jHi int) {
		if iHi-iLo >= jHi-jLo && iHi-iLo+1 > leaf {
			mid := (iLo + iHi) / 2
			rec(iLo, mid, jLo, jHi)
			rec(mid+1, iHi, jLo, jHi)
			return
		}
		if jHi-jLo+1 > leaf {
			mid := (jLo + jHi) / 2
			rec(iLo, iHi, jLo, mid)
			rec(iLo, iHi, mid+1, jHi)
			return
		}
		visit(iLo, iHi, jLo, jHi)
	}
	rec(1, a.NI-2, 1, a.NJ-2)
}

// JacobiRecursiveTrace replays the recursive variant's address stream:
// one Jacobi nest per leaf block, in the recursion's order.
func JacobiRecursiveTrace(a, b *grid.Grid3D, mem cache.Memory, leaf int) {
	sink := cache.PerAccess{Mem: mem}
	env := map[string]trace.Binding{"A": trace.Bind3D(a), "B": trace.Bind3D(b)}
	recurse(a, leaf, func(iLo, iHi, jLo, jHi int) {
		n := ir.JacobiNestDims(a.NI, a.NJ, a.NK)
		n.Loops[1] = ir.SimpleLoop("J", jLo, jHi)
		n.Loops[2] = ir.SimpleLoop("I", iLo, iHi)
		emit(sink, env, n)
	})
}
