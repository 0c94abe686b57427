package stencil

import (
	"tiling3d/internal/cache"
	"tiling3d/internal/grid"
	"tiling3d/internal/ir"
	"tiling3d/internal/trace"
)

// Three-loop tiling, the shape existing algorithms such as Wolf-Lam
// produce for 3D stencils (Section 2.2): the K loop is strip-mined too.
// The paper argues this is strictly worse than tiling only J and I —
// every KK tile boundary loses the group reuse between planes, adding
// misses along the expanded boundaries — and BenchmarkAblationThreeLoop
// measures exactly that. Results remain bit-identical to the original.

// jacobiTiled3Loop performs one Jacobi sweep with all three loops tiled
// by (ti, tj, tk).
func jacobiTiled3Loop(a, b *grid.Grid3D, c float64, ti, tj, tk int) {
	n1, n2, n3 := a.NI, a.NJ, a.NK
	for kk := 1; kk <= n3-2; kk += tk {
		kHi := min(kk+tk-1, n3-2)
		for jj := 1; jj <= n2-2; jj += tj {
			jHi := min(jj+tj-1, n2-2)
			for ii := 1; ii <= n1-2; ii += ti {
				iHi := min(ii+ti-1, n1-2)
				for k := kk; k <= kHi; k++ {
					for j := jj; j <= jHi; j++ {
						jacobiRow(a, b, c, ii, iHi, j, k)
					}
				}
			}
		}
	}
}

// JacobiTiled3LoopTrace replays the three-loop-tiled address stream:
// the Jacobi nest with K, J and I strip-mined and the tile loops moved
// outermost.
func JacobiTiled3LoopTrace(a, b *grid.Grid3D, mem cache.Memory, ti, tj, tk int) {
	n := tileLoops(ir.JacobiNestDims(a.NI, a.NJ, a.NK), []string{"KK", "JJ", "II", "K", "J", "I"},
		mine{"K", "KK", tk}, mine{"J", "JJ", tj}, mine{"I", "II", ti})
	emit(cache.PerAccess{Mem: mem}, map[string]trace.Binding{"A": trace.Bind3D(a), "B": trace.Bind3D(b)}, n)
}
