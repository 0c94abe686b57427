package stencil

import "tiling3d/internal/grid"

// JacobiOrig performs one sweep of the original 3D Jacobi nest
// (Figure 3): a(i,j,k) = c * (6-point sum of b) over the interior.
func JacobiOrig(a, b *grid.Grid3D, c float64) {
	n1, n2, n3 := a.NI, a.NJ, a.NK
	for k := 1; k <= n3-2; k++ {
		for j := 1; j <= n2-2; j++ {
			jacobiRow(a, b, c, 1, n1-2, j, k)
		}
	}
}

// JacobiTiled performs one sweep of the tiled 3D Jacobi nest (Figure 6):
// the J and I loops are strip-mined by (tj, ti) and the tile-controlling
// loops are moved outermost, so the K loop sweeps all planes within a
// TI x TJ column block.
func JacobiTiled(a, b *grid.Grid3D, c float64, ti, tj int) {
	n1, n2, n3 := a.NI, a.NJ, a.NK
	for jj := 1; jj <= n2-2; jj += tj {
		jHi := min(jj+tj-1, n2-2)
		for ii := 1; ii <= n1-2; ii += ti {
			iHi := min(ii+ti-1, n1-2)
			for k := 1; k <= n3-2; k++ {
				for j := jj; j <= jHi; j++ {
					jacobiRow(a, b, c, ii, iHi, j, k)
				}
			}
		}
	}
}

// jacobiRow updates a(iLo..iHi, j, k). Factoring the innermost loop keeps
// the original and tiled variants bit-identical. Each operand row is
// sliced once (b(i-1, j, k) as im, b(i, j-1, k) as jm, ...), so the
// element loop indexes views of equal length and needs no bounds check.
func jacobiRow(a, b *grid.Grid3D, c float64, iLo, iHi, j, k int) {
	n := iHi - iLo + 1
	if n <= 0 {
		return
	}
	im := rowView(b, iLo-1, n, j, k)
	ip := rowView(b, iLo+1, n, j, k)
	jm := rowView(b, iLo, n, j-1, k)
	jp := rowView(b, iLo, n, j+1, k)
	km := rowView(b, iLo, n, j, k-1)
	kp := rowView(b, iLo, n, j, k+1)
	out := rowView(a, iLo, n, j, k)
	for x := range out {
		out[x] = c * (im[x] + ip[x] +
			jm[x] + jp[x] +
			km[x] + kp[x])
	}
}

// rowView returns the n elements g(i..i+n-1, j, k) as a slice. The slice
// expression is the row kernels' bounds check: it panics if the row
// leaves g's storage, and once it holds, an element loop over views of
// one length is provably in range.
func rowView(g *grid.Grid3D, i, n, j, k int) []float64 {
	o := g.Index(i, j, k)
	return g.Data[o : o+n]
}

// Jacobi2DOrig performs one sweep of the 2D Jacobi nest (Figure 1), used
// by the Section 1 motivation experiment contrasting 2D and 3D reuse.
func Jacobi2DOrig(a, b *grid.Grid2D, c float64) {
	for j := 1; j <= a.NJ-2; j++ {
		jacobi2DRow(a, b, c, 1, a.NI-2, j)
	}
}

// Jacobi2DTiled performs one sweep of the 2D nest with the I loop
// strip-mined and the tile loop moved outermost — the transformation the
// paper shows is pointless in 2D, because a handful of columns already
// fit in cache for any realistic N (Section 2.1). It exists so the
// pointlessness is measurable.
func Jacobi2DTiled(a, b *grid.Grid2D, c float64, ti int) {
	for ii := 1; ii <= a.NI-2; ii += ti {
		iHi := min(ii+ti-1, a.NI-2)
		for j := 1; j <= a.NJ-2; j++ {
			jacobi2DRow(a, b, c, ii, iHi, j)
		}
	}
}

func jacobi2DRow(a, b *grid.Grid2D, c float64, iLo, iHi, j int) {
	r0 := b.Index(0, j)
	rjm := b.Index(0, j-1)
	rjp := b.Index(0, j+1)
	ra := a.Index(0, j)
	for i := iLo; i <= iHi; i++ {
		a.Data[ra+i] = c * (b.Data[r0+i-1] + b.Data[r0+i+1] +
			b.Data[rjm+i] + b.Data[rjp+i])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
