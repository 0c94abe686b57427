package stencil

import "tiling3d/internal/grid"

// Red-black SOR updates points of one color from neighbors of the other:
//
//	a(i,j,k) = c1*a(i,j,k) + c2*(6-point sum of a)
//
// In the Fortran source (Figure 12), red points have even coordinate sum;
// zero-based that is an odd i+j+k. All three variants below compute
// bit-identical results: red updates read only old black values and black
// updates read only new red values, in the same per-point operand order.

// redBlackRow updates every point of the required color in the row
// (iStart..iHi step 2, j, k). The center row is viewed from iStart-1, so a
// point and its two i-neighbors are ctr[x+1], ctr[x] and ctr[x+2]; the
// other four neighbor rows are viewed from iStart.
func redBlackRow(a *grid.Grid3D, c1, c2 float64, iStart, iHi, j, k int) {
	n := iHi - iStart + 1
	if n <= 0 {
		return // a skewed tile can start past its last column
	}
	ctr := rowView(a, iStart-1, n+2, j, k)
	jm := rowView(a, iStart, n, j-1, k)
	jp := rowView(a, iStart, n, j+1, k)
	km := rowView(a, iStart, n, j, k-1)
	kp := rowView(a, iStart, n, j, k+1)
	for x := 0; x < n; x += 2 {
		ctr[x+1] = c1*ctr[x+1] + c2*(ctr[x]+jm[x]+
			ctr[x+2]+jp[x]+
			km[x]+kp[x])
	}
}

// redStart returns the smallest zero-based i >= 1 whose point in row
// (j, k) is red for pass 0 (red) or black for pass 1: Fortran's
// I = 2 + mod(K+J+odd, 2).
func redStart(j, k, pass int) int {
	// Required parity: i = j + k + 1 + pass (mod 2).
	if (j+k+1+pass)&1 == 1 {
		return 1
	}
	return 2
}

// RedBlackNaive performs one red-black sweep with the naive two-pass nest
// (Figure 12, top): all red points across the whole array, then all black
// points. For arrays larger than the cache every plane is brought in
// twice, and the stride-2 access uses only half of each line.
func RedBlackNaive(a *grid.Grid3D, c1, c2 float64) {
	n1, n2, n3 := a.NI, a.NJ, a.NK
	for pass := 0; pass <= 1; pass++ {
		for k := 1; k <= n3-2; k++ {
			for j := 1; j <= n2-2; j++ {
				redBlackRow(a, c1, c2, redStart(j, k, pass), n1-2, j, k)
			}
		}
	}
}

// redBlackFused performs one red-black sweep with the fused nest
// (Figure 12, middle): for each outer step kk, red points of plane kk+1
// are updated, then black points of plane kk, so one traversal of the
// array performs both colors and only four planes need stay cached.
func redBlackFused(a *grid.Grid3D, c1, c2 float64) {
	n1, n2, n3 := a.NI, a.NJ, a.NK
	for kk := 0; kk <= n3-2; kk++ {
		for dk := 1; dk >= 0; dk-- {
			k := kk + dk
			if k < 1 || k > n3-2 {
				continue
			}
			for j := 1; j <= n2-2; j++ {
				// Fortran I parity: I = KK + J + 1 (mod 2), independent
				// of K; zero-based i = kk + j (mod 2).
				iStart := 1
				if (kk+j)&1 == 0 {
					iStart = 2
				}
				redBlackRow(a, c1, c2, iStart, n1-2, j, k)
			}
		}
	}
}

// RedBlackTiled performs one red-black sweep with the tiled fused nest
// (Figure 12, bottom): the J and I loops of the fused nest are tiled by
// (tj, ti) with the tile origin skewed by k-kk so that every update
// reads only values already produced, preserving the exact naive
// semantics tile by tile.
func RedBlackTiled(a *grid.Grid3D, c1, c2 float64, ti, tj int) {
	n1, n2, n3 := a.NI, a.NJ, a.NK
	for jj := 0; jj <= n2-2; jj += tj {
		for ii := 0; ii <= n1-2; ii += ti {
			for kk := 0; kk <= n3-2; kk++ {
				for dk := 1; dk >= 0; dk-- {
					k := kk + dk
					if k < 1 || k > n3-2 {
						continue
					}
					jLo := max(jj+dk, 1)
					jHi := min(jj+dk+tj-1, n2-2)
					for j := jLo; j <= jHi; j++ {
						iStart := ii + dk
						// Required parity: i = kk + j (mod 2).
						iStart += (iStart + kk + j) & 1
						if iStart == 0 {
							iStart = 2
						}
						iHi := min(ii+dk+ti-1, n1-2)
						redBlackRow(a, c1, c2, iStart, iHi, j, k)
					}
				}
			}
		}
	}
}
