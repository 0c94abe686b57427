package stencil

import "tiling3d/internal/grid"

// ResidOrig computes the residual r = v - A(u) with the 27-point stencil
// of the RESID subroutine from MGRID (Figure 13): a0 weights the center,
// a1 the 6 faces, a2 the 12 edges, a3 the 8 corners.
func ResidOrig(r, v, u *grid.Grid3D, a [4]float64) {
	n1, n2, n3 := r.NI, r.NJ, r.NK
	for i3 := 1; i3 <= n3-2; i3++ {
		for i2 := 1; i2 <= n2-2; i2++ {
			residRow(r, v, u, a, 1, n1-2, i2, i3)
		}
	}
}

// ResidTiled computes the same residual with the tiled nest of Figure 13:
// I2 and I1 are strip-mined by (t2, t1) and the tile loops are outermost,
// so the I3 loop sweeps all planes within an I1 x I2 block.
func ResidTiled(r, v, u *grid.Grid3D, a [4]float64, t1, t2 int) {
	n1, n2, n3 := r.NI, r.NJ, r.NK
	for ii2 := 1; ii2 <= n2-2; ii2 += t2 {
		hi2 := min(ii2+t2-1, n2-2)
		for ii1 := 1; ii1 <= n1-2; ii1 += t1 {
			hi1 := min(ii1+t1-1, n1-2)
			for i3 := 1; i3 <= n3-2; i3++ {
				for i2 := ii2; i2 <= hi2; i2++ {
					residRow(r, v, u, a, ii1, hi1, i2, i3)
				}
			}
		}
	}
}

// residRow updates r(lo..hi, i2, i3). The operand grouping matches the
// Fortran source exactly so that all variants are bit-identical. Each of
// the nine (i2, i3) neighbor rows of u is viewed from lo-1, so its
// u(i1-1), u(i1) and u(i1+1) are view[x], view[x+1] and view[x+2]. Nine
// views of one length keep the element loop's bounds checks to three
// shared ones; 27 one-offset views would need none but spill registers.
func residRow(r, v, u *grid.Grid3D, a [4]float64, lo, hi, i2, i3 int) {
	n := hi - lo + 1
	if n <= 0 {
		return
	}
	w := n + 2
	u00 := rowView(u, lo-1, w, i2, i3)   // (  , i2  , i3  )
	um0 := rowView(u, lo-1, w, i2-1, i3) // (  , i2-1, i3  )
	up0 := rowView(u, lo-1, w, i2+1, i3)
	u0m := rowView(u, lo-1, w, i2, i3-1)
	u0p := rowView(u, lo-1, w, i2, i3+1)
	umm := rowView(u, lo-1, w, i2-1, i3-1)
	upm := rowView(u, lo-1, w, i2+1, i3-1)
	ump := rowView(u, lo-1, w, i2-1, i3+1)
	upp := rowView(u, lo-1, w, i2+1, i3+1)
	vv := rowView(v, lo, n, i2, i3)
	out := rowView(r, lo, n, i2, i3)
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	for x := range out {
		out[x] = vv[x] -
			a0*u00[x+1] -
			a1*(u00[x]+u00[x+2]+
				um0[x+1]+up0[x+1]+
				u0m[x+1]+u0p[x+1]) -
			a2*(um0[x]+um0[x+2]+
				up0[x]+up0[x+2]+
				umm[x+1]+upm[x+1]+
				ump[x+1]+upp[x+1]+
				u0m[x]+u0p[x]+
				u0m[x+2]+u0p[x+2]) -
			a3*(umm[x]+umm[x+2]+
				upm[x]+upm[x+2]+
				ump[x]+ump[x+2]+
				upp[x]+upp[x+2])
	}
}
