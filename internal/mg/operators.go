package mg

import "tiling3d/internal/grid"

// psinv applies the 27-point smoother u = u + C r (NAS MG psinv):
// c0 weights the center, c1 the faces, c2 the edges, c3 the corners.
func psinv(u, r *grid.Grid3D, c [4]float64) {
	m := u.NI
	for k := 1; k <= m-2; k++ {
		for j := 1; j <= m-2; j++ {
			psinvRow(u, r, c, 1, m-2, j, k)
		}
	}
}

// psinvTiled is the tiled smoother: the same transformation RESID gets
// (Section 4.6 expects "additional improvements ... from tiling the
// remaining subroutines"). Bit-identical to psinv.
func psinvTiled(u, r *grid.Grid3D, c [4]float64, ti, tj int) {
	m := u.NI
	for jj := 1; jj <= m-2; jj += tj {
		jHi := jj + tj - 1
		if jHi > m-2 {
			jHi = m - 2
		}
		for ii := 1; ii <= m-2; ii += ti {
			iHi := ii + ti - 1
			if iHi > m-2 {
				iHi = m - 2
			}
			for k := 1; k <= m-2; k++ {
				for j := jj; j <= jHi; j++ {
					psinvRow(u, r, c, ii, iHi, j, k)
				}
			}
		}
	}
}

// psinvRow updates u(lo..hi, j, k). Like RESID's row kernel, it views
// each of the nine (j, k) neighbor rows of r from lo-1, so r(i-1), r(i)
// and r(i+1) of a row are its view's x, x+1 and x+2, and keeps the
// operand order of the per-point expression.
func psinvRow(u, r *grid.Grid3D, c [4]float64, lo, hi, j, k int) {
	n := hi - lo + 1
	if n <= 0 {
		return
	}
	w := n + 2
	r00 := rowView(r, lo-1, w, j, k)
	rm0 := rowView(r, lo-1, w, j-1, k)
	rp0 := rowView(r, lo-1, w, j+1, k)
	r0m := rowView(r, lo-1, w, j, k-1)
	r0p := rowView(r, lo-1, w, j, k+1)
	rmm := rowView(r, lo-1, w, j-1, k-1)
	rpm := rowView(r, lo-1, w, j+1, k-1)
	rmp := rowView(r, lo-1, w, j-1, k+1)
	rpp := rowView(r, lo-1, w, j+1, k+1)
	out := rowView(u, lo, n, j, k)
	c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
	for x := range out {
		out[x] += c0*r00[x+1] +
			c1*(r00[x]+r00[x+2]+
				rm0[x+1]+rp0[x+1]+
				r0m[x+1]+r0p[x+1]) +
			c2*(rm0[x]+rm0[x+2]+
				rp0[x]+rp0[x+2]+
				rmm[x+1]+rpm[x+1]+
				rmp[x+1]+rpp[x+1]+
				r0m[x]+r0m[x+2]+
				r0p[x]+r0p[x+2]) +
			c3*(rmm[x]+rmm[x+2]+
				rpm[x]+rpm[x+2]+
				rmp[x]+rmp[x+2]+
				rpp[x]+rpp[x+2])
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

// rprj3 restricts the fine residual to the coarse grid with NAS MG's
// full-weighting stencil: coarse point (i,j,k) sits on fine point
// (2i,2j,2k) and gathers the surrounding 27 fine points with weights
// 1/2 (center), 1/4 (faces), 1/8 (edges), 1/16 (corners).
func rprj3(coarse, fine *grid.Grid3D) {
	mc := coarse.NI
	for k := 1; k <= mc-2; k++ {
		rprj3Plane(coarse, fine, k)
	}
}

// rprj3Plane restricts one coarse K plane — the schedulable unit of
// rprj3: plane k writes only coarse plane k, so planes are independent.
// The nine fine neighbor rows of coarse row j are viewed from fine i = 1,
// so fine 2i-1, 2i and 2i+1 of coarse point i = x+1 are view[2x],
// view[2x+1] and view[2x+2].
func rprj3Plane(coarse, fine *grid.Grid3D, k int) {
	mc := coarse.NI
	n := mc - 2 // interior coarse points per row
	w := 2*n + 1
	fk := 2 * k
	for j := 1; j <= mc-2; j++ {
		fj := 2 * j
		f00 := rowView(fine, 1, w, fj, fk)
		fm0 := rowView(fine, 1, w, fj-1, fk)
		fp0 := rowView(fine, 1, w, fj+1, fk)
		f0m := rowView(fine, 1, w, fj, fk-1)
		f0p := rowView(fine, 1, w, fj, fk+1)
		fmm := rowView(fine, 1, w, fj-1, fk-1)
		fpm := rowView(fine, 1, w, fj+1, fk-1)
		fmp := rowView(fine, 1, w, fj-1, fk+1)
		fpp := rowView(fine, 1, w, fj+1, fk+1)
		out := rowView(coarse, 1, n, j, k)
		for x := range out {
			x2 := 2 * x
			out[x] = 0.5*f00[x2+1] +
				0.25*(f00[x2]+f00[x2+2]+
					fm0[x2+1]+fp0[x2+1]+
					f0m[x2+1]+f0p[x2+1]) +
				0.125*(fm0[x2]+fm0[x2+2]+
					fp0[x2]+fp0[x2+2]+
					fmm[x2+1]+fpm[x2+1]+
					fmp[x2+1]+fpp[x2+1]+
					f0m[x2]+f0m[x2+2]+
					f0p[x2]+f0p[x2+2]) +
				0.0625*(fmm[x2]+fmm[x2+2]+
					fpm[x2]+fpm[x2+2]+
					fmp[x2]+fmp[x2+2]+
					fpp[x2]+fpp[x2+2])
		}
	}
}

// interp prolongates the coarse correction onto the fine grid with
// trilinear interpolation, adding into fine: coincident fine points get
// the coarse value, midpoints the average of their 2, 4 or 8 coarse
// neighbors.
func interp(fine, coarse *grid.Grid3D) {
	mc := coarse.NI
	for k := 0; k <= mc-2; k++ {
		interpPlane(fine, coarse, k)
	}
}

// interpPlane prolongates one coarse K plane — the schedulable unit of
// interp: plane k writes only fine planes 2k and 2k+1, so distinct
// coarse planes touch disjoint fine planes. Each coarse row j reads four
// coarse rows (j and j+1 of planes k and k+1) and adds into four fine
// rows (2j and 2j+1 of planes 2k and 2k+1), at 2i and 2i+1. Every fine
// point receives exactly one addition, so only the per-point expression,
// not the order of points, fixes the result.
func interpPlane(fine, coarse *grid.Grid3D, k int) {
	mc := coarse.NI
	n := mc - 1 // coarse points i = 0..mc-2 per row
	fk := 2 * k
	for j := 0; j <= mc-2; j++ {
		fj := 2 * j
		c00 := rowView(coarse, 0, n+1, j, k)
		c10 := rowView(coarse, 0, n+1, j+1, k)
		c01 := rowView(coarse, 0, n+1, j, k+1)
		c11 := rowView(coarse, 0, n+1, j+1, k+1)
		f00 := rowView(fine, 0, 2*n, fj, fk)
		f10 := rowView(fine, 0, 2*n, fj+1, fk)
		f01 := rowView(fine, 0, 2*n, fj, fk+1)
		f11 := rowView(fine, 0, 2*n, fj+1, fk+1)
		for i := 0; i < n; i++ {
			u000, u100 := c00[i], c00[i+1]
			u010, u110 := c10[i], c10[i+1]
			u001, u101 := c01[i], c01[i+1]
			u011, u111 := c11[i], c11[i+1]
			fi := 2 * i
			f00[fi] += u000
			f00[fi+1] += 0.5 * (u000 + u100)
			f10[fi] += 0.5 * (u000 + u010)
			f10[fi+1] += 0.25 * (u000 + u100 + u010 + u110)
			f01[fi] += 0.5 * (u000 + u001)
			f01[fi+1] += 0.25 * (u000 + u100 + u001 + u101)
			f11[fi] += 0.25 * (u000 + u010 + u001 + u011)
			f11[fi+1] += 0.125 * (u000 + u100 + u010 + u110 + u001 + u101 + u011 + u111)
		}
	}
}
