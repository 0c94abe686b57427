package stencil

import (
	"tiling3d/internal/cache"
	"tiling3d/internal/grid"
)

// Copy optimization (Section 3.1): copying each array tile into a
// contiguous buffer eliminates self-interference without tile-size
// restrictions or padding. The paper argues it cannot pay off for stencil
// codes — each copied element is reused only O(1) times, so the copy is a
// large constant fraction of all accesses — in contrast to linear algebra
// where O(n) reuse amortizes it. JacobiCopyTiled implements the
// optimization so the claim is measurable (BenchmarkAblationCopy): it is
// the tiled Jacobi nest of Figure 6 with the three live planes of the
// array tile staged through a contiguous ring buffer.
//
// The computation is performed in the same per-point operand order as
// JacobiOrig, so results are bit-identical (see the equivalence tests).

// copyBuf is a contiguous (ti+2) x (tj+2) x 3 ring buffer holding the
// live planes of one array tile.
type copyBuf struct {
	data   []float64
	bi, bj int // buffer plane dims: ti+2, tj+2
}

func newCopyBuf(ti, tj int) *copyBuf {
	bi, bj := ti+2, tj+2
	return &copyBuf{data: make([]float64, bi*bj*3), bi: bi, bj: bj}
}

// plane returns the backing slice of ring plane (k mod 3).
func (c *copyBuf) plane(k int) []float64 {
	p := k % 3
	return c.data[p*c.bi*c.bj : (p+1)*c.bi*c.bj]
}

// fill copies the slab b[ii-1 .. ii+ti, jj-1 .. jj+tj, k] (clamped to the
// array) into ring plane k.
func (c *copyBuf) fill(b *grid.Grid3D, ii, jj, k int) {
	dst := c.plane(k)
	for bj := 0; bj < c.bj; bj++ {
		j := jj - 1 + bj
		row := dst[bj*c.bi : (bj+1)*c.bi]
		if j < 0 || j >= b.NJ {
			continue // outside the array: never read by interior points
		}
		lo, hi := ii-1, ii-1+c.bi-1
		if lo < 0 {
			lo = 0
		}
		if hi > b.NI-1 {
			hi = b.NI - 1
		}
		src := b.Index(lo, j, k)
		copy(row[lo-(ii-1):], b.Data[src:src+hi-lo+1])
	}
}

// JacobiCopyTiled computes one Jacobi sweep with tile copying: same
// iteration order as JacobiTiled, but every B operand is read from the
// contiguous buffer.
func JacobiCopyTiled(a, b *grid.Grid3D, cc float64, ti, tj int) {
	n1, n2, n3 := a.NI, a.NJ, a.NK
	buf := newCopyBuf(ti, tj)
	for jj := 1; jj <= n2-2; jj += tj {
		jHi := min(jj+tj-1, n2-2)
		for ii := 1; ii <= n1-2; ii += ti {
			iHi := min(ii+ti-1, n1-2)
			// Stage planes 0 and 1 before the K loop.
			buf.fill(b, ii, jj, 0)
			buf.fill(b, ii, jj, 1)
			for k := 1; k <= n3-2; k++ {
				buf.fill(b, ii, jj, k+1)
				pm, p0, pp := buf.plane(k-1), buf.plane(k), buf.plane(k+1)
				for j := jj; j <= jHi; j++ {
					bj := j - (jj - 1)
					r0 := bj * buf.bi
					rm := (bj - 1) * buf.bi
					rp := (bj + 1) * buf.bi
					ra := a.Index(0, j, k)
					for i := ii; i <= iHi; i++ {
						bi := i - (ii - 1)
						a.Data[ra+i] = cc * (p0[r0+bi-1] + p0[r0+bi+1] +
							p0[rm+bi] + p0[rp+bi] +
							pm[r0+bi] + pp[r0+bi])
					}
				}
			}
		}
	}
}

// jacobiCopyTiledTrace replays the copy-tiled variant's address stream:
// buffer traffic plus the array slab reads and the result stores. The
// buffer occupies its own address range past every array (modeling a
// stack or heap scratch allocation).
func jacobiCopyTiledTrace(a, b *grid.Grid3D, mem cache.Memory, ti, tj int) {
	n1, n2, n3 := a.NI, a.NJ, a.NK
	bi, bj := ti+2, tj+2
	bufBase := (b.Base() + int64(b.Elems())) * grid.ElemSize
	bufAddr := func(plane, bjj, bii int) int64 {
		return bufBase + int64((plane%3)*bi*bj+bjj*bi+bii)*grid.ElemSize
	}
	fill := func(ii, jj, k int) {
		for j := 0; j < bj; j++ {
			aj := jj - 1 + j
			if aj < 0 || aj >= n2 {
				continue
			}
			for i := 0; i < bi; i++ {
				ai := ii - 1 + i
				if ai < 0 || ai >= n1 {
					continue
				}
				mem.Load(b.Addr(ai, aj, k) * grid.ElemSize)
				mem.Store(bufAddr(k, j, i))
			}
		}
	}
	for jj := 1; jj <= n2-2; jj += tj {
		jHi := min(jj+tj-1, n2-2)
		for ii := 1; ii <= n1-2; ii += ti {
			iHi := min(ii+ti-1, n1-2)
			fill(ii, jj, 0)
			fill(ii, jj, 1)
			for k := 1; k <= n3-2; k++ {
				fill(ii, jj, k+1)
				for j := jj; j <= jHi; j++ {
					bjj := j - (jj - 1)
					for i := ii; i <= iHi; i++ {
						bii := i - (ii - 1)
						mem.Load(bufAddr(k, bjj, bii-1))
						mem.Load(bufAddr(k, bjj, bii+1))
						mem.Load(bufAddr(k, bjj-1, bii))
						mem.Load(bufAddr(k, bjj+1, bii))
						mem.Load(bufAddr(k-1, bjj, bii))
						mem.Load(bufAddr(k+1, bjj, bii))
						mem.Store(a.Addr(i, j, k) * grid.ElemSize)
					}
				}
			}
		}
	}
}

// CopyOverheadFraction returns the fraction of all accesses the copy
// traffic adds for a TI x TJ tile on an n^2 x depth Jacobi sweep: the
// paper's Section 3.1 argument quantified. Each tile stages
// (TI+2)(TJ+2) elements per plane (a load and a store each) while
// computing only TI*TJ points (7 accesses each).
func CopyOverheadFraction(ti, tj int) float64 {
	copyAccesses := 2.0 * float64(ti+2) * float64(tj+2)
	computeAccesses := 7.0 * float64(ti) * float64(tj)
	return copyAccesses / (copyAccesses + computeAccesses)
}
