package stencil

// Per-point references: every row kernel checked bit for bit against its
// update evaluated one point at a time through Grid3D.At, with the same
// expression and operand order. The equivalence tests compare variants
// that share one row kernel, so only these catch a wrong operand inside
// it. The data is pseudo-random with full mantissas, so a reordered sum
// rounds differently, and padding holds a sentinel no kernel may read.

import (
	"fmt"
	"math"
	"testing"

	"tiling3d/internal/grid"
)

// noiseGrid returns an NI = NJ = n, NK = nk grid with leading dimensions
// (di, dj), its logical elements pseudo-random and its padding set to a
// sentinel.
func noiseGrid(n, nk, di, dj int, seed uint64) *grid.Grid3D {
	g := grid.Must3DPadded(n, n, nk, di, dj)
	g.Fill(1e30)
	g.FillFunc(func(i, j, k int) float64 {
		h := seed*0x9E3779B97F4A7C15 ^ uint64(i)*0xBF58476D1CE4E5B9 ^
			uint64(j)*0x94D049BB133111EB ^ uint64(k)*0xD6E8FEB86659FD93
		h ^= h >> 31
		h *= 0x9E3779B97F4A7C15
		h ^= h >> 29
		// A full random mantissa at exponents -4..-1, either sign: sums
		// of such values round, so a reordered sum gives other bits.
		v := math.Ldexp(1+float64(h>>12)/(1<<52), -1-int(h>>1&3))
		if h&1 == 1 {
			v = -v
		}
		return v
	})
	return g
}

// refShapes are the (n, di, dj) layouts every kernel is pinned on:
// unpadded and padded, at sizes with one, two and many interior points.
func refShapes() [][3]int {
	var s [][3]int
	for _, n := range []int{4, 5, 17} {
		s = append(s, [3]int{n, n, n}, [3]int{n, n + 13, n + 5})
	}
	return s
}

const refNK = 7

func refJacobi(a, b *grid.Grid3D, c float64) {
	for k := 1; k <= a.NK-2; k++ {
		for j := 1; j <= a.NJ-2; j++ {
			for i := 1; i <= a.NI-2; i++ {
				a.Set(i, j, k, c*(b.At(i-1, j, k)+b.At(i+1, j, k)+
					b.At(i, j-1, k)+b.At(i, j+1, k)+
					b.At(i, j, k-1)+b.At(i, j, k+1)))
			}
		}
	}
}

// refRedBlack updates all red points (odd zero-based i+j+k), then all
// black ones.
func refRedBlack(a *grid.Grid3D, c1, c2 float64) {
	for _, parity := range []int{1, 0} {
		for k := 1; k <= a.NK-2; k++ {
			for j := 1; j <= a.NJ-2; j++ {
				for i := 1; i <= a.NI-2; i++ {
					if (i+j+k)&1 != parity {
						continue
					}
					a.Set(i, j, k, c1*a.At(i, j, k)+c2*(a.At(i-1, j, k)+a.At(i, j-1, k)+
						a.At(i+1, j, k)+a.At(i, j+1, k)+
						a.At(i, j, k-1)+a.At(i, j, k+1)))
				}
			}
		}
	}
}

func refResid(r, v, u *grid.Grid3D, a [4]float64) {
	for k := 1; k <= r.NK-2; k++ {
		for j := 1; j <= r.NJ-2; j++ {
			for i := 1; i <= r.NI-2; i++ {
				r.Set(i, j, k, v.At(i, j, k)-
					a[0]*u.At(i, j, k)-
					a[1]*(u.At(i-1, j, k)+u.At(i+1, j, k)+
						u.At(i, j-1, k)+u.At(i, j+1, k)+
						u.At(i, j, k-1)+u.At(i, j, k+1))-
					a[2]*(u.At(i-1, j-1, k)+u.At(i+1, j-1, k)+
						u.At(i-1, j+1, k)+u.At(i+1, j+1, k)+
						u.At(i, j-1, k-1)+u.At(i, j+1, k-1)+
						u.At(i, j-1, k+1)+u.At(i, j+1, k+1)+
						u.At(i-1, j, k-1)+u.At(i-1, j, k+1)+
						u.At(i+1, j, k-1)+u.At(i+1, j, k+1))-
					a[3]*(u.At(i-1, j-1, k-1)+u.At(i+1, j-1, k-1)+
						u.At(i-1, j+1, k-1)+u.At(i+1, j+1, k-1)+
						u.At(i-1, j-1, k+1)+u.At(i+1, j-1, k+1)+
						u.At(i-1, j+1, k+1)+u.At(i+1, j+1, k+1)))
			}
		}
	}
}

func TestKernelsMatchPointReference(t *testing.T) {
	const c, c1, c2 = 1.0 / 6, -0.15, 1.15 / 6
	a := [4]float64{-8.0 / 3, 0.3, 1.0 / 6, 1.0 / 12}
	// A zero tile stands for the untiled (Orig) nest.
	tiles := append([]struct{ ti, tj int }{{0, 0}}, tileCases...)
	check := func(name string, got, want *grid.Grid3D) {
		t.Helper()
		if d := got.MaxAbsDiff(want); d != 0 {
			t.Errorf("%s: differs from the per-point reference by %g", name, d)
		}
	}
	for _, s := range refShapes() {
		n, di, dj := s[0], s[1], s[2]
		noise := func(seed uint64) *grid.Grid3D { return noiseGrid(n, refNK, di, dj, seed) }
		shape := fmt.Sprintf("n=%d di=%d dj=%d", n, di, dj)

		b := noise(1)
		want := noise(2)
		refJacobi(want, b, c)
		for _, tc := range tiles {
			got := noise(2)
			if tc.ti == 0 {
				JacobiOrig(got, b, c)
			} else {
				JacobiTiled(got, b, c, tc.ti, tc.tj)
			}
			check(fmt.Sprintf("%s jacobi tile %v", shape, tc), got, want)
		}

		want = noise(3)
		refRedBlack(want, c1, c2)
		got := noise(3)
		RedBlackNaive(got, c1, c2)
		check(shape+" RedBlackNaive", got, want)
		got = noise(3)
		RedBlackFused(got, c1, c2)
		check(shape+" RedBlackFused", got, want)
		for _, tc := range tileCases {
			got := noise(3)
			RedBlackTiled(got, c1, c2, tc.ti, tc.tj)
			check(fmt.Sprintf("%s RedBlackTiled %v", shape, tc), got, want)
		}

		u, v := noise(4), noise(5)
		want = noise(6)
		refResid(want, v, u, a)
		// MGRID's coarse levels alias v to r: r = r - A u.
		wantAliased := v.Clone()
		refResid(wantAliased, wantAliased, u, a)
		for _, tc := range tiles {
			resid := func(r, v *grid.Grid3D) {
				if tc.ti == 0 {
					ResidOrig(r, v, u, a)
				} else {
					ResidTiled(r, v, u, a, tc.ti, tc.tj)
				}
			}
			got := noise(6)
			resid(got, v)
			check(fmt.Sprintf("%s resid tile %v", shape, tc), got, want)
			got = v.Clone()
			resid(got, got)
			check(fmt.Sprintf("%s resid aliased tile %v", shape, tc), got, wantAliased)
		}
	}
}
