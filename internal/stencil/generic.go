package stencil

import (
	"fmt"

	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/grid"
	"tiling3d/internal/ir"
	"tiling3d/internal/trace"
)

// Generic stencils: beyond the paper's three kernels, the library lets a
// user define any weighted 3D stencil and get the original nest, the
// paper's tiled nest, the address-trace nests and the selection inputs
// (core.Stencil) derived from the taps — the full treatment JACOBI and
// RESID receive, for arbitrary shapes.

// Tap is one stencil point: the neighbor offset and its weight.
type Tap struct {
	DI, DJ, DK int
	W          float64
}

// Shape is a user-defined stencil: dst(i,j,k) = sum of W * src(i+DI,
// j+DJ, k+DK) over the taps.
type Shape struct {
	Taps []Tap
}

// NewShape validates and wraps a tap list: at least one tap, no
// duplicate offsets.
func NewShape(taps []Tap) (Shape, error) {
	if len(taps) == 0 {
		return Shape{}, fmt.Errorf("stencil: shape needs at least one tap")
	}
	seen := map[[3]int]bool{}
	for _, t := range taps {
		k := [3]int{t.DI, t.DJ, t.DK}
		if seen[k] {
			return Shape{}, fmt.Errorf("stencil: duplicate tap offset (%d,%d,%d)", t.DI, t.DJ, t.DK)
		}
		seen[k] = true
	}
	return Shape{Taps: taps}, nil
}

// Box7 returns the 7-point star stencil (center plus faces) with center
// weight cw and face weight fw.
func Box7(cw, fw float64) Shape {
	return Shape{Taps: []Tap{
		{0, 0, 0, cw},
		{-1, 0, 0, fw}, {1, 0, 0, fw},
		{0, -1, 0, fw}, {0, 1, 0, fw},
		{0, 0, -1, fw}, {0, 0, 1, fw},
	}}
}

// Reach returns the stencil's maximal absolute offsets per dimension.
func (s Shape) Reach() (ri, rj, rk int) {
	var loI, hiI, loJ, hiJ, loK, hiK int
	for _, t := range s.Taps {
		loI, hiI = min(loI, t.DI), max(hiI, t.DI)
		loJ, hiJ = min(loJ, t.DJ), max(hiJ, t.DJ)
		loK, hiK = min(loK, t.DK), max(hiK, t.DK)
	}
	return max(hiI, -loI), max(hiJ, -loJ), max(hiK, -loK)
}

// Spec derives the tile-selection inputs from the taps, the way
// ir.Analyze derives them from a loop nest: trims are the subscript
// spreads, depth is the K spread plus one.
func (s Shape) Spec() core.Stencil {
	var loI, hiI, loJ, hiJ, loK, hiK int
	for _, t := range s.Taps {
		loI, hiI = min(loI, t.DI), max(hiI, t.DI)
		loJ, hiJ = min(loJ, t.DJ), max(hiJ, t.DJ)
		loK, hiK = min(loK, t.DK), max(hiK, t.DK)
	}
	return core.Stencil{TrimI: hiI - loI, TrimJ: hiJ - loJ, Depth: hiK - loK + 1}
}

// Apply computes dst = stencil(src) over the largest interior the shape
// permits (offsets never read outside the array). Boundary elements of
// dst are untouched.
func (s Shape) Apply(dst, src *grid.Grid3D) {
	ri, rj, rk := s.Reach()
	s.applyBlock(dst, src, ri, src.NI-1-ri, rj, src.NJ-1-rj, rk, src.NK-1-rk)
}

// ApplyTiled computes the same result with the paper's tiled iteration
// order.
func (s Shape) ApplyTiled(dst, src *grid.Grid3D, ti, tj int) {
	ri, rj, rk := s.Reach()
	loI, hiI := ri, src.NI-1-ri
	loJ, hiJ := rj, src.NJ-1-rj
	loK, hiK := rk, src.NK-1-rk
	for jj := loJ; jj <= hiJ; jj += tj {
		for ii := loI; ii <= hiI; ii += ti {
			s.applyBlock(dst, src,
				ii, min(ii+ti-1, hiI),
				jj, min(jj+tj-1, hiJ),
				loK, hiK)
		}
	}
}

func (s Shape) applyBlock(dst, src *grid.Grid3D, loI, hiI, loJ, hiJ, loK, hiK int) {
	// Precompute flat offsets once; they are loop-invariant.
	offs := make([]int, len(s.Taps))
	ws := make([]float64, len(s.Taps))
	for t, tap := range s.Taps {
		offs[t] = src.Index(tap.DI, tap.DJ, tap.DK) - src.Index(0, 0, 0)
		ws[t] = tap.W
	}
	sd, dd := src.Data, dst.Data
	for k := loK; k <= hiK; k++ {
		for j := loJ; j <= hiJ; j++ {
			srow := src.Index(0, j, k)
			drow := dst.Index(0, j, k)
			for i := loI; i <= hiI; i++ {
				var v float64
				base := srow + i
				for t := range offs {
					v += ws[t] * sd[base+offs[t]]
				}
				dd[drow+i] = v
			}
		}
	}
}

// Trace replays the shape's address stream (taps in declaration order,
// then the store), tiled or not.
func (s Shape) Trace(dst, src *grid.Grid3D, mem cache.Memory, plan core.Plan) {
	i, j, k := ir.Var("I", 0), ir.Var("J", 0), ir.Var("K", 0)
	var body []ir.Ref
	for _, t := range s.Taps {
		body = append(body, ir.Load("SRC", i.Plus(t.DI), j.Plus(t.DJ), k.Plus(t.DK)))
	}
	body = append(body, ir.StoreRef("DST", i, j, k))
	ri, rj, rk := s.Reach()
	n := applyPlan(interiorNest(src, ri, rj, rk, body), plan)
	emit(cache.PerAccess{Mem: mem}, map[string]trace.Binding{"SRC": trace.Bind3D(src), "DST": trace.Bind3D(dst)}, n)
}

// interiorNest is the K, J, I nest over the points of g at least the
// given reach away from every face.
func interiorNest(g *grid.Grid3D, ri, rj, rk int, body []ir.Ref) *ir.Nest {
	return &ir.Nest{
		Loops: []ir.Loop{
			ir.SimpleLoop("K", rk, g.NK-1-rk),
			ir.SimpleLoop("J", rj, g.NJ-1-rj),
			ir.SimpleLoop("I", ri, g.NI-1-ri),
		},
		Body: body,
	}
}
