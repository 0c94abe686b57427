package stencil

import (
	"fmt"

	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/grid"
	"tiling3d/internal/ir"
	"tiling3d/internal/trace"
)

// Variable-coefficient stencils: PDEs over heterogeneous media weight
// each neighbor by a per-point coefficient field instead of a constant
// (e.g. spatially varying diffusivity). The access pattern gains one
// coefficient array per tap, increasing cross-interference pressure —
// exactly the regime where the paper's padding matters most, since every
// extra array is another stream competing for the same sets.

// VarCoeffStencil couples tap offsets with coefficient fields: dst(p) =
// sum over taps of W[t](p) * src(p + offset[t]).
type VarCoeffStencil struct {
	Offsets [][3]int
	// W holds one coefficient grid per offset, indexed like dst.
	W []*grid.Grid3D
}

// NewVarCoeff validates the shape: offsets and weights must pair up, and
// every weight grid must cover dst's logical extent.
func NewVarCoeff(offsets [][3]int, w []*grid.Grid3D) (*VarCoeffStencil, error) {
	if len(offsets) == 0 || len(offsets) != len(w) {
		return nil, fmt.Errorf("stencil: %d offsets, %d weight grids", len(offsets), len(w))
	}
	for i, g := range w {
		if g == nil {
			return nil, fmt.Errorf("stencil: weight grid %d is nil", i)
		}
	}
	return &VarCoeffStencil{Offsets: offsets, W: w}, nil
}

func (s *VarCoeffStencil) reach() (ri, rj, rk int) {
	for _, o := range s.Offsets {
		ri = max(ri, max(o[0], -o[0]))
		rj = max(rj, max(o[1], -o[1]))
		rk = max(rk, max(o[2], -o[2]))
	}
	return
}

// Apply computes dst over the interior the offsets permit.
func (s *VarCoeffStencil) Apply(dst, src *grid.Grid3D) {
	ri, rj, rk := s.reach()
	s.applyBlock(dst, src, ri, src.NI-1-ri, rj, src.NJ-1-rj, rk, src.NK-1-rk)
}

// ApplyTiled computes the same result in the paper's tiled order.
func (s *VarCoeffStencil) ApplyTiled(dst, src *grid.Grid3D, ti, tj int) {
	ri, rj, rk := s.reach()
	loI, hiI := ri, src.NI-1-ri
	loJ, hiJ := rj, src.NJ-1-rj
	for jj := loJ; jj <= hiJ; jj += tj {
		for ii := loI; ii <= hiI; ii += ti {
			s.applyBlock(dst, src,
				ii, min(ii+ti-1, hiI),
				jj, min(jj+tj-1, hiJ),
				rk, src.NK-1-rk)
		}
	}
}

func (s *VarCoeffStencil) applyBlock(dst, src *grid.Grid3D, loI, hiI, loJ, hiJ, loK, hiK int) {
	offs := make([]int, len(s.Offsets))
	for t, o := range s.Offsets {
		offs[t] = src.Index(o[0], o[1], o[2]) - src.Index(0, 0, 0)
	}
	for k := loK; k <= hiK; k++ {
		for j := loJ; j <= hiJ; j++ {
			srow := src.Index(0, j, k)
			drow := dst.Index(0, j, k)
			for i := loI; i <= hiI; i++ {
				var v float64
				for t := range offs {
					v += s.W[t].At(i, j, k) * src.Data[srow+i+offs[t]]
				}
				dst.Data[drow+i] = v
			}
		}
	}
}

// Trace replays the variable-coefficient access stream: per point, each
// weight load, each source load, then the store.
func (s *VarCoeffStencil) Trace(dst, src *grid.Grid3D, mem cache.Memory, ti, tj int, tiled bool) {
	i, j, k := ir.Var("I", 0), ir.Var("J", 0), ir.Var("K", 0)
	env := map[string]trace.Binding{"SRC": trace.Bind3D(src), "DST": trace.Bind3D(dst)}
	var body []ir.Ref
	for t, o := range s.Offsets {
		w := fmt.Sprintf("W%d", t)
		env[w] = trace.Bind3D(s.W[t])
		body = append(body, ir.Load(w, i, j, k), ir.Load("SRC", i.Plus(o[0]), j.Plus(o[1]), k.Plus(o[2])))
	}
	body = append(body, ir.StoreRef("DST", i, j, k))
	ri, rj, rk := s.reach()
	plan := core.Plan{Tile: core.Tile{TI: ti, TJ: tj}, Tiled: tiled}
	emit(cache.PerAccess{Mem: mem}, env, applyPlan(interiorNest(src, ri, rj, rk, body), plan))
}

// ArrayCount returns the number of distinct arrays the stencil streams
// (weights + source + destination), the input to the Section 3.5
// cross-interference strategies.
func (s *VarCoeffStencil) ArrayCount() int { return len(s.W) + 2 }
