package stencil

import (
	"fmt"

	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/grid"
	"tiling3d/internal/ir"
	"tiling3d/internal/trace"
	"tiling3d/internal/transform"
)

// Simulated address streams. Every variant is an ir nest — the paper's
// original nest, or the tiled nest internal/transform derives from it —
// compiled against the grids' layouts by internal/trace, whose emitter
// replays it as lockstep cache.Run groups closed by the phase markers the
// steady engine uses. Each nest lists a point's references in the native
// kernel's operand order. Nests are built inside each replay call and
// never in a constructor: building one costs well under a millisecond,
// and a workload made only to read its Flops never pays it.

// Replay emits one sweep of kernel k over grids (in kernel order: JACOBI
// {A, B}, REDBLACK {A}, RESID {R, V, U}), tiled or not according to
// plan. The grids share their logical extent. JACOBI and RESID use the
// body-only forms of ir.JacobiNest and ir.ResidNest (same references,
// same order): a trace reads no compute semantics, and tiling then
// copies half as much.
func Replay(k Kernel, plan core.Plan, grids []*grid.Grid3D, sink cache.RunSink) {
	g := grids[0]
	var nests []*ir.Nest
	switch k {
	case Jacobi:
		nests = append(nests, applyPlan(ir.JacobiNestDims(g.NI, g.NJ, g.NK), plan))
	case RedBlack:
		if plan.Tiled {
			nests = append(nests, redBlackTiledNest(g, plan.Tile.TI, plan.Tile.TJ))
		} else {
			nests = append(nests, redBlackPassNest(g, 0), redBlackPassNest(g, 1))
		}
	case Resid:
		nests = append(nests, applyPlan(ir.ResidNestDims(g.NI, g.NJ, g.NK, false), plan))
	default:
		panic("stencil: unknown kernel")
	}
	env := map[string]trace.Binding{}
	for a, name := range k.arrayNames() {
		env[name] = trace.Bind3D(grids[a])
	}
	emit(sink, env, nests...)
}

// arrayNames returns the kernel's array names in grid order, as its nest
// references them.
func (k Kernel) arrayNames() []string {
	switch k {
	case Jacobi:
		return []string{"A", "B"}
	case RedBlack:
		return []string{"A"}
	default:
		return []string{"R", "V", "U"}
	}
}

// ReplayJacobi2D emits one sweep of the 2D Jacobi nest (Figure 1) over
// square arrays, with the I loop tiled by ti when ti > 0 (the tile loop
// moved outermost).
func ReplayJacobi2D(a, b *grid.Grid2D, ti int, sink cache.RunSink) {
	n := ir.Jacobi2DNest(a.NI)
	if ti > 0 {
		n = tileLoops(n, []string{"II", "J", "I"}, mine{"I", "II", ti})
	}
	emit(sink, map[string]trace.Binding{"A": trace.Bind2D(a), "B": trace.Bind2D(b)}, n)
}

// emit compiles each nest against env and replays it into sink. The
// nests are built here from grids that exist, so a failure to compile
// is an internal error.
func emit(sink cache.RunSink, env map[string]trace.Binding, nests ...*ir.Nest) {
	for _, n := range nests {
		if err := trace.RunBatchedNest(n, env, sink); err != nil {
			panic(fmt.Sprintf("stencil: %v", err))
		}
	}
}

// applyPlan tiles the freshly built nest per plan (Section 2.2); the
// paper's kernels carry no dependence within a sweep, so refusal is an
// internal error.
func applyPlan(n *ir.Nest, plan core.Plan) *ir.Nest {
	if !plan.Tiled {
		return n // ApplyPlan's defensive copy buys nothing here
	}
	out, err := transform.ApplyPlan(n, plan)
	if err != nil {
		panic(fmt.Sprintf("stencil: %v", err))
	}
	return out
}

// mine names one strip-mining step: loop split by factor, its tile loop
// named tile.
type mine struct {
	loop, tile string
	factor     int
}

// tileLoops strip-mines the nest and reorders its loops as given,
// outermost first.
func tileLoops(n *ir.Nest, order []string, mines ...mine) *ir.Nest {
	for _, m := range mines {
		var err error
		if n, err = transform.StripMine(n, m.loop, m.tile, m.factor); err != nil {
			panic(fmt.Sprintf("stencil: %v", err))
		}
	}
	out, err := transform.Interchange(n, order)
	if err != nil {
		panic(fmt.Sprintf("stencil: %v", err))
	}
	return out
}

// redBlackBody lists one red-black point update's references in the
// kernel's operand order: the center, its I-, J- neighbors interleaved
// with the I+, J+ ones, the K neighbors, then the in-place store.
func redBlackBody(i, j, k ir.Expr) []ir.Ref {
	return []ir.Ref{
		ir.Load("A", i, j, k),
		ir.Load("A", i.Plus(-1), j, k),
		ir.Load("A", i, j.Plus(-1), k),
		ir.Load("A", i.Plus(1), j, k),
		ir.Load("A", i, j.Plus(1), k),
		ir.Load("A", i, j, k.Plus(-1)),
		ir.Load("A", i, j, k.Plus(1)),
		ir.StoreRef("A", i, j, k),
	}
}

// redBlackPassNest is one color pass of the naive nest (Figure 12, top):
// pass 0 updates the red points (zero-based i+j+k odd), pass 1 the
// black, each row starting at its first point of the color.
func redBlackPassNest(a *grid.Grid3D, pass int) *ir.Nest {
	i, j, k := ir.Var("I", 0), ir.Var("J", 0), ir.Var("K", 0)
	color := ir.Expr{Const: 1 + pass, Coeff: map[string]int{"J": 1, "K": 1}}
	return &ir.Nest{
		Loops: []ir.Loop{
			ir.SimpleLoop("K", 1, a.NK-2),
			ir.SimpleLoop("J", 1, a.NJ-2),
			{Name: "I", Lo: ir.BoundOf(ir.Con(1)), Hi: ir.BoundOf(ir.Con(a.NI - 2)), Step: 2, Align: &color},
		},
		Body: redBlackBody(i, j, k),
	}
}

// redBlackTiledNest is the skewed tiled nest (Figure 12, bottom): for
// each (JJ, II) tile and plane step KK, the red points of plane KK+1
// (D = 0) then the black points of plane KK (D = 1), each pass over the
// tile shifted by one plane's skew, k = KK+1-D. Zero-based, the I parity
// of both passes is KK+J.
func redBlackTiledNest(a *grid.Grid3D, ti, tj int) *ir.Nest {
	skew := func(tile string, extent, n int) (lo, hi ir.Bound) {
		first := ir.Expr{Const: 1, Coeff: map[string]int{tile: 1, "D": -1}}
		last := ir.Expr{Const: extent, Coeff: map[string]int{tile: 1, "D": -1}}
		return ir.BoundOf(first, ir.Con(1)), ir.BoundOf(last, ir.Con(n-2))
	}
	jLo, jHi := skew("JJ", tj, a.NJ)
	iLo, iHi := skew("II", ti, a.NI)
	color := ir.Expr{Coeff: map[string]int{"KK": 1, "J": 1}}
	k := ir.Expr{Const: 1, Coeff: map[string]int{"KK": 1, "D": -1}}
	return &ir.Nest{
		Loops: []ir.Loop{
			{Name: "JJ", Lo: ir.BoundOf(ir.Con(0)), Hi: ir.BoundOf(ir.Con(a.NJ - 2)), Step: tj},
			{Name: "II", Lo: ir.BoundOf(ir.Con(0)), Hi: ir.BoundOf(ir.Con(a.NI - 2)), Step: ti},
			ir.SimpleLoop("KK", 0, a.NK-2),
			{
				Name: "D",
				Lo:   ir.BoundOf(ir.Con(0), ir.Expr{Const: 3 - a.NK, Coeff: map[string]int{"KK": 1}}),
				Hi:   ir.BoundOf(ir.Con(1), ir.Var("KK", 0)),
				Step: 1,
			},
			{Name: "J", Lo: jLo, Hi: jHi, Step: 1},
			{Name: "I", Lo: iLo, Hi: iHi, Step: 2, Align: &color},
		},
		Body: redBlackBody(ir.Var("I", 0), ir.Var("J", 0), k),
	}
}
