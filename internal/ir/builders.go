package ir

// Builders for the paper's kernels as IR nests with compute semantics
// attached. Subscripts are zero-based with interior 1..n-2, matching the
// stencil package; the derived Body lists references in the figures'
// operand order, so the trace cross-checks in internal/trace hold.

// JacobiNest builds the original 3D Jacobi nest (Figure 3) over
// n x n x depth arrays A and B: A(i,j,k) = C * (6-point sum of B).
func JacobiNest(n, depth int) *Nest {
	i, j, k := Var("I", 0), Var("J", 0), Var("K", 0)
	nest := &Nest{
		Loops: []Loop{
			SimpleLoop("K", 1, depth-2),
			SimpleLoop("J", 1, n-2),
			SimpleLoop("I", 1, n-2),
		},
	}
	nest.SetCompute(Assign{
		LHS: Ref{Array: "A", Subs: []Expr{i, j, k}},
		Terms: []Term{{
			Coeff: "C",
			Refs: []Ref{
				Load("B", i.Plus(-1), j, k),
				Load("B", i.Plus(1), j, k),
				Load("B", i, j.Plus(-1), k),
				Load("B", i, j.Plus(1), k),
				Load("B", i, j, k.Plus(-1)),
				Load("B", i, j, k.Plus(1)),
			},
		}},
	})
	return nest
}

// RedBlackNest builds one color pass of the red-black SOR sweep
// (Figure 12) as a rectangular step-2 nest over one n x n x depth array:
// A(i,j,k) = C1*A(i,j,k) + C2*(6-point sum of A). Loop.Align can express
// the per-row parity offset of the real kernel (the trace nests in
// internal/stencil use it), but the dependence analysis does not read
// Align, so this nest over-approximates one color by a fixed stride-2
// start — exactly what a dependence analyzer must handle conservatively:
// the in-place update carries plane- and row-distance dependences, and
// the unit I-distances are unrealizable under the step-2 inner loop.
func RedBlackNest(n, depth int) *Nest {
	i, j, k := Var("I", 0), Var("J", 0), Var("K", 0)
	nest := &Nest{
		Loops: []Loop{
			SimpleLoop("K", 1, depth-2),
			SimpleLoop("J", 1, n-2),
			{Name: "I", Lo: BoundOf(Con(1)), Hi: BoundOf(Con(n - 2)), Step: 2},
		},
	}
	nest.SetCompute(Assign{
		LHS: Ref{Array: "A", Subs: []Expr{i, j, k}},
		Terms: []Term{
			{Coeff: "C1", Refs: []Ref{Load("A", i, j, k)}},
			{Coeff: "C2", Refs: []Ref{
				Load("A", i.Plus(-1), j, k),
				Load("A", i.Plus(1), j, k),
				Load("A", i, j.Plus(-1), k),
				Load("A", i, j.Plus(1), k),
				Load("A", i, j, k.Plus(-1)),
				Load("A", i, j, k.Plus(1)),
			}},
		},
	})
	return nest
}

// Jacobi2DNest builds the 2D Jacobi nest (Figure 1) over n x n arrays.
// 2D arrays carry no compute semantics (the interpreter is 3D); only the
// reference body is set.
func Jacobi2DNest(n int) *Nest {
	i, j := Var("I", 0), Var("J", 0)
	return &Nest{
		Loops: []Loop{
			SimpleLoop("J", 1, n-2),
			SimpleLoop("I", 1, n-2),
		},
		Body: []Ref{
			Load("B", i.Plus(-1), j),
			Load("B", i.Plus(1), j),
			Load("B", i, j.Plus(-1)),
			Load("B", i, j.Plus(1)),
			StoreRef("A", i, j),
		},
	}
}

// ResidNest builds the original RESID nest (Figure 13) over n x n x depth
// arrays R, V and U: R = V - A0*center - A1*faces - A2*edges - A3*corners,
// with the subtractions carried by negated terms (bind A0..A3 directly).
func ResidNest(n, depth int) *Nest {
	i1, i2, i3 := Var("I1", 0), Var("I2", 0), Var("I3", 0)
	u := func(d1, d2, d3 int) Ref {
		return Load("U", i1.Plus(d1), i2.Plus(d2), i3.Plus(d3))
	}
	nest := &Nest{
		Loops: []Loop{
			SimpleLoop("I3", 1, depth-2),
			SimpleLoop("I2", 1, n-2),
			SimpleLoop("I1", 1, n-2),
		},
	}
	nest.SetCompute(Assign{
		LHS: Ref{Array: "R", Subs: []Expr{i1, i2, i3}},
		Terms: []Term{
			{Coeff: "ONE", Refs: []Ref{Load("V", i1, i2, i3)}},
			{Coeff: "A0", Neg: true, Refs: []Ref{u(0, 0, 0)}},
			{Coeff: "A1", Neg: true, Refs: []Ref{
				u(-1, 0, 0), u(1, 0, 0),
				u(0, -1, 0), u(0, 1, 0),
				u(0, 0, -1), u(0, 0, 1),
			}},
			{Coeff: "A2", Neg: true, Refs: []Ref{
				u(-1, -1, 0), u(1, -1, 0),
				u(-1, 1, 0), u(1, 1, 0),
				u(0, -1, -1), u(0, 1, -1),
				u(0, -1, 1), u(0, 1, 1),
				u(-1, 0, -1), u(-1, 0, 1),
				u(1, 0, -1), u(1, 0, 1),
			}},
			{Coeff: "A3", Neg: true, Refs: []Ref{
				u(-1, -1, -1), u(1, -1, -1),
				u(-1, 1, -1), u(1, 1, -1),
				u(-1, -1, 1), u(1, -1, 1),
				u(-1, 1, 1), u(1, 1, 1),
			}},
		},
	})
	return nest
}

// JacobiNestDims is JacobiNest over distinct logical extents (ni, nj, nk)
// — the form the parallel scheduler analyzes, since runtime grids need
// not be square. Only the reference body is set.
func JacobiNestDims(ni, nj, nk int) *Nest {
	i, j, k := Var("I", 0), Var("J", 0), Var("K", 0)
	return &Nest{
		Loops: []Loop{
			SimpleLoop("K", 1, nk-2),
			SimpleLoop("J", 1, nj-2),
			SimpleLoop("I", 1, ni-2),
		},
		Body: []Ref{
			Load("B", i.Plus(-1), j, k),
			Load("B", i.Plus(1), j, k),
			Load("B", i, j.Plus(-1), k),
			Load("B", i, j.Plus(1), k),
			Load("B", i, j, k.Plus(-1)),
			Load("B", i, j, k.Plus(1)),
			StoreRef("A", i, j, k),
		},
	}
}

// ResidNestDims is ResidNest over distinct logical extents, body only.
// Aliased treats the V operand as the R array itself — the coarse
// multigrid levels call RESID with v aliasing r, which turns the V load
// into a same-point R load (distance 0) that the scheduler must see.
func ResidNestDims(ni, nj, nk int, aliased bool) *Nest {
	i1, i2, i3 := Var("I1", 0), Var("I2", 0), Var("I3", 0)
	vArray := "V"
	if aliased {
		vArray = "R"
	}
	body := []Ref{Load(vArray, i1, i2, i3)}
	for _, d := range [][3]int{
		{0, 0, 0},
		{-1, 0, 0}, {1, 0, 0}, {0, -1, 0}, {0, 1, 0}, {0, 0, -1}, {0, 0, 1},
		{-1, -1, 0}, {1, -1, 0}, {-1, 1, 0}, {1, 1, 0},
		{0, -1, -1}, {0, 1, -1}, {0, -1, 1}, {0, 1, 1},
		{-1, 0, -1}, {-1, 0, 1}, {1, 0, -1}, {1, 0, 1},
		{-1, -1, -1}, {1, -1, -1}, {-1, 1, -1}, {1, 1, -1},
		{-1, -1, 1}, {1, -1, 1}, {-1, 1, 1}, {1, 1, 1},
	} {
		body = append(body, Load("U", i1.Plus(d[0]), i2.Plus(d[1]), i3.Plus(d[2])))
	}
	body = append(body, StoreRef("R", i1, i2, i3))
	return &Nest{
		Loops: []Loop{
			SimpleLoop("I3", 1, nk-2),
			SimpleLoop("I2", 1, nj-2),
			SimpleLoop("I1", 1, ni-2),
		},
		Body: body,
	}
}

// RedBlackFusedNest models the *fused* red-black kernel the skewed tiles
// execute (RedBlackTiled/redBlackTile): iteration (KK, J, I) performs
// the red update of point (I+1, J+1, KK+1) followed by the black update
// of point (I, J, KK), which is how the kernel's dk=1-then-dk=0 pass
// visits the array. The rectangular step-1 space over-approximates the
// parity-striped reality (every dependence of the real kernel is a
// dependence here), so a schedule legal for this nest is legal for the
// kernel. Tile origins in loop space are uniform (bj*TJ, bi*TI) for
// both statements — the +1 skew lives in the subscripts.
func RedBlackFusedNest(ni, nj, nk int) *Nest {
	i, j, k := Var("I", 0), Var("J", 0), Var("K", 0)
	point := func(oi, oj, ok int) []Ref {
		mk := func(di, dj, dk int) Ref {
			return Load("A", i.Plus(oi+di), j.Plus(oj+dj), k.Plus(ok+dk))
		}
		refs := []Ref{
			mk(0, 0, 0),
			mk(-1, 0, 0), mk(1, 0, 0),
			mk(0, -1, 0), mk(0, 1, 0),
			mk(0, 0, -1), mk(0, 0, 1),
		}
		st := StoreRef("A", i.Plus(oi), j.Plus(oj), k.Plus(ok))
		return append(refs, st)
	}
	body := point(1, 1, 1)                 // red: (I+1, J+1, KK+1)
	body = append(body, point(0, 0, 0)...) // black: (I, J, KK)
	return &Nest{
		Loops: []Loop{
			SimpleLoop("K", 0, nk-2),
			SimpleLoop("J", 0, nj-2),
			SimpleLoop("I", 0, ni-2),
		},
		Body: body,
	}
}

// TimePipelineNest models the time-fused Jacobi pipeline as a 2D nest
// over a virtual plane array W(plane, step): computing plane K of time
// step T reads planes K-1..K+1 of step T-1. Its dependence table gives
// the scheduler the flow cone {(1,-1),(1,0),(1,1)} of time skewing; the
// ring-buffer storage constraints (three live planes per stage) are not
// value dependences and enter the schedule as explicit extra edges.
func TimePipelineNest(steps, planes int) *Nest {
	t, k := Var("T", 0), Var("K", 0)
	return &Nest{
		Loops: []Loop{
			SimpleLoop("T", 1, steps),
			SimpleLoop("K", 1, planes),
		},
		Body: []Ref{
			Load("W", k.Plus(-1), t.Plus(-1)),
			Load("W", k, t.Plus(-1)),
			Load("W", k.Plus(1), t.Plus(-1)),
			StoreRef("W", k, t),
		},
	}
}

// PsinvNest models the MG smoother u += C r: the U store and load touch
// only the iteration's own point, and R is never written, so the nest
// carries no loop-carried dependences — every plane (and every tile) is
// independent.
//
// The body lists the 27 R operands in the operator's per-point order
// (center row, faces, edges, corners), then the U read and store.
func PsinvNest(m int) *Nest {
	i, j, k := Var("I", 0), Var("J", 0), Var("K", 0)
	var body []Ref
	for _, d := range psinvOrder {
		body = append(body, Load("R", i.Plus(d[0]), j.Plus(d[1]), k.Plus(d[2])))
	}
	body = append(body, Load("U", i, j, k), StoreRef("U", i, j, k))
	return &Nest{
		Loops: []Loop{
			SimpleLoop("K", 1, m-2),
			SimpleLoop("J", 1, m-2),
			SimpleLoop("I", 1, m-2),
		},
		Body: body,
	}
}

// psinvOrder is the smoother's per-point operand order as (di, dj, dk)
// offsets: the center, its six faces, the twelve edges, the eight corners.
var psinvOrder = [27][3]int{
	{0, 0, 0}, {-1, 0, 0}, {1, 0, 0},
	{0, -1, 0}, {0, 1, 0}, {0, 0, -1}, {0, 0, 1},
	{-1, -1, 0}, {1, -1, 0}, {-1, 1, 0}, {1, 1, 0},
	{0, -1, -1}, {0, 1, -1}, {0, -1, 1}, {0, 1, 1},
	{-1, 0, -1}, {1, 0, -1}, {-1, 0, 1}, {1, 0, 1},
	{-1, -1, -1}, {1, -1, -1}, {-1, 1, -1}, {1, 1, -1},
	{-1, -1, 1}, {1, -1, 1}, {-1, 1, 1}, {1, 1, 1},
}

// Rprj3Nest models the MG restriction coarse = R fine: coarse point
// (I,J,K) reads fine points around (2I,2J,2K). The fine array is never
// written and every coarse point is written once, so the nest carries no
// dependences; the scaled subscripts exercise the analyzer's
// coeff*var+const support. The body visits the nine fine (J, K) rows in
// the operator's order (center, faces, edges), each at I offsets -1, 0,
// +1, then stores the coarse point.
func Rprj3Nest(mc int) *Nest {
	i, j, k := Var("I", 0), Var("J", 0), Var("K", 0)
	fi := Expr{Coeff: map[string]int{"I": 2}}
	fj := Expr{Coeff: map[string]int{"J": 2}}
	fk := Expr{Coeff: map[string]int{"K": 2}}
	var body []Ref
	for _, d := range [9][2]int{{0, 0}, {-1, 0}, {1, 0}, {0, -1}, {0, 1}, {-1, -1}, {1, -1}, {-1, 1}, {1, 1}} {
		for di := -1; di <= 1; di++ {
			body = append(body, Load("FINE", fi.Plus(di), fj.Plus(d[0]), fk.Plus(d[1])))
		}
	}
	body = append(body, StoreRef("COARSE", i, j, k))
	return &Nest{
		Loops: []Loop{
			SimpleLoop("K", 1, mc-2),
			SimpleLoop("J", 1, mc-2),
			SimpleLoop("I", 1, mc-2),
		},
		Body: body,
	}
}

// InterpNest models the MG prolongation fine += P coarse: iteration
// (K,J,I) updates the eight fine points (2I+di, 2J+dj, 2K+dk). Distinct
// parities never collide ((2I+1) - 2I' = odd has no integer solution),
// which the scaled-subscript analysis proves, leaving only same-point
// zero distances — so K planes are independent despite each iteration
// writing two fine planes.
func InterpNest(mc int) *Nest {
	i, j, k := Var("I", 0), Var("J", 0), Var("K", 0)
	fi := Expr{Coeff: map[string]int{"I": 2}}
	fj := Expr{Coeff: map[string]int{"J": 2}}
	fk := Expr{Coeff: map[string]int{"K": 2}}
	var body []Ref
	for dk := 0; dk <= 1; dk++ {
		for dj := 0; dj <= 1; dj++ {
			for di := 0; di <= 1; di++ {
				body = append(body, Load("COARSE", i.Plus(di), j.Plus(dj), k.Plus(dk)))
			}
		}
	}
	for dk := 0; dk <= 1; dk++ {
		for dj := 0; dj <= 1; dj++ {
			for di := 0; di <= 1; di++ {
				body = append(body, Load("FINE", fi.Plus(di), fj.Plus(dj), fk.Plus(dk)))
				body = append(body, StoreRef("FINE", fi.Plus(di), fj.Plus(dj), fk.Plus(dk)))
			}
		}
	}
	return &Nest{
		Loops: []Loop{
			SimpleLoop("K", 0, mc-2),
			SimpleLoop("J", 0, mc-2),
			SimpleLoop("I", 0, mc-2),
		},
		Body: body,
	}
}
