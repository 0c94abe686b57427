// Package mg implements a multigrid Poisson-type solver in the style of
// the SPEC/NAS MGRID benchmark, the application of the paper's
// Section 4.6 experiment.
//
// The solver runs V-cycles built from the four NAS MG operators:
//
//	resid  r = v - A u        (27-point residual — the RESID kernel)
//	psinv  u = u + C r        (27-point smoother)
//	rprj3  coarse = R fine    (full-weighting restriction)
//	interp fine += P coarse   (trilinear prolongation)
//
// resid on the finest grid dominates the run time, exactly as in MGRID
// (about 60% of total there). The solver can apply the paper's
// transformation — tiling resid with a GcdPad/Pad plan, padding only the
// finest-level arrays — and the tests verify the transformed solver
// produces bit-identical iterates.
//
// Grids use zero Dirichlet boundaries. Level l holds (2^l + 2)^3 points
// including boundary; the SPEC reference size 130^3 corresponds to lm=7.
package mg

import (
	"fmt"
	"math"

	"tiling3d/internal/core"
	"tiling3d/internal/grid"
	"tiling3d/internal/stencil"
)

// Params configures a solver.
type Params struct {
	// LM is log2 of the finest interior extent: the finest grid has
	// (2^LM + 2)^3 points. SPEC MGRID's reference input is LM = 7 (130^3).
	LM int
	// A holds the residual stencil coefficients (a0..a3); zero value
	// selects the NAS values (-8/3, 0, 1/6, 1/12).
	A [4]float64
	// C holds the smoother coefficients (c0..c3); zero value selects the
	// NAS class-A values (-3/8, 1/32, -1/64, 0).
	C [4]float64
	// Plan optionally tiles (and pads) the finest-level resid, the
	// paper's Section 4.6 transformation. The zero Plan runs the original
	// code.
	Plan core.Plan
	// TileSmoother additionally tiles the finest-level psinv with the
	// same plan — the "remaining subroutines" the paper expects further
	// improvement from.
	TileSmoother bool
	// Workers distributes every level's operators over that many
	// goroutines (0 or 1 runs serially; negative panics in New) under
	// certified plane- or tile-batch schedules. Iterates are
	// bit-identical to the serial solver for every worker count.
	Workers int
}

func (p Params) withDefaults() Params {
	if p.A == ([4]float64{}) {
		p.A = [4]float64{-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0}
	}
	if p.C == ([4]float64{}) {
		p.C = [4]float64{-3.0 / 8.0, 1.0 / 32.0, -1.0 / 64.0, 0.0}
	}
	return p
}

// Solver holds the grid hierarchy. Like MGRID's three large Fortran
// arrays, each of u and r is one arena of levels placed back to back
// (coarsest first), so simulated addresses reflect the benchmark layout.
type Solver struct {
	p Params
	// u and r have one grid per level, index l = 1..LM (u[0], r[0] unused).
	u, r []*grid.Grid3D
	// v is the right-hand side on the finest grid only.
	v *grid.Grid3D
}

// New builds the hierarchy for the given parameters. If p.Plan pads, only
// the finest-level arrays are padded ("declaring a new padded array", as
// the paper does for MGRID, since pads cannot be threaded through the 1D
// index arithmetic of the coarser levels).
func New(p Params) *Solver {
	return newSolver(p, grid.Must3DPadded)
}

// newSolver builds a solver whose grids come from alloc: New allocates
// their storage, while the simulated experiment passes grid.Must3DShape,
// because a trace reads only the layout. Both place the grids alike.
func newSolver(p Params, alloc func(ni, nj, nk, di, dj int) *grid.Grid3D) *Solver {
	p = p.withDefaults()
	if p.LM < 1 || p.LM > 10 {
		panic(fmt.Sprintf("mg: LM=%d out of range [1,10]", p.LM))
	}
	if p.Workers < 0 {
		panic(fmt.Sprintf("mg: Workers=%d negative (0 or 1 = serial)", p.Workers))
	}
	s := &Solver{p: p}
	s.u = make([]*grid.Grid3D, p.LM+1)
	s.r = make([]*grid.Grid3D, p.LM+1)
	// One address space for everything, laid out like MGRID's three big
	// Fortran arrays — all u levels (coarsest first), then all r levels,
	// then v — so simulated addresses reflect the benchmark layout.
	arena := grid.NewArena()
	dims := func(l int) (m, di, dj int) {
		m = (1 << l) + 2
		di, dj = m, m
		if l == p.LM && p.Plan.DI >= m {
			di, dj = p.Plan.DI, p.Plan.DJ
		}
		return
	}
	for l := 1; l <= p.LM; l++ {
		m, di, dj := dims(l)
		s.u[l] = arena.Place(alloc(m, m, m, di, dj))
	}
	for l := 1; l <= p.LM; l++ {
		m, di, dj := dims(l)
		s.r[l] = arena.Place(alloc(m, m, m, di, dj))
	}
	fm, fdi, fdj := dims(p.LM)
	s.v = arena.Place(alloc(fm, fm, fm, fdi, fdj))
	return s
}

// N returns the finest interior extent 2^LM.
func (s *Solver) N() int { return 1 << s.p.LM }

// Finest returns the finest-level solution grid.
func (s *Solver) Finest() *grid.Grid3D { return s.u[s.p.LM] }

// SetRHS fills the finest-level right-hand side from f over the interior
// and zeroes the solution, preparing a fresh solve.
func (s *Solver) SetRHS(f func(i, j, k int) float64) {
	s.v.Fill(0)
	fm := s.v.NI
	for k := 1; k <= fm-2; k++ {
		for j := 1; j <= fm-2; j++ {
			for i := 1; i <= fm-2; i++ {
				s.v.Set(i, j, k, f(i, j, k))
			}
		}
	}
	for l := 1; l <= s.p.LM; l++ {
		s.u[l].Fill(0)
		s.r[l].Fill(0)
	}
}

// SetPointCharges installs the MGRID-style right-hand side: +1 and -1
// spikes at pseudo-random interior points, zero elsewhere.
func (s *Solver) SetPointCharges(count int) {
	n := s.N()
	s.SetRHS(func(i, j, k int) float64 { return 0 })
	h := uint64(88172645463325252)
	next := func() int {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
		return int(h%uint64(n)) + 1
	}
	for c := 0; c < count; c++ {
		sign := 1.0
		if c%2 == 1 {
			sign = -1
		}
		s.v.Set(next(), next(), next(), sign)
	}
}

// Resid computes r = v - A u on the finest level, tiled per the plan.
// Exposed separately because it is the kernel the paper transforms.
func (s *Solver) Resid() {
	s.residLevel(s.p.LM, s.v)
}

// par reports whether operators run under certified parallel schedules.
func (s *Solver) par() bool { return s.p.Workers > 1 }

// residLevel computes r = v - A u for any level with explicit operands
// (coarser levels use r as both input and output storage, like MGRID).
func (s *Solver) residLevel(l int, v *grid.Grid3D) {
	if l == s.p.LM && s.p.Plan.Tiled {
		if s.par() {
			stencil.ResidTiledParallel(s.r[l], v, s.u[l], s.p.A, s.p.Plan.Tile.TI, s.p.Plan.Tile.TJ, s.p.Workers)
		} else {
			stencil.ResidTiled(s.r[l], v, s.u[l], s.p.A, s.p.Plan.Tile.TI, s.p.Plan.Tile.TJ)
		}
		return
	}
	s.residInto(s.r[l], v, s.u[l])
}

// residInto computes r = v - A u with explicit operands under the
// configured execution mode; the parallel path schedules per-J-row
// tiles (full I span), which preserves every point's operand order.
// The coarser levels pass v aliased to r — ResidTiledParallel detects
// the alias and derives its schedule from the aliased nest.
func (s *Solver) residInto(r, v, u *grid.Grid3D) {
	if s.par() {
		stencil.ResidTiledParallel(r, v, u, s.p.A, r.NI, 1, s.p.Workers)
		return
	}
	stencil.ResidOrig(r, v, u, s.p.A)
}

// smooth applies psinv under the configured execution mode.
func (s *Solver) smooth(u, r *grid.Grid3D) {
	if s.par() {
		psinvParallel(u, r, s.p.C, s.p.Workers)
		return
	}
	psinv(u, r, s.p.C)
}

// smoothFinest applies the finest-level smoother, tiled when the plan
// extends to it (TileSmoother).
func (s *Solver) smoothFinest(u, r *grid.Grid3D) {
	if !(s.p.TileSmoother && s.p.Plan.Tiled) {
		s.smooth(u, r)
		return
	}
	ti, tj := s.p.Plan.Tile.TI, s.p.Plan.Tile.TJ
	if s.par() {
		psinvTiledParallel(u, r, s.p.C, ti, tj, s.p.Workers)
		return
	}
	psinvTiled(u, r, s.p.C, ti, tj)
}

// restrict applies rprj3 under the configured execution mode.
func (s *Solver) restrict(coarse, fine *grid.Grid3D) {
	if s.par() {
		rprj3Parallel(coarse, fine, s.p.Workers)
		return
	}
	rprj3(coarse, fine)
}

// prolongate applies interp under the configured execution mode.
func (s *Solver) prolongate(fine, coarse *grid.Grid3D) {
	if s.par() {
		interpParallel(fine, coarse, s.p.Workers)
		return
	}
	interp(fine, coarse)
}

// VCycle performs one MG V-cycle (the NAS mg3P structure): restrict the
// residual to the coarsest level, solve there with one smoothing, then
// prolongate upward applying resid + smooth at each level.
func (s *Solver) VCycle() {
	lm := s.p.LM
	// Downward: restrict residuals.
	for l := lm; l >= 2; l-- {
		s.restrict(s.r[l-1], s.r[l])
	}
	// Coarsest: u = C r.
	s.u[1].Fill(0)
	s.smooth(s.u[1], s.r[1])
	// Upward.
	for l := 2; l < lm; l++ {
		s.u[l].Fill(0)
		s.prolongate(s.u[l], s.u[l-1])
		s.residLevel(l, s.r[l]) // r_l := r_l - A u_l (v = current r)
		s.smooth(s.u[l], s.r[l])
	}
	// Finest level: accumulate into the solution.
	if lm >= 2 {
		s.prolongate(s.u[lm], s.u[lm-1])
	}
	s.residLevel(lm, s.v)
	s.smoothFinest(s.u[lm], s.r[lm])
}

// Iterate runs the MGRID main loop: an initial residual, then n V-cycles,
// returning the final residual L2 norm.
func (s *Solver) Iterate(n int) float64 {
	s.Resid()
	for it := 0; it < n; it++ {
		s.VCycle()
	}
	s.Resid()
	return s.ResidualNorm()
}

// fmg performs one full-multigrid pass: restrict the right-hand side to
// every level, solve coarsest-first, and prolongate each level's solution
// as the next finer level's initial guess, finishing with vPerLevel
// V-cycles at the finest level. FMG reaches discretization-level accuracy
// in a single pass where plain V-cycling needs several; the NAS benchmark
// itself uses V-cycles, so this is the solver-quality extension.
func (s *Solver) fmg(vPerLevel int) float64 {
	lm := s.p.LM
	// Restrict the RHS down the hierarchy, reusing r as scratch.
	rhs := make([]*grid.Grid3D, lm+1)
	rhs[lm] = s.v
	for l := lm - 1; l >= 1; l-- {
		m := (1 << l) + 2
		rhs[l] = grid.New3D(m, m, m)
		s.restrict(rhs[l], rhs[l+1])
	}
	// Coarsest: smooth from zero.
	s.u[1].Fill(0)
	s.residInto(s.r[1], rhs[1], s.u[1])
	s.smooth(s.u[1], s.r[1])
	// Work upward: prolongate, then refine with V-like sweeps against
	// this level's RHS.
	for l := 2; l <= lm; l++ {
		s.u[l].Fill(0)
		s.prolongate(s.u[l], s.u[l-1])
		for v := 0; v < vPerLevel; v++ {
			s.partialVCycle(l, rhs[l])
		}
	}
	s.Resid()
	return s.ResidualNorm()
}

// partialVCycle runs one V-cycle confined to levels 1..top against the
// given right-hand side at level top.
func (s *Solver) partialVCycle(top int, rhs *grid.Grid3D) {
	s.residLevel(top, rhs)
	for l := top; l >= 2; l-- {
		s.restrict(s.r[l-1], s.r[l])
	}
	corr := make([]*grid.Grid3D, top+1)
	corr[1] = grid.New3D(s.u[1].NI, s.u[1].NJ, s.u[1].NK)
	s.smooth(corr[1], s.r[1])
	for l := 2; l <= top; l++ {
		m := s.u[l].NI
		di, dj := s.u[l].DI, s.u[l].DJ
		corr[l] = grid.Must3DPadded(m, m, m, di, dj) //lint:allow mustcheck -- dims copied from existing grids
		s.prolongate(corr[l], corr[l-1])
		if l < top {
			s.residInto(s.r[l], s.r[l], corr[l])
			s.smooth(corr[l], s.r[l])
		}
	}
	// Apply the correction at the top level and post-smooth.
	ud, cd := s.u[top].Data, corr[top].Data
	for i := range ud {
		ud[i] += cd[i]
	}
	s.residLevel(top, rhs)
	if top == s.p.LM {
		s.smoothFinest(s.u[top], s.r[top])
	} else {
		s.smooth(s.u[top], s.r[top])
	}
}

// ResidualNorm returns the L2 norm of the finest residual over interior
// points (MGRID's norm2u3 L2 component).
func (s *Solver) ResidualNorm() float64 {
	r := s.r[s.p.LM]
	m := r.NI
	var sum float64
	for k := 1; k <= m-2; k++ {
		for j := 1; j <= m-2; j++ {
			for i := 1; i <= m-2; i++ {
				x := r.At(i, j, k)
				sum += x * x
			}
		}
	}
	n := float64(m-2) * float64(m-2) * float64(m-2)
	return math.Sqrt(sum / n)
}
