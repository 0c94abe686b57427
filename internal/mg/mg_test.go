package mg

import (
	"math"
	"testing"

	"tiling3d/internal/core"
	"tiling3d/internal/grid"
	"tiling3d/internal/stencil"
)

func TestVCycleReducesResidual(t *testing.T) {
	s := New(Params{LM: 5})
	s.SetRHS(func(i, j, k int) float64 {
		x := float64(i) / 33
		y := float64(j) / 33
		z := float64(k) / 33
		return math.Sin(math.Pi*x) * math.Sin(math.Pi*y) * math.Sin(math.Pi*z)
	})
	s.Resid()
	initial := s.ResidualNorm()
	norm := s.Iterate(6)
	if norm >= initial/100 {
		t.Errorf("6 V-cycles reduced residual only from %g to %g", initial, norm)
	}
}

func TestVCycleConvergencePointCharges(t *testing.T) {
	s := New(Params{LM: 5})
	s.SetPointCharges(10)
	s.Resid()
	initial := s.ResidualNorm()
	prev := initial
	for it := 0; it < 5; it++ {
		s.VCycle()
		s.Resid()
		n := s.ResidualNorm()
		if n >= prev {
			t.Fatalf("V-cycle %d did not reduce residual: %g -> %g", it, prev, n)
		}
		prev = n
	}
	if prev > initial*0.05 {
		t.Errorf("5 V-cycles: residual %g of initial %g (>5%%)", prev, initial)
	}
}

func TestFMGConverges(t *testing.T) {
	rhs := func(i, j, k int) float64 {
		h := 1.0 / 33
		x, y, z := float64(i)*h, float64(j)*h, float64(k)*h
		return math.Sin(math.Pi*x) * math.Sin(math.Pi*y) * math.Sin(2*math.Pi*z)
	}
	fmgSolver := New(Params{LM: 5})
	fmgSolver.SetRHS(rhs)
	fmgNorm := fmgSolver.FMG(2)

	v2 := New(Params{LM: 5})
	v2.SetRHS(rhs)
	v2.Resid()
	initial := v2.ResidualNorm()
	v2Norm := v2.Iterate(2)

	if fmgNorm >= initial/10 {
		t.Errorf("FMG pass reduced residual only from %g to %g", initial, fmgNorm)
	}
	// One FMG pass with 2 sweeps per level should at least rival 2 plain
	// V-cycles at the finest level.
	if fmgNorm > v2Norm*5 {
		t.Errorf("FMG %g much worse than 2 V-cycles %g", fmgNorm, v2Norm)
	}
}

func TestFMGTiledIdentical(t *testing.T) {
	const lm = 4
	fm := (1 << lm) + 2
	plan := core.Select(core.MethodGcdPad, 256, fm, fm, stencil.Resid.Spec())
	orig := New(Params{LM: lm})
	tiled := New(Params{LM: lm, Plan: plan})
	orig.SetPointCharges(6)
	tiled.SetPointCharges(6)
	n1 := orig.FMG(2)
	n2 := tiled.FMG(2)
	if n1 != n2 {
		t.Errorf("FMG norms differ: %g vs %g", n1, n2)
	}
	if d := orig.Finest().MaxAbsDiff(tiled.Finest()); d != 0 {
		t.Errorf("FMG tiled solution differs by %g", d)
	}
}

// TestTiledSolverIdentical is the core Section 4.6 correctness claim:
// tiling (and padding) RESID at the finest level changes no bit of the
// computation.
func TestTiledSolverIdentical(t *testing.T) {
	const lm = 4
	fm := (1 << lm) + 2
	for _, m := range []core.Method{core.MethodTile, core.MethodEuc3D, core.MethodGcdPad, core.MethodPad} {
		plan := core.Select(m, 256, fm, fm, stencil.Resid.Spec())
		orig := New(Params{LM: lm})
		tiled := New(Params{LM: lm, Plan: plan})
		orig.SetPointCharges(8)
		tiled.SetPointCharges(8)
		orig.Iterate(3)
		tiled.Iterate(3)
		if d := orig.Finest().MaxAbsDiff(tiled.Finest()); d != 0 {
			t.Errorf("%v: tiled solver diverged from original by %g (plan %+v)", m, d, plan)
		}
		if d := orig.Residual().MaxAbsDiff(tiled.Residual()); d != 0 {
			t.Errorf("%v: tiled residual differs by %g", m, d)
		}
	}
}

func TestTiledSmootherIdentical(t *testing.T) {
	const lm = 4
	fm := (1 << lm) + 2
	plan := core.Select(core.MethodGcdPad, 256, fm, fm, stencil.Resid.Spec())
	orig := New(Params{LM: lm})
	tiled := New(Params{LM: lm, Plan: plan, TileSmoother: true})
	orig.SetPointCharges(8)
	tiled.SetPointCharges(8)
	orig.Iterate(3)
	tiled.Iterate(3)
	if d := orig.Finest().MaxAbsDiff(tiled.Finest()); d != 0 {
		t.Errorf("tiled-smoother solver diverged by %g", d)
	}
}

func TestPaddedFinestLevelLayout(t *testing.T) {
	fm := 18
	plan := core.GcdPad(256, fm, fm, stencil.Resid.Spec())
	s := New(Params{LM: 4, Plan: plan})
	f := s.Finest()
	if f.DI != plan.DI || f.DJ != plan.DJ {
		t.Errorf("finest level dims (%d,%d), want plan (%d,%d)", f.DI, f.DJ, plan.DI, plan.DJ)
	}
	if c := s.u[3]; c.DI != 10 || c.DJ != 10 {
		t.Errorf("coarser level should stay unpadded, got (%d,%d)", c.DI, c.DJ)
	}
}

// TestRestrictionProlongationAdjoint checks the variational property of
// the NAS transfer operators: full weighting is half the transpose of
// trilinear interpolation, so <R r, u>_coarse = (1/2) <r, P u>_fine for
// any r (fine) and u (coarse, zero boundary).
func TestRestrictionProlongationAdjoint(t *testing.T) {
	fineM, coarseM := 18, 10 // lm=4 over lm=3
	rng := func(seed int) func(i, j, k int) float64 {
		return func(i, j, k int) float64 {
			h := uint64(seed)*1099511628211 + uint64(i*73856093^j*19349663^k*83492791)
			h ^= h >> 29
			h *= 2654435761
			return float64(h%10000)/5000 - 1
		}
	}
	for trial := 0; trial < 5; trial++ {
		// Residuals vanish on the boundary (resid writes interior only),
		// which is exactly the condition under which the identity holds:
		// rprj3 gathers and interp scatters across the boundary ring.
		r := grid.New3D(fineM, fineM, fineM)
		r.FillFunc(func(i, j, k int) float64 {
			if i == 0 || j == 0 || k == 0 || i == fineM-1 || j == fineM-1 || k == fineM-1 {
				return 0
			}
			return rng(trial)(i, j, k)
		})
		u := grid.New3D(coarseM, coarseM, coarseM)
		u.FillFunc(func(i, j, k int) float64 {
			if i == 0 || j == 0 || k == 0 || i == coarseM-1 || j == coarseM-1 || k == coarseM-1 {
				return 0
			}
			return rng(trial+100)(i, j, k)
		})

		rc := grid.New3D(coarseM, coarseM, coarseM)
		rprj3(rc, r)
		var lhs float64
		for k := 1; k <= coarseM-2; k++ {
			for j := 1; j <= coarseM-2; j++ {
				for i := 1; i <= coarseM-2; i++ {
					lhs += rc.At(i, j, k) * u.At(i, j, k)
				}
			}
		}

		pu := grid.New3D(fineM, fineM, fineM)
		interp(pu, u)
		var rhs float64
		for k := 1; k <= fineM-2; k++ {
			for j := 1; j <= fineM-2; j++ {
				for i := 1; i <= fineM-2; i++ {
					rhs += r.At(i, j, k) * pu.At(i, j, k)
				}
			}
		}
		if d := math.Abs(lhs - rhs/2); d > 1e-9*math.Max(1, math.Abs(lhs)) {
			t.Errorf("trial %d: <Rr,u>=%g, <r,Pu>/2=%g", trial, lhs, rhs/2)
		}
	}
}

func TestRprj3FullWeighting(t *testing.T) {
	fine := grid.New3D(10, 10, 10) // lm=3: 8 interior
	coarse := grid.New3D(6, 6, 6)
	fine.FillFunc(func(i, j, k int) float64 { return 1 })
	rprj3(coarse, fine)
	// Interior coarse points away from the boundary see all 27 fine ones:
	// 0.5 + 6*0.25 + 12*0.125 + 8*0.0625 = 4.
	if got := coarse.At(2, 2, 2); math.Abs(got-4) > 1e-12 {
		t.Errorf("restriction of constant 1 = %g at center, want 4", got)
	}
	// Linear functions restrict to linear: full weighting is symmetric.
	fine.FillFunc(func(i, j, k int) float64 { return float64(i) })
	rprj3(coarse, fine)
	if got := coarse.At(2, 2, 2); math.Abs(got-4*4) > 1e-12 {
		t.Errorf("restriction of f=i at coarse i=2: %g, want 16 (4*fine value at 2i)", got)
	}
}

func TestInterpTrilinear(t *testing.T) {
	coarse := grid.New3D(6, 6, 6)
	fine := grid.New3D(10, 10, 10)
	coarse.FillFunc(func(i, j, k int) float64 {
		if i == 0 || j == 0 || k == 0 || i == 5 || j == 5 || k == 5 {
			return 0 // zero Dirichlet boundary
		}
		return float64(2 * i)
	})
	interp(fine, coarse)
	// Coincident interior point: fine(4,4,4) = coarse(2,2,2) = 4.
	if got := fine.At(4, 4, 4); got != 4 {
		t.Errorf("coincident interp = %g, want 4", got)
	}
	// Midpoint in i between coarse 2 and 3 (away from boundary):
	// fine(5,4,4) = (4+6)/2 = 5.
	if got := fine.At(5, 4, 4); got != 5 {
		t.Errorf("i-midpoint interp = %g, want 5", got)
	}
	// Cell center: average of 8 corners.
	want := (4.0 + 6 + 4 + 6 + 4 + 6 + 4 + 6) / 8
	if got := fine.At(5, 5, 5); got != want {
		t.Errorf("cell-center interp = %g, want %g", got, want)
	}
	// interp adds: a second application doubles the value.
	interp(fine, coarse)
	if got := fine.At(4, 4, 4); got != 8 {
		t.Errorf("interp is not additive: %g, want 8", got)
	}
}

// noiseGrid returns an m^3 grid with leading dimensions (di, dj), its
// logical elements pseudo-random and its padding set to a sentinel no
// operator may read.
func noiseGrid(m, di, dj int, seed uint64) *grid.Grid3D {
	g := grid.Must3DPadded(m, m, m, di, dj)
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

// levelPair is a fine level of extent fm with leading dimensions (di, dj)
// over its unpadded coarse level of extent cm.
type levelPair struct{ fm, cm, di, dj int }

// levelPairs are the level pairs at LM 2..4, each with the fine level
// unpadded and padded as a tiled solver's finest level is.
func levelPairs() []levelPair {
	var ps []levelPair
	for lm := 2; lm <= 4; lm++ {
		fm, cm := (1<<lm)+2, (1<<(lm-1))+2
		ps = append(ps, levelPair{fm, cm, fm, fm}, levelPair{fm, cm, fm + 13, fm + 5})
	}
	return ps
}

// TestPsinvMatchesDefinition pins psinv, untiled and tiled, bit for bit
// against the smoother evaluated point by point in the kernel's operand
// order: center, faces, edges, corners.
func TestPsinvMatchesDefinition(t *testing.T) {
	c := [4]float64{-0.375, 1.0 / 32, -1.0 / 64, 0.01}
	for _, p := range levelPairs() {
		m := p.fm
		r := noiseGrid(m, p.di, p.dj, 1)
		want := noiseGrid(m, p.di, p.dj, 2)
		at := r.At
		for k := 1; k <= m-2; k++ {
			for j := 1; j <= m-2; j++ {
				for i := 1; i <= m-2; i++ {
					want.Set(i, j, k, want.At(i, j, k)+(c[0]*at(i, j, k)+
						c[1]*(at(i-1, j, k)+at(i+1, j, k)+
							at(i, j-1, k)+at(i, j+1, k)+
							at(i, j, k-1)+at(i, j, k+1))+
						c[2]*(at(i-1, j-1, k)+at(i+1, j-1, k)+
							at(i-1, j+1, k)+at(i+1, j+1, k)+
							at(i, j-1, k-1)+at(i, j+1, k-1)+
							at(i, j-1, k+1)+at(i, j+1, k+1)+
							at(i-1, j, k-1)+at(i+1, j, k-1)+
							at(i-1, j, k+1)+at(i+1, j, k+1))+
						c[3]*(at(i-1, j-1, k-1)+at(i+1, j-1, k-1)+
							at(i-1, j+1, k-1)+at(i+1, j+1, k-1)+
							at(i-1, j-1, k+1)+at(i+1, j-1, k+1)+
							at(i-1, j+1, k+1)+at(i+1, j+1, k+1))))
				}
			}
		}
		u := noiseGrid(m, p.di, p.dj, 2)
		psinv(u, r, c)
		if d := u.MaxAbsDiff(want); d != 0 {
			t.Errorf("m=%d di=%d: psinv differs from its definition by %g", m, p.di, d)
		}
		for _, tile := range [][2]int{{1, 1}, {3, 2}, {5, 7}} {
			u := noiseGrid(m, p.di, p.dj, 2)
			psinvTiled(u, r, c, tile[0], tile[1])
			if d := u.MaxAbsDiff(want); d != 0 {
				t.Errorf("m=%d di=%d tile %v: psinvTiled differs from its definition by %g", m, p.di, tile, d)
			}
		}
	}
}

// TestRprj3MatchesPointReference pins the restriction bit for bit against
// its full-weighting sum evaluated point by point in the kernel's order.
func TestRprj3MatchesPointReference(t *testing.T) {
	for _, p := range levelPairs() {
		fine := noiseGrid(p.fm, p.di, p.dj, 3)
		f := fine.At
		want := noiseGrid(p.cm, p.cm, p.cm, 4)
		for k := 1; k <= p.cm-2; k++ {
			for j := 1; j <= p.cm-2; j++ {
				for i := 1; i <= p.cm-2; i++ {
					x, y, z := 2*i, 2*j, 2*k
					want.Set(i, j, k, 0.5*f(x, y, z)+
						0.25*(f(x-1, y, z)+f(x+1, y, z)+
							f(x, y-1, z)+f(x, y+1, z)+
							f(x, y, z-1)+f(x, y, z+1))+
						0.125*(f(x-1, y-1, z)+f(x+1, y-1, z)+
							f(x-1, y+1, z)+f(x+1, y+1, z)+
							f(x, y-1, z-1)+f(x, y+1, z-1)+
							f(x, y-1, z+1)+f(x, y+1, z+1)+
							f(x-1, y, z-1)+f(x+1, y, z-1)+
							f(x-1, y, z+1)+f(x+1, y, z+1))+
						0.0625*(f(x-1, y-1, z-1)+f(x+1, y-1, z-1)+
							f(x-1, y+1, z-1)+f(x+1, y+1, z-1)+
							f(x-1, y-1, z+1)+f(x+1, y-1, z+1)+
							f(x-1, y+1, z+1)+f(x+1, y+1, z+1)))
				}
			}
		}
		coarse := noiseGrid(p.cm, p.cm, p.cm, 4)
		rprj3(coarse, fine)
		if d := coarse.MaxAbsDiff(want); d != 0 {
			t.Errorf("fine m=%d di=%d: rprj3 differs from its definition by %g", p.fm, p.di, d)
		}
	}
}

// TestInterpMatchesPointReference pins the prolongation bit for bit
// against the trilinear average added point by point. Every fine point
// receives one addition per call, so the reference may visit the fine
// points in any order.
func TestInterpMatchesPointReference(t *testing.T) {
	for _, p := range levelPairs() {
		coarse := noiseGrid(p.cm, p.cm, p.cm, 5)
		want := noiseGrid(p.fm, p.di, p.dj, 6)
		for k := 0; k <= p.cm-2; k++ {
			for j := 0; j <= p.cm-2; j++ {
				for i := 0; i <= p.cm-2; i++ {
					u := func(di, dj, dk int) float64 { return coarse.At(i+di, j+dj, k+dk) }
					u000, u100, u010, u110 := u(0, 0, 0), u(1, 0, 0), u(0, 1, 0), u(1, 1, 0)
					u001, u101, u011, u111 := u(0, 0, 1), u(1, 0, 1), u(0, 1, 1), u(1, 1, 1)
					add := func(di, dj, dk int, v float64) {
						x, y, z := 2*i+di, 2*j+dj, 2*k+dk
						want.Set(x, y, z, want.At(x, y, z)+v)
					}
					add(0, 0, 0, u000)
					add(1, 0, 0, 0.5*(u000+u100))
					add(0, 1, 0, 0.5*(u000+u010))
					add(1, 1, 0, 0.25*(u000+u100+u010+u110))
					add(0, 0, 1, 0.5*(u000+u001))
					add(1, 0, 1, 0.25*(u000+u100+u001+u101))
					add(0, 1, 1, 0.25*(u000+u010+u001+u011))
					add(1, 1, 1, 0.125*(u000+u100+u010+u110+u001+u101+u011+u111))
				}
			}
		}
		fine := noiseGrid(p.fm, p.di, p.dj, 6)
		interp(fine, coarse)
		if d := fine.MaxAbsDiff(want); d != 0 {
			t.Errorf("fine m=%d di=%d: interp differs from its definition by %g", p.fm, p.di, d)
		}
	}
}

func TestSetRHSResets(t *testing.T) {
	s := New(Params{LM: 3})
	s.SetPointCharges(4)
	s.Iterate(2)
	s.SetRHS(func(i, j, k int) float64 { return 1 })
	if s.Finest().At(3, 3, 3) != 0 {
		t.Error("SetRHS did not zero the solution")
	}
	if s.v.At(3, 3, 3) != 1 {
		t.Error("SetRHS did not set the RHS")
	}
}

func TestExperimentRunsAndAgrees(t *testing.T) {
	res := RunExperiment(4, 2, 256, core.MethodGcdPad)
	if !res.Identical {
		t.Error("tiled MGRID run not identical to original")
	}
	if res.FinalNorm <= 0 || math.IsNaN(res.FinalNorm) {
		t.Errorf("bad final norm %g", res.FinalNorm)
	}
	if !res.Plan.Tiled {
		t.Error("experiment plan is not tiled")
	}
}
