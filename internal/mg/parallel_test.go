package mg

import (
	"testing"

	"tiling3d/internal/core"
)

// mgDiff returns the largest absolute element difference across the
// whole hierarchies (u and r at every level) of two solvers.
func mgDiff(a, b *Solver) float64 {
	d := 0.0
	for l := 1; l <= a.p.LM; l++ {
		if x := a.u[l].MaxAbsDiff(b.u[l]); x > d {
			d = x
		}
		if x := a.r[l].MaxAbsDiff(b.r[l]); x > d {
			d = x
		}
	}
	return d
}

// TestParallelVCycleBitIdentical: the scheduled solver produces the
// exact bytes of the serial solver at every level after every V-cycle,
// across worker counts, plan shapes, and the tiled smoother.
func TestParallelVCycleBitIdentical(t *testing.T) {
	plans := []Params{
		{LM: 4},
		{LM: 4, Plan: core.Plan{DI: 18, DJ: 18, Tiled: true, Tile: core.Tile{TI: 5, TJ: 4}}},
		{LM: 4, Plan: core.Plan{DI: 21, DJ: 19, Tiled: true, Tile: core.Tile{TI: 1, TJ: 1}}, TileSmoother: true},
	}
	for pi, base := range plans {
		for _, workers := range []int{2, 3, 8, 64, 0} {
			ref := New(base)
			ref.SetPointCharges(8)
			p := base
			p.Workers = workers
			s := New(p)
			s.SetPointCharges(8)
			ref.Resid()
			s.Resid()
			for cycle := 0; cycle < 3; cycle++ {
				ref.VCycle()
				s.VCycle()
				if d := mgDiff(ref, s); d != 0 {
					t.Fatalf("plan[%d] workers=%d cycle %d: parallel V-cycle differs by %g", pi, workers, cycle, d)
				}
			}
		}
	}
}

// TestParallelFMGBitIdentical covers the FMG path (restrict-RHS,
// partial V-cycles, aliased coarse resids) against the serial solver.
func TestParallelFMGBitIdentical(t *testing.T) {
	base := Params{LM: 4, Plan: core.Plan{DI: 18, DJ: 18, Tiled: true, Tile: core.Tile{TI: 4, TJ: 4}}, TileSmoother: true}
	ref := New(base)
	ref.SetPointCharges(6)
	refNorm := ref.fmg(2)
	for _, workers := range []int{2, 8, 0} {
		p := base
		p.Workers = workers
		s := New(p)
		s.SetPointCharges(6)
		norm := s.fmg(2)
		if norm != refNorm {
			t.Errorf("workers=%d: FMG norm %g, serial %g", workers, norm, refNorm)
		}
		if d := mgDiff(ref, s); d != 0 {
			t.Errorf("workers=%d: parallel FMG differs by %g", workers, d)
		}
	}
}

// TestParallelIterateNorm: Iterate returns the identical norm — the
// solver-level contract the bench layer relies on.
func TestParallelIterateNorm(t *testing.T) {
	ref := New(Params{LM: 3})
	ref.SetPointCharges(4)
	want := ref.Iterate(3)
	p := Params{LM: 3, Workers: 4}
	s := New(p)
	s.SetPointCharges(4)
	if got := s.Iterate(3); got != want {
		t.Errorf("parallel Iterate norm %g, serial %g", got, want)
	}
}

// TestParallelVCycleRace exists for -race: the plane batches of all
// four operators run concurrently within each operator call.
func TestParallelVCycleRace(t *testing.T) {
	s := New(Params{LM: 4, Workers: 8})
	s.SetPointCharges(8)
	s.Resid()
	s.VCycle()
	s.VCycle()
}

func TestNegativeWorkersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative Workers not rejected")
		}
	}()
	New(Params{LM: 3, Workers: -1})
}
