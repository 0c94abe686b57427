package bench

import (
	"testing"

	"tiling3d/internal/core"
	"tiling3d/internal/stencil"
)

// TestWorkersDoNotChangeResults pins the -workers contract: a sweep's
// output is identical for every worker count, serial included.
func TestWorkersDoNotChangeResults(t *testing.T) {
	opt := smallOptions()
	opt.Workers = 1
	serial, err := missSeries(stencil.Jacobi, core.MethodGcdPad, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 2, 7} {
		opt.Workers = w
		got, err := missSeries(stencil.Jacobi, core.MethodGcdPad, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(serial) {
			t.Fatalf("workers=%d: %d points, serial %d", w, len(got), len(serial))
		}
		for i := range got {
			if got[i] != serial[i] {
				t.Errorf("workers=%d point %d: %+v, serial %+v", w, i, got[i], serial[i])
			}
		}
	}
}

func TestAveragePerfImprovement(t *testing.T) {
	orig := []PerfPoint{{N: 1, MFlops: 100}, {N: 2, MFlops: 50}}
	opt := []PerfPoint{{N: 1, MFlops: 120}, {N: 2, MFlops: 60}}
	got, err := AveragePerfImprovement(orig, opt)
	if err != nil || got < 20-1e-9 || got > 20+1e-9 {
		t.Errorf("improvement = %g, %v, want 20", got, err)
	}
	if got, err := AveragePerfImprovement(nil, nil); err != nil || got != 0 {
		t.Errorf("empty = %g, %v", got, err)
	}
	if _, err := AveragePerfImprovement(orig, opt[:1]); err == nil {
		t.Error("mismatched lengths not rejected")
	}
}

func TestAverageMiss(t *testing.T) {
	l1, l2 := AverageMiss([]MissPoint{{N: 10, L1: 10, L2: 2}, {N: 20, L1: 30, L2: 4}})
	if l1 != 20 || l2 != 3 {
		t.Errorf("averages = %g, %g", l1, l2)
	}
	if l1, l2 := AverageMiss(nil); l1 != 0 || l2 != 0 {
		t.Error("empty averages nonzero")
	}
	// Failed and never-run (N == 0) points are excluded from the average.
	l1, l2 = AverageMiss([]MissPoint{
		{N: 10, L1: 10, L2: 2},
		{N: 20, L1: 99, L2: 99, Failed: true},
		{L1: 99, L2: 99}, // cancelled before it ran
	})
	if l1 != 10 || l2 != 2 {
		t.Errorf("averages with failures = %g, %g", l1, l2)
	}
}

func TestOptionsPlanRespectsTarget(t *testing.T) {
	opt := DefaultOptions()
	opt.TargetElems = 512
	p := opt.Plan(stencil.Jacobi, core.MethodGcdPad, 100)
	at := core.GcdPadArrayTile(512, stencil.Jacobi.Spec())
	if p.Tile.TI != at.TI-2 || p.Tile.TJ != at.TJ-2 {
		t.Errorf("plan tile %v does not match 512-element target %v", p.Tile, at)
	}
}

func TestCombinedSweepConsistentWithPointwise(t *testing.T) {
	opt := smallOptions()
	opt.Methods = []core.Method{core.Orig, core.MethodGcdPad}
	miss, est, err := CombinedSweep(stencil.Jacobi, opt, UltraSparc2Model())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range opt.Methods {
		for i, n := range opt.Sizes() {
			want := SimulatePoint(stencil.Jacobi, m, n, opt)
			if miss[m][i] != want {
				t.Errorf("%v N=%d: combined %+v, pointwise %+v", m, n, miss[m][i], want)
			}
			if est[m][i].MFlops <= 0 {
				t.Errorf("%v N=%d: estimate %+v", m, n, est[m][i])
			}
		}
	}
}

// missSeries is one method's per-size curve of a sweep.
func missSeries(k stencil.Kernel, m core.Method, opt Options) ([]MissPoint, error) {
	opt.Methods = []core.Method{m}
	sweep, err := MissSweep(k, opt)
	return sweep[m], err
}
