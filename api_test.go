package tiling3d

import (
	"math"
	"testing"
)

// Tests of the public facade: everything an external adopter would call.

func TestSelectAllMethods(t *testing.T) {
	st := Stencil{TrimI: 2, TrimJ: 2, Depth: 3}
	for _, m := range []Method{Orig, MethodTile, MethodEuc3D, MethodGcdPad, MethodPad, MethodGcdPadNT, MethodLRW, MethodEffCache} {
		p := Select(m, 2048, 300, 300, st)
		if p.DI < 300 || p.DJ < 300 {
			t.Errorf("%v: plan shrank dims: %+v", m, p)
		}
		if p.Tiled && !p.Tile.Valid() {
			t.Errorf("%v: tiled plan with invalid tile: %+v", m, p)
		}
	}
}

func TestPublicSelectionExamples(t *testing.T) {
	st := Stencil{TrimI: 2, TrimJ: 2, Depth: 3}
	if tile, ok := Euc3D(2048, 200, 200, st); !ok || tile.TI != 22 || tile.TJ != 13 {
		t.Errorf("Euc3D example = %v, %v", tile, ok)
	}
	g := GcdPad(2048, 256, 256, st)
	if g.DI != 288 || g.DJ != 272 {
		t.Errorf("GcdPad(256,256) dims (%d,%d), want (288,272)", g.DI, g.DJ)
	}
	p := Pad(2048, 256, 256, st)
	if p.DI > g.DI || p.DJ > g.DJ {
		t.Errorf("Pad dims (%d,%d) exceed GcdPad (%d,%d)", p.DI, p.DJ, g.DI, g.DJ)
	}
	if Cost(Tile{TI: 22, TJ: 13}, st) <= 1 {
		t.Error("cost model must exceed 1 for finite tiles")
	}
	if !SelfConflicts(2048, 256, 256, 32, 16, 4) {
		t.Error("unpadded 256x256 tile must conflict")
	}
	if SelfConflicts(2048, 288, 272, 32, 16, 4) {
		t.Error("GcdPad-padded tile must not conflict")
	}
}

func TestPublicWorkloadRoundTrip(t *testing.T) {
	st := Stencil{TrimI: 2, TrimJ: 2, Depth: 3}
	plan := Select(MethodPad, 256, 24, 24, st)
	w := NewWorkload(Jacobi, 24, 8, plan, DefaultCoeffs())
	w.RunNative()
	h := UltraSparc2()
	w.RunTrace(h)
	if h.Level(0).Stats().Accesses() == 0 {
		t.Error("trace produced no accesses")
	}
}

func TestPublicGrids(t *testing.T) {
	g, err := NewGrid3DPadded(10, 10, 10, 13, 11)
	if err != nil {
		t.Fatal(err)
	}
	g.Set(9, 9, 9, 42)
	if g.At(9, 9, 9) != 42 {
		t.Error("grid round trip failed")
	}
	if NewGrid3D(4, 4, 4).Elems() != 64 {
		t.Error("unpadded grid size")
	}
}

func TestPublicMultigrid(t *testing.T) {
	s := NewMultigrid(MultigridParams{LM: 4})
	s.SetPointCharges(6)
	norm := s.Iterate(3)
	if norm <= 0 || math.IsNaN(norm) {
		t.Errorf("residual norm %g", norm)
	}
	res := RunMGExperiment(3, 2, 256, MethodGcdPad)
	if !res.Identical {
		t.Error("MG experiment not identical")
	}
}

func TestHierarchyConstruction(t *testing.T) {
	h, err := NewHierarchy(
		CacheConfig{SizeBytes: 1024, LineBytes: 32, Assoc: 1},
		CacheConfig{SizeBytes: 8192, LineBytes: 64, Assoc: 2, WriteAllocate: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewHierarchy(CacheConfig{SizeBytes: 100, LineBytes: 32, Assoc: 1}); err == nil {
		t.Error("non-power-of-two geometry not rejected")
	}
	h.Load(0)
	h.Load(0)
	var s CacheStats = h.Level(0).Stats()
	if s.Loads != 2 || s.LoadMisses != 1 {
		t.Errorf("stats %+v", s)
	}
}
