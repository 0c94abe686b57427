package bench

import (
	"bytes"
	"strings"
	"testing"

	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/stencil"
)

// smallOptions is a scaled-down replica of the paper's setup: the cache
// sizes and problem sizes shrink together so the capacity relationships
// (two planes exceed L1, fit in L2 below the boundary) are preserved
// while tests stay fast.
func smallOptions() Options {
	return Options{
		L1:      cache.Config{SizeBytes: 2 << 10, LineBytes: 32, Assoc: 1},                       // 256 doubles
		L2:      cache.Config{SizeBytes: 64 << 10, LineBytes: 64, Assoc: 1, WriteAllocate: true}, // 8192 doubles
		K:       10,
		NMin:    40,
		NMax:    80,
		NStep:   20,
		Methods: core.PaperMethods(),
		Coeffs:  stencil.DefaultCoeffs(),
		Sweeps:  1,
	}
}

func TestSizes(t *testing.T) {
	o := smallOptions()
	got := o.Sizes()
	want := []int{40, 60, 80}
	if len(got) != len(want) {
		t.Fatalf("Sizes = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sizes = %v, want %v", got, want)
		}
	}
	o.NStep = 25 // 40, 65, then forced 80
	got = o.Sizes()
	if got[len(got)-1] != 80 {
		t.Errorf("Sizes must include NMax: %v", got)
	}
	if DefaultOptions().CacheElems() != 2048 {
		t.Errorf("default CacheElems = %d, want 2048", DefaultOptions().CacheElems())
	}
}

// TestTilingImprovesL1MissRate is the headline claim at simulation level:
// tiled+padded variants beat the original on L1 for every kernel.
func TestTilingImprovesL1MissRate(t *testing.T) {
	opt := smallOptions()
	for _, k := range stencil.Kernels() {
		orig := SimulatePoint(k, core.Orig, 60, opt)
		for _, m := range []core.Method{core.MethodGcdPad, core.MethodPad} {
			got := SimulatePoint(k, m, 60, opt)
			if got.L1 >= orig.L1 {
				t.Errorf("%v/%v: L1 %.2f%% not below Orig %.2f%%", k, m, got.L1, orig.L1)
			}
		}
	}
}

// TestPaddedMethodsStableAcrossSizes checks the stability claim of
// Section 4.4: GcdPad's L1 miss rate varies far less across problem sizes
// than Tile's, including pathological sizes (multiples of the cache
// column capacity).
func TestPaddedMethodsStableAcrossSizes(t *testing.T) {
	opt := smallOptions()
	opt.NMin, opt.NMax, opt.NStep = 56, 72, 4 // includes 64 = pathological for 256-elem cache
	spread := func(m core.Method) float64 {
		s, err := missSeries(stencil.Jacobi, m, opt)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := s[0].L1, s[0].L1
		for _, p := range s {
			if p.L1 < lo {
				lo = p.L1
			}
			if p.L1 > hi {
				hi = p.L1
			}
		}
		return hi - lo
	}
	if sTile, sGcd := spread(core.MethodTile), spread(core.MethodGcdPad); sGcd > sTile {
		t.Errorf("GcdPad spread %.2f exceeds Tile spread %.2f", sGcd, sTile)
	}
}

func TestTable3Structure(t *testing.T) {
	opt := smallOptions()
	rows, err := Table3(opt, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("Table3 rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.OrigL1 <= 0 {
			t.Errorf("%v: OrigL1 = %g", r.Kernel, r.OrigL1)
		}
		if r.PerfImp != nil {
			t.Error("withPerf=false should leave PerfImp nil")
		}
		for _, m := range []core.Method{core.MethodGcdPad, core.MethodPad} {
			if imp, ok := r.L1Imp[m]; !ok || imp <= 0 {
				t.Errorf("%v/%v: L1 improvement %.2f not positive", r.Kernel, m, imp)
			}
		}
	}
}

func TestMemorySeriesFig22(t *testing.T) {
	opt := DefaultOptions()
	opt.NStep = 10
	gcd := MemorySeries(stencil.Jacobi, core.MethodGcdPad, 30, opt)
	pad := MemorySeries(stencil.Jacobi, core.MethodPad, 30, opt)
	aGcd, aPad := AverageMem(gcd), AverageMem(pad)
	// Paper: 14.7% (GcdPad) and 4.7% (Pad) on average for K=30.
	if aPad >= aGcd {
		t.Errorf("Pad overhead %.2f%% not below GcdPad %.2f%%", aPad, aGcd)
	}
	if aGcd < 5 || aGcd > 30 {
		t.Errorf("GcdPad K=30 overhead %.2f%%, paper reports 14.7%%", aGcd)
	}
	if aPad > 12 {
		t.Errorf("Pad K=30 overhead %.2f%%, paper reports 4.7%%", aPad)
	}
	// The paper's K=N estimate (Section 4.5) is much smaller: 1.4% / 0.5%.
	if kn := AverageMem(MemorySeriesKNEstimate(stencil.Jacobi, core.MethodGcdPad, 30, opt)); kn >= aGcd/3 || kn <= 0 {
		t.Errorf("K=N GcdPad estimate %.2f%% not well below K=30 %.2f%%", kn, aGcd)
	}
	// Overheads are never negative and respect the 2TI-1 / 2TJ-1 bounds.
	for _, p := range gcd {
		if p.Percent < 0 {
			t.Errorf("negative overhead at N=%d", p.N)
		}
	}
}

func TestReuseBoundaries(t *testing.T) {
	if got := MaxN2D(cache.UltraSparc2L1()); got != 1024 {
		t.Errorf("2D L1 boundary = %d, want 1024 (Section 1)", got)
	}
	if got := MaxN3D(cache.UltraSparc2L1()); got != 32 {
		t.Errorf("3D L1 boundary = %d, want 32 (Section 1)", got)
	}
	if got := MaxN3D(cache.UltraSparc2L2()); got != 362 {
		t.Errorf("3D L2 boundary = %d, want 362 (Section 1)", got)
	}
}

func TestBoundaryProbeShowsCliff(t *testing.T) {
	cfg := cache.Config{SizeBytes: 16 << 10, LineBytes: 32, Assoc: 1}
	p := ProbeBoundary3D(cfg, 8, smallOptions())
	if p.MissAbove <= p.MissBelow {
		t.Errorf("no reuse cliff: below=%.2f%% (N=%d), above=%.2f%% (N=%d)",
			p.MissBelow, p.NBelow, p.MissAbove, p.NAbove)
	}
}

func TestPerfPointSane(t *testing.T) {
	opt := smallOptions()
	p := MeasurePoint(stencil.Jacobi, core.Orig, 48, opt)
	if p.MFlops <= 0 {
		t.Errorf("MFlops = %g", p.MFlops)
	}
}

func TestRenderers(t *testing.T) {
	opt := smallOptions()
	opt.Methods = []core.Method{core.Orig, core.MethodGcdPad}
	miss, err := MissSweep(stencil.Jacobi, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMissSeries(&buf, stencil.Jacobi, miss, opt.Methods, opt); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"JACOBI", "GcdPad:L1", "40", "80"} {
		if !strings.Contains(out, want) {
			t.Errorf("miss table missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	rows, err := Table3(opt, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteTable3(&buf, rows, opt.Methods); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "REDBLACK") {
		t.Errorf("table3 rendering:\n%s", buf.String())
	}
	buf.Reset()
	mem := map[core.Method][]MemPoint{
		core.MethodGcdPad: MemorySeries(stencil.Jacobi, core.MethodGcdPad, 10, opt),
	}
	if err := WriteMemSeries(&buf, mem, []core.Method{core.MethodGcdPad}, opt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "avg GcdPad") {
		t.Errorf("mem rendering:\n%s", buf.String())
	}
}
