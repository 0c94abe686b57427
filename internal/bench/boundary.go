package bench

import (
	"math"

	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/grid"
	"tiling3d/internal/stencil"
)

// Reuse boundaries (Section 1): the largest problem size for which a
// cache still captures the group reuse between the leading and trailing
// stencil references without tiling.

// MaxN2D returns the largest column size N of a 2D +/-1 stencil for which
// the cache preserves group reuse: two columns (distance 2N) must fit,
// so N <= C_s/2. For the 16K cache of doubles this is 1024, the paper's
// Section 1 figure.
func MaxN2D(cfg cache.Config) int {
	return cfg.Elems(grid.ElemSize) / 2
}

// MaxN3D returns the largest plane size N of a 3D +/-1 stencil for which
// the cache preserves group reuse across the K loop: two N x N planes
// must fit, so N <= sqrt(C_s/2). For 16K this is 32; for 2M it is 362,
// the sizes the paper quotes.
func MaxN3D(cfg cache.Config) int {
	return int(math.Sqrt(float64(cfg.Elems(grid.ElemSize)) / 2))
}

// BoundaryProbe measures the 3D reuse cliff empirically: the L1 (or any
// single-level) miss rate of untiled Jacobi just below and just above the
// capacity boundary. Above the boundary the two leading plane references
// start missing, so the miss rate jumps; the experiment harness uses it
// to validate MaxN3D against the simulator.
type BoundaryProbe struct {
	NBelow, NAbove       int
	MissBelow, MissAbove float64
}

// ProbeBoundary3D simulates untiled 3D Jacobi at sizes margin below and
// above MaxN3D(cfg) on a single-level hierarchy of that geometry. The
// options carry the simulation engine settings (steady-state on/off).
func ProbeBoundary3D(cfg cache.Config, margin int, opt Options) BoundaryProbe {
	b := MaxN3D(cfg)
	probe := func(n int) float64 {
		w := stencil.NewTraceWorkload(stencil.Jacobi, n, 8, core.Plan{DI: n, DJ: n})
		h := cache.MustHierarchy(cfg) //lint:allow mustcheck -- cfg comes from validated Options
		opt.warmMeasure(h, w.ReplayTrace)
		return h.Level(0).Stats().MissRate()
	}
	below, above := b-margin, b+margin
	return BoundaryProbe{
		NBelow: below, NAbove: above,
		MissBelow: probe(below), MissAbove: probe(above),
	}
}
