package stencil

import (
	"fmt"

	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/grid"
)

// Workload is one configured kernel instance: a problem size N x N x K,
// a transformation plan (tile size and padded dimensions), and the arrays
// laid out consecutively in one simulated address space, the way the
// paper's Fortran benchmarks declare them.
type Workload struct {
	Kernel Kernel
	// N is the lower (I and J) logical extent; K the third extent (the
	// paper fixes K=30 for the kernel sweeps to shorten measurement).
	N, K   int
	Plan   core.Plan
	Coeffs Coeffs

	// Grids in kernel order: JACOBI {A, B}, REDBLACK {A},
	// RESID {R, V, U}.
	Grids []*grid.Grid3D
}

// NewWorkload allocates and initializes the arrays for one kernel run.
// Every array is allocated with the plan's (possibly padded) leading
// dimensions and placed back to back in a fresh arena.
func NewWorkload(k Kernel, n, depth int, plan core.Plan, c Coeffs) *Workload {
	return NewWorkloadPlaced(k, n, depth, plan, c, nil)
}

// NewWorkloadPlaced is NewWorkload with inter-variable padding: gaps[i]
// elements are left unused before array i (Section 3.5; compute gaps
// with core.CrossPlacement). nil gaps means back-to-back placement.
func NewWorkloadPlaced(k Kernel, n, depth int, plan core.Plan, c Coeffs, gaps []int) *Workload {
	w := newWorkloadShaped(k, n, depth, plan, c, gaps, true)
	w.InitDefault()
	return w
}

// NewTraceWorkload builds a simulation-only workload: the grids carry
// layout (shape, padding, arena placement) but no element storage, so a
// large sweep cell costs no N^3 allocation or initialization. Replaying
// a trace never touches data; calling RunNative on a trace workload
// panics.
func NewTraceWorkload(k Kernel, n, depth int, plan core.Plan) *Workload {
	return NewTraceWorkloadPlaced(k, n, depth, plan, nil)
}

// NewTraceWorkloadPlaced is NewTraceWorkload with inter-variable
// padding gaps, mirroring NewWorkloadPlaced.
func NewTraceWorkloadPlaced(k Kernel, n, depth int, plan core.Plan, gaps []int) *Workload {
	return newWorkloadShaped(k, n, depth, plan, Coeffs{}, gaps, false)
}

func newWorkloadShaped(k Kernel, n, depth int, plan core.Plan, c Coeffs, gaps []int, backed bool) *Workload {
	if plan.DI < n || plan.DJ < n {
		panic(fmt.Sprintf("stencil: plan dims (%d,%d) smaller than N=%d", plan.DI, plan.DJ, n))
	}
	w := &Workload{Kernel: k, N: n, K: depth, Plan: plan, Coeffs: c}
	arena := grid.NewArena()
	for a := 0; a < k.Arrays(); a++ {
		if a < len(gaps) {
			arena.Gap(gaps[a])
		}
		// Extents are vetted by the plan check above (and selection never
		// shrinks dims), so the Must constructors' panics are internal
		// invariants here.
		var g *grid.Grid3D
		if backed {
			g = grid.Must3DPadded(n, n, depth, plan.DI, plan.DJ) //lint:allow mustcheck -- plan dims validated by SelectChecked
		} else {
			g = grid.Must3DShape(n, n, depth, plan.DI, plan.DJ) //lint:allow mustcheck -- plan dims validated by SelectChecked
		}
		arena.Place(g)
		w.Grids = append(w.Grids, g)
	}
	return w
}

// InitDefault gives the arrays a smooth, nonzero initial state so native
// runs exercise realistic values (no denormals, no uniform zeros).
func (w *Workload) InitDefault() {
	for gi, g := range w.Grids {
		scale := 1.0 / float64(g.NI+gi)
		g.FillFunc(func(i, j, k int) float64 {
			return 1 + scale*float64(i+2*j+3*k+gi)
		})
	}
}

// RunNative performs one kernel sweep on the arrays, tiled or not
// according to the plan.
func (w *Workload) RunNative() {
	if len(w.Grids) > 0 && w.Grids[0].Data == nil {
		panic("stencil: RunNative on a trace-only workload (built with NewTraceWorkload)")
	}
	p := w.Plan
	c := w.Coeffs
	switch w.Kernel {
	case Jacobi:
		if p.Tiled {
			JacobiTiled(w.Grids[0], w.Grids[1], c.JacobiC, p.Tile.TI, p.Tile.TJ)
		} else {
			JacobiOrig(w.Grids[0], w.Grids[1], c.JacobiC)
		}
	case RedBlack:
		if p.Tiled {
			RedBlackTiled(w.Grids[0], c.SorC1, c.SorC2, p.Tile.TI, p.Tile.TJ)
		} else {
			RedBlackNaive(w.Grids[0], c.SorC1, c.SorC2)
		}
	case Resid:
		if p.Tiled {
			ResidTiled(w.Grids[0], w.Grids[1], w.Grids[2], c.ResidA, p.Tile.TI, p.Tile.TJ)
		} else {
			ResidOrig(w.Grids[0], w.Grids[1], w.Grids[2], c.ResidA)
		}
	default:
		panic("stencil: unknown kernel")
	}
}

// RunTrace replays one kernel sweep's address stream into a per-access
// memory.
func (w *Workload) RunTrace(mem cache.Memory) {
	w.ReplayTrace(cache.PerAccess{Mem: mem})
}

// ReplayTrace replays one kernel sweep's address stream in batched form,
// the hot path of every simulation sweep: the kernel's nest, tiled per
// the plan, compiled against the workload's grids.
func (w *Workload) ReplayTrace(sink cache.RunSink) {
	Replay(w.Kernel, w.Plan, w.Grids, sink)
}

// InteriorPoints returns the number of point updates one sweep performs.
func (w *Workload) InteriorPoints() int64 {
	return int64(w.N-2) * int64(w.N-2) * int64(w.K-2)
}

// Flops returns the floating-point operations one sweep performs.
func (w *Workload) Flops() int64 {
	return w.InteriorPoints() * int64(w.Kernel.FlopsPerPoint())
}

// AccessCount returns the memory accesses one sweep issues (identical for
// original and tiled variants: the same iterations in a different order).
func (w *Workload) AccessCount() int64 {
	return w.InteriorPoints() * int64(w.Kernel.Accesses())
}

// MemoryBytes returns the total allocated array memory, padding included.
func (w *Workload) MemoryBytes() int64 {
	var b int64
	for _, g := range w.Grids {
		b += g.Bytes()
	}
	return b
}
