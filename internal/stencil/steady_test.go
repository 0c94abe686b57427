package stencil_test

// Differential tests for the steady-state plane-cycle engine: wrapping
// a hierarchy in cache.NewSteady must be indistinguishable — statistics
// AND final state — from replaying every batch directly, on every
// kernel, across padded, tiled, and pathological geometries. These
// mirror PR 1's replay-equivalence suite one level up: that suite
// proved batched replay == per-access; this one proves steady == full
// replay.

import (
	"math/rand"
	"testing"

	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/stencil"
)

// steadyCompare replays sweeps of one workload into a plain hierarchy
// and a steady-wrapped twin and asserts identical per-sweep statistics
// and identical final state. It returns the planes the engine skipped
// so callers can assert the fast path was actually exercised.
func steadyCompare(t *testing.T, label string, w *stencil.Workload, sweeps int, cfgs ...cache.Config) uint64 {
	t.Helper()
	full := cache.MustHierarchy(cfgs...)
	fast := cache.MustHierarchy(cfgs...)
	st := cache.NewSteady(fast)
	for sweep := 0; sweep < sweeps; sweep++ {
		w.ReplayTrace(full)
		w.ReplayTrace(st)
		for li := range cfgs {
			a, b := full.Level(li).Stats(), fast.Level(li).Stats()
			if a != b {
				t.Fatalf("%s: sweep %d level %d stats diverge:\nfull   %+v\nsteady %+v (skipped %d planes)",
					label, sweep, li, a, b, st.Diag().Skipped)
			}
		}
	}
	for li := range cfgs {
		if !full.Level(li).StateEqual(fast.Level(li)) {
			t.Fatalf("%s: level %d final state diverges (skipped %d planes)",
				label, li, st.Diag().Skipped)
		}
	}
	return st.Diag().Skipped
}

// smallCfgs is a two-level hierarchy scaled down so steady cycles form
// at test-sized problems: direct-mapped write-around L1, direct-mapped
// write-allocate L2, the paper's structure in miniature.
func smallCfgs() []cache.Config {
	return []cache.Config{
		{SizeBytes: 1 << 10, LineBytes: 32},
		{SizeBytes: 8 << 10, LineBytes: 64, WriteAllocate: true},
	}
}

func plainPlan(n int) core.Plan { return core.Plan{DI: n, DJ: n} }

func tiledPlan(n, ti, tj int) core.Plan {
	return core.Plan{DI: n, DJ: n, Tiled: true, Tile: core.Tile{TI: ti, TJ: tj}}
}

func TestSteadyDifferentialKernels(t *testing.T) {
	kernels := []stencil.Kernel{stencil.Jacobi, stencil.RedBlack, stencil.Resid}
	for _, k := range kernels {
		for _, tc := range []struct {
			name string
			plan core.Plan
		}{
			{"orig", plainPlan(40)},
			{"padded", core.Plan{DI: 45, DJ: 43}},
			{"tiled", tiledPlan(40, 12, 9)},
			{"tiled-pow2", tiledPlan(40, 16, 8)},
		} {
			w := stencil.NewTraceWorkload(k, 40, 24, tc.plan)
			skipped := steadyCompare(t, k.String()+"/"+tc.name, w, 3, smallCfgs()...)
			if tc.name == "orig" && skipped == 0 {
				t.Errorf("%s/orig: steady engine never skipped a plane", k)
			}
		}
	}
}

// TestSteadyDifferentialAllMethods is the production-path differential:
// every kernel under every paper method, with the REAL selection plans
// (core.Select against a scaled cache) and the engine's gates exactly
// as the bench harness runs them. Every configuration must be
// bit-identical to full replay.
func TestSteadyDifferentialAllMethods(t *testing.T) {
	cfgs := []cache.Config{
		{SizeBytes: 4 << 10, LineBytes: 32},
		{SizeBytes: 32 << 10, LineBytes: 64, WriteAllocate: true},
	}
	cacheElems := (4 << 10) / 8 // tile for the scaled L1, as the paper tiles for its L1
	const n, depth, sweeps = 64, 12, 3
	kernels := []stencil.Kernel{stencil.Jacobi, stencil.RedBlack, stencil.Resid}
	var skipped uint64
	for _, k := range kernels {
		for _, m := range core.PaperMethods() {
			if err := core.CheckSelect(m, cacheElems, n, n, k.Spec()); err != nil {
				t.Fatalf("%s/%s: selection precondition: %v", k, m, err)
			}
			plan := core.Select(m, cacheElems, n, n, k.Spec())
			label := k.String() + "/" + m.String()
			w := stencil.NewTraceWorkload(k, n, depth, plan)
			skipped += steadyCompare(t, label, w, sweeps, cfgs...)
		}
	}
	if skipped == 0 {
		t.Error("production gate never skipped a plane across any kernel/method")
	}
}

// TestSteadyDifferentialPaper runs the pathological paper-scale sizes —
// N=256 (power of two, maximal conflict), 257, and 510 (512-adjacent) —
// against the real UltraSparc2 hierarchy. At these sizes the plane
// stride interacts worst with the set mapping, exactly where an inexact
// fingerprint would slip.
func TestSteadyDifferentialPaper(t *testing.T) {
	cfgs := []cache.Config{cache.UltraSparc2L1(), cache.UltraSparc2L2()}
	type tc struct {
		k    stencil.Kernel
		n    int
		plan core.Plan
	}
	cases := []tc{
		{stencil.Jacobi, 256, plainPlan(256)},
		{stencil.Jacobi, 256, tiledPlan(256, 45, 13)},
		{stencil.Jacobi, 257, plainPlan(257)},
		{stencil.Jacobi, 510, plainPlan(510)},
		{stencil.RedBlack, 256, plainPlan(256)},
		{stencil.RedBlack, 257, tiledPlan(257, 32, 8)},
		{stencil.Resid, 256, plainPlan(256)},
		{stencil.Resid, 257, plainPlan(257)},
	}
	for _, c := range cases {
		w := stencil.NewTraceWorkload(c.k, c.n, 10, c.plan)
		label := c.k.String() + "/pathological"
		steadyCompare(t, label, w, 2, cfgs...)
	}
}

// TestSteadyRandomGeometry is the property test: random kernels, sizes,
// paddings, tiles and cache shapes, all of which must produce identical
// statistics and state with and without the steady engine.
func TestSteadyRandomGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	kernels := []stencil.Kernel{stencil.Jacobi, stencil.RedBlack, stencil.Resid}
	lines := []int{16, 32, 64}
	for it := 0; it < 40; it++ {
		k := kernels[rng.Intn(len(kernels))]
		n := 24 + rng.Intn(40)
		depth := 8 + rng.Intn(12)
		plan := core.Plan{DI: n + rng.Intn(9), DJ: n + rng.Intn(9)}
		if rng.Intn(2) == 1 {
			plan.Tiled = true
			plan.Tile = core.Tile{TI: 5 + rng.Intn(13), TJ: 5 + rng.Intn(13)}
		}
		var cfgs []cache.Config
		for lv, levels := 0, 1+rng.Intn(2); lv < levels; lv++ {
			line := lines[rng.Intn(len(lines))]
			sets := 1 << (4 + rng.Intn(4) + 2*lv)
			assoc := 1 << rng.Intn(3)
			cfgs = append(cfgs, cache.Config{
				SizeBytes:        sets * assoc * line,
				LineBytes:        line,
				Assoc:            assoc,
				WriteAllocate:    rng.Intn(2) == 1,
				NextLinePrefetch: rng.Intn(4) == 0,
			})
		}
		w := stencil.NewTraceWorkload(k, n, depth, plan)
		steadyCompare(t, k.String()+"/random", w, 2, cfgs...)
	}
}
