package mg

import (
	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/grid"
	"tiling3d/internal/stencil"
)

// TraceVCycleRuns replays one V-cycle's complete address stream — every
// restriction, smoothing, prolongation and residual on every level —
// into sink in batched form, honoring the solver's tiling plan exactly
// as VCycle does. This turns Section 4.6 into an end-to-end simulation:
// the whole application's miss rate with and without the transformation.
//
// Each operator's sink is wrapped in cache.WithLevel with the grid
// level it walks, so the steady engine sees same-shape phases on
// different levels as distinct (a V-cycle revisits every level's
// geometry every cycle; without the tag the smaller levels' phases
// would collide in its history).
func (s *Solver) TraceVCycleRuns(sink cache.RunSink) {
	lm := s.p.LM
	for l := lm; l >= 2; l-- {
		rprj3Runs(s.r[l-1], s.r[l], cache.WithLevel(sink, l))
	}
	fillRuns(s.u[1], cache.WithLevel(sink, 1))
	psinvRuns(s.u[1], s.r[1], cache.WithLevel(sink, 1), 0, 0, false)
	for l := 2; l < lm; l++ {
		fillRuns(s.u[l], cache.WithLevel(sink, l))
		interpRuns(s.u[l], s.u[l-1], cache.WithLevel(sink, l))
		s.traceResidLevelRuns(l, s.r[l], sink)
		psinvRuns(s.u[l], s.r[l], cache.WithLevel(sink, l), 0, 0, false)
	}
	if lm >= 2 {
		interpRuns(s.u[lm], s.u[lm-1], cache.WithLevel(sink, lm))
	}
	s.traceResidLevelRuns(lm, s.v, sink)
	if s.p.TileSmoother && s.p.Plan.Tiled {
		psinvRuns(s.u[lm], s.r[lm], cache.WithLevel(sink, lm), s.p.Plan.Tile.TI, s.p.Plan.Tile.TJ, true)
	} else {
		psinvRuns(s.u[lm], s.r[lm], cache.WithLevel(sink, lm), 0, 0, false)
	}
}

// TraceVCycle replays the V-cycle per access into mem.
func (s *Solver) TraceVCycle(mem cache.Memory) {
	s.TraceVCycleRuns(cache.PerAccess{Mem: mem})
}

// TraceResidRuns replays the finest-level residual in batched form,
// tiled per the plan.
func (s *Solver) TraceResidRuns(sink cache.RunSink) {
	s.traceResidLevelRuns(s.p.LM, s.v, sink)
}

// TraceResid replays the finest-level residual per access.
func (s *Solver) TraceResid(mem cache.Memory) {
	s.TraceResidRuns(cache.PerAccess{Mem: mem})
}

func (s *Solver) traceResidLevelRuns(l int, v *grid.Grid3D, sink cache.RunSink) {
	sink = cache.WithLevel(sink, l)
	if l == s.p.LM && s.p.Plan.Tiled {
		stencil.ResidTiledRuns(s.r[l], v, s.u[l], sink, s.p.Plan.Tile.TI, s.p.Plan.Tile.TJ)
		return
	}
	stencil.ResidOrigRuns(s.r[l], v, s.u[l], sink)
}

// SimulatedExperiment replays a full V-cycle (plus the finest residual,
// as Iterate performs) for the original and the transformed solver on
// the given hierarchy geometry and reports L1 miss rates and the
// cycle-model improvement — the simulated counterpart of RunExperiment.
type SimulatedExperiment struct {
	OrigL1, TiledL1 float64
	// ImprovementPct is the cycle-model whole-V-cycle improvement, with
	// memory access and miss costs from the model (flop costs cancel in
	// the comparison only if flops match, which they do: the
	// transformation reorders, never adds work).
	ImprovementPct float64
}

// RunSimulatedExperiment builds both solvers and simulates each on a
// fresh hierarchy with cache.WarmMeasure: one warm-up iteration (a
// V-cycle plus the finest residual) is traced and excluded, and the
// measured iteration is reproduced from the trace by the steady
// engine's delta layer. The statistics equal a raw replay of the same
// two iterations. accessCycles, l1Miss and l2Miss parameterize the time
// model.
func RunSimulatedExperiment(lm, cs int, m core.Method, l1, l2 cache.Config, accessCycles, l1Miss, l2Miss float64) SimulatedExperiment {
	orig, _ := simulateIteration(lm, core.Plan{}, l1, l2)
	tiled, _ := simulateIteration(lm, residPlan(lm, cs, m), l1, l2)
	return compareSimulated(orig, tiled, accessCycles, l1Miss, l2Miss)
}

// residPlan selects the finest-level RESID transformation.
func residPlan(lm, cs int, m core.Method) core.Plan {
	fm := (1 << lm) + 2
	return core.Select(m, cs, fm, fm, stencil.Resid.Spec())
}

// traceIterationRuns replays one solver iteration as Iterate performs
// it: a V-cycle, then the finest residual.
func (s *Solver) traceIterationRuns(sink cache.RunSink) {
	s.TraceVCycleRuns(sink)
	s.TraceResidRuns(sink)
}

// simulateIteration runs the warm-measure protocol for one solver on a
// fresh hierarchy and returns it holding the measured statistics, with
// the delta-layer counters that show whether the measured iteration was
// replayed from the trace.
func simulateIteration(lm int, p core.Plan, l1, l2 cache.Config) (*cache.Hierarchy, cache.DeltaDiag) {
	s := New(Params{LM: lm, Plan: p})
	h := cache.MustHierarchy(l1, l2) //lint:allow mustcheck -- fixed valid configs from the caller
	sd := cache.NewSteady(h)
	cache.WarmMeasure(h, sd, 1, s.traceIterationRuns)
	return h, sd.DeltaInfo()
}

// compareSimulated applies the cycle model to two measured hierarchies.
func compareSimulated(orig, tiled *cache.Hierarchy, accessCycles, l1Miss, l2Miss float64) SimulatedExperiment {
	cycles := func(h *cache.Hierarchy) float64 {
		s1, s2 := h.Level(0).Stats(), h.Level(1).Stats()
		return accessCycles*float64(s1.Accesses()) +
			l1Miss*float64(s1.Misses()) +
			l2Miss*float64(s2.Misses())
	}
	return SimulatedExperiment{
		OrigL1:         orig.Level(0).Stats().MissRate(),
		TiledL1:        tiled.Level(0).Stats().MissRate(),
		ImprovementPct: (cycles(orig)/cycles(tiled) - 1) * 100,
	}
}
