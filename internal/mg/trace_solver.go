package mg

import (
	"fmt"

	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/grid"
	"tiling3d/internal/ir"
	"tiling3d/internal/stencil"
	"tiling3d/internal/trace"
	"tiling3d/internal/transform"
)

// TraceVCycleRuns replays one V-cycle's complete address stream — every
// restriction, smoothing, prolongation and residual on every level —
// into sink in batched form, honoring the solver's tiling plan exactly
// as VCycle does. This turns Section 4.6 into an end-to-end simulation:
// the whole application's miss rate with and without the transformation.
//
// Each operator is an ir nest compiled against its grids inside the
// call, and its markers carry, through cache.WithLevel, the grid level
// it walks, so the steady engine sees same-shape phases on different
// levels as distinct (a V-cycle revisits every level's geometry every
// cycle; without the tag the smaller levels' phases would collide in its
// history).
func (s *Solver) TraceVCycleRuns(sink cache.RunSink) {
	lm := s.p.LM
	for l := lm; l >= 2; l-- {
		rprj3Op(s.r[l-1], s.r[l]).replay(sink, l)
	}
	fillOp(s.u[1]).replay(sink, 1)
	psinvOp(s.u[1], s.r[1], core.Plan{}).replay(sink, 1)
	for l := 2; l < lm; l++ {
		fillOp(s.u[l]).replay(sink, l)
		interpOp(s.u[l], s.u[l-1]).replay(sink, l)
		s.traceResidLevelRuns(l, s.r[l], sink)
		psinvOp(s.u[l], s.r[l], core.Plan{}).replay(sink, l)
	}
	if lm >= 2 {
		interpOp(s.u[lm], s.u[lm-1]).replay(sink, lm)
	}
	s.traceResidLevelRuns(lm, s.v, sink)
	smoother := core.Plan{}
	if s.p.TileSmoother {
		smoother = s.p.Plan
	}
	psinvOp(s.u[lm], s.r[lm], smoother).replay(sink, lm)
}

// TraceResidRuns replays the finest-level residual in batched form,
// tiled per the plan.
func (s *Solver) TraceResidRuns(sink cache.RunSink) {
	s.traceResidLevelRuns(s.p.LM, s.v, sink)
}

func (s *Solver) traceResidLevelRuns(l int, v *grid.Grid3D, sink cache.RunSink) {
	plan := core.Plan{}
	if l == s.p.LM {
		plan = s.p.Plan
	}
	stencil.Replay(stencil.Resid, plan, []*grid.Grid3D{s.r[l], v, s.u[l]}, cache.WithLevel(sink, l))
}

// op is one operator application to trace: its nest and the bindings of
// the arrays the nest names.
type op struct {
	nest *ir.Nest
	env  map[string]trace.Binding
}

// replay compiles the operator and emits its stream into sink, every
// marker tagged with grid level l. The nests are built from the solver's
// own grids, so a failure to compile is an internal error.
func (o op) replay(sink cache.RunSink, l int) {
	if err := trace.RunBatchedNest(o.nest, o.env, cache.WithLevel(sink, l)); err != nil {
		panic(fmt.Sprintf("mg: %v", err))
	}
}

// psinvOp is u = u + C r, tiled per plan: per point the 27 r operands,
// the read of u (it accumulates), then the store of u.
func psinvOp(u, r *grid.Grid3D, plan core.Plan) op {
	n := ir.PsinvNest(u.NI)
	if plan.Tiled {
		var err error
		if n, err = transform.ApplyPlan(n, plan); err != nil {
			panic(fmt.Sprintf("mg: %v", err))
		}
	}
	return op{n, map[string]trace.Binding{"U": trace.Bind3D(u), "R": trace.Bind3D(r)}}
}

// rprj3Op is the restriction: 27 fine loads per coarse point, then the
// coarse store.
func rprj3Op(coarse, fine *grid.Grid3D) op {
	return op{ir.Rprj3Nest(coarse.NI), map[string]trace.Binding{"COARSE": trace.Bind3D(coarse), "FINE": trace.Bind3D(fine)}}
}

// interpOp is the prolongation: per coarse cell the 8 corner loads, then
// a read-modify-write of each of the 8 fine targets.
func interpOp(fine, coarse *grid.Grid3D) op {
	return op{ir.InterpNest(coarse.NI), map[string]trace.Binding{"COARSE": trace.Bind3D(coarse), "FINE": trace.Bind3D(fine)}}
}

// fillOp is zeroing a grid: one store per allocated element, as a single
// phase unit.
func fillOp(g *grid.Grid3D) op {
	n := &ir.Nest{
		Loops: []ir.Loop{ir.SimpleLoop("X", 0, 0), ir.SimpleLoop("I", 0, g.Elems()-1)},
		Body:  []ir.Ref{ir.StoreRef("G", ir.Var("I", 0))},
	}
	return op{n, map[string]trace.Binding{"G": {Base: g.Base(), Strides: []int64{1}}}}
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
// V-cycle plus the finest residual) is recorded and excluded, and the
// measured iteration is served from its records by the steady engine's
// delta layer. The statistics equal a raw replay of the same two
// iterations. accessCycles, l1Miss and l2Miss parameterize the time
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
// served from the warm-up's records.
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
