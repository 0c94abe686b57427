package mg

import (
	"time"

	"tiling3d/internal/core"
	"tiling3d/internal/stencil"
)

// ExperimentResult reports the Section 4.6 MGRID experiment: total solver
// run time with the original RESID versus RESID tiled (and padded) at the
// finest grid only.
type ExperimentResult struct {
	// LM and Iterations describe the workload (LM=7 is the 130^3
	// reference size).
	LM, Iterations int
	// Plan is the transformation applied to the finest level.
	Plan core.Plan
	// OrigSeconds and TiledSeconds are the wall-clock times.
	OrigSeconds, TiledSeconds float64
	// ImprovementPct is (orig/tiled - 1) * 100.
	ImprovementPct float64
	// FinalNorm is the residual norm after the run (identical for both).
	FinalNorm float64
	// Identical reports whether the two runs produced bit-identical
	// solutions, which the tiling transformation guarantees.
	Identical bool
}

// RunExperiment times the solver with and without the method's
// transformation of RESID on the finest grid. cs is the targeted cache
// capacity in elements (2048 for the paper's 16K L1).
func RunExperiment(lm, iterations, cs int, m core.Method) ExperimentResult {
	fm := (1 << lm) + 2
	plan := core.Select(m, cs, fm, fm, stencil.Resid.Spec())

	run := func(p core.Plan) (*Solver, float64) {
		s := New(Params{LM: lm, Plan: p})
		s.SetPointCharges(20)
		start := time.Now()
		s.Iterate(iterations)
		return s, time.Since(start).Seconds()
	}
	orig, origSec := run(core.Plan{})
	tiled, tiledSec := run(plan)

	res := ExperimentResult{
		LM: lm, Iterations: iterations, Plan: plan,
		OrigSeconds: origSec, TiledSeconds: tiledSec,
		ImprovementPct: (origSec/tiledSec - 1) * 100,
		FinalNorm:      tiled.ResidualNorm(),
		Identical:      orig.Finest().MaxAbsDiff(tiled.Finest()) == 0,
	}
	return res
}
