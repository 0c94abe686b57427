package bench

import (
	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/stencil"
)

// MissPoint is one simulated measurement: miss rates (percent) on both
// cache levels for one problem size. A zero-valued point (N == 0; valid
// sweeps have N >= 3) marks a cell a cancelled sweep never reached;
// Failed marks a cell whose simulation failed after all retries.
type MissPoint struct {
	N      int
	L1, L2 float64
	Failed bool
}

// missPoint converts a sweep outcome to the miss-rate view, keeping the
// problem size on failed cells so tables can label them.
func (o PointOutcome) missPoint() MissPoint {
	if o.Failed {
		return MissPoint{N: o.Key.N, Failed: true}
	}
	if o.Res.N == 0 {
		return MissPoint{}
	}
	return o.Res.MissPoint()
}

// MissSeries simulates the kernel under one transformation across the
// sweep, producing the per-size curves of Figures 14, 16, 18 and 20.
// Cells are simulated concurrently (each owns its workload and its
// simulated caches, so results are deterministic). On cancellation the
// partial series is returned along with the context's error.
func MissSeries(k stencil.Kernel, m core.Method, opt Options) ([]MissPoint, error) {
	o := opt
	o.Methods = []core.Method{m}
	outs, err := simGrid(k, o)
	pts := make([]MissPoint, len(outs))
	for i, oc := range outs {
		pts[i] = oc.missPoint()
	}
	return pts, err
}

// MissSweep runs the sweep for every configured method in one
// concurrent pass.
func MissSweep(k stencil.Kernel, opt Options) (map[core.Method][]MissPoint, error) {
	outs, err := simGrid(k, opt)
	if outs == nil {
		return nil, err
	}
	sizes := len(opt.Sizes())
	out := make(map[core.Method][]MissPoint, len(opt.Methods))
	for mi, m := range opt.Methods {
		pts := make([]MissPoint, sizes)
		for ni := 0; ni < sizes; ni++ {
			pts[ni] = outs[mi*sizes+ni].missPoint()
		}
		out[m] = pts
	}
	return out, err
}

// SimResult is the raw outcome of simulating one (kernel, method, size)
// cell: the per-level statistics of the measured sweeps and the flops
// they performed. Both the miss-rate figures and the cycle-model
// performance figures derive from it, so one simulation serves both.
type SimResult struct {
	N      int
	L1, L2 cache.Stats
	Flops  int64
}

// MissPoint converts the result to the miss-rate metrics. The L2 rate is
// normalized to the program's accesses (as the paper plots it: both
// curves on one percentage axis), not to L2 traffic.
func (r SimResult) MissPoint() MissPoint {
	l2Rate := 0.0
	if a := r.L1.Accesses(); a > 0 {
		l2Rate = 100 * float64(r.L2.Misses()) / float64(a)
	}
	return MissPoint{N: r.N, L1: r.L1.MissRate(), L2: l2Rate}
}

// SimulateStats simulates one (kernel, method, size) cell: one warm-up
// sweep, then opt.Sweeps measured sweeps through the two-level hierarchy
// (cache.WarmMeasure). Simulation is trace-only, so the workload carries
// no element data and the sweeps run on the batched replay engine.
func SimulateStats(k stencil.Kernel, m core.Method, n int, opt Options) SimResult {
	w := stencil.NewTraceWorkload(k, n, opt.K, opt.Plan(k, m, n))
	return opt.simulate(w, n, cacheHierarchy(opt))
}

// simulate runs the warm-measure protocol of w's trace on h through the
// options' engine, fills the diagnostic targets from that engine, and
// returns the measured statistics.
func (o Options) simulate(w *stencil.Workload, n int, h *cache.Hierarchy) SimResult {
	sd := o.steady(h)
	sweeps := o.measuredSweeps()
	cache.WarmMeasure(h, sd, sweeps, w.ReplayTrace)
	if o.steadyDiag != nil && sd != nil {
		*o.steadyDiag = sd.Diag()
	}
	if o.deltaDiag != nil && sd != nil {
		*o.deltaDiag = sd.DeltaInfo()
	}
	return SimResult{
		N:     n,
		L1:    h.Level(0).Stats(),
		L2:    h.Level(1).Stats(),
		Flops: w.Flops() * int64(sweeps),
	}
}

// SimulatePoint simulates one cell and returns its miss rates.
func SimulatePoint(k stencil.Kernel, m core.Method, n int, opt Options) MissPoint {
	return SimulateStats(k, m, n, opt).MissPoint()
}

// cacheHierarchy builds the simulated memory system of an options set.
// Geometry is vetted by Options.Validate at sweep start (and the paper
// presets are valid by construction), so a failure here is an internal
// invariant — and inside the sweep engine even that is isolated per
// point.
func cacheHierarchy(opt Options) *cache.Hierarchy {
	return cache.MustHierarchy(opt.L1, opt.L2) //lint:allow mustcheck -- Options geometry validated upstream
}

// AverageMiss returns the mean L1 and L2 miss rates of a series,
// skipping failed and never-run cells.
func AverageMiss(s []MissPoint) (l1, l2 float64) {
	n := 0
	for _, p := range s {
		if p.Failed || p.N == 0 {
			continue
		}
		l1 += p.L1
		l2 += p.L2
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return l1 / float64(n), l2 / float64(n)
}
