package bench

import (
	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/stencil"
)

// CycleModel converts simulated cache statistics into estimated execution
// time for a simple in-order machine, standing in for the paper's
// 360 MHz UltraSparc2. Modern hosts hide the paper's effect behind
// multi-megabyte last-level caches and prefetchers, so the wall-clock
// MFlops figures (15/17/19/21) are reproduced from the simulator with
// this model; native timings remain available for comparison.
//
// Cost: every access costs AccessCycles; an L1 miss adds L1MissCycles; a
// miss that also misses L2 adds L2MissCycles more. Arithmetic adds
// FlopCycles per floating-point operation.
type CycleModel struct {
	ClockMHz     float64
	AccessCycles float64
	L1MissCycles float64
	L2MissCycles float64
	FlopCycles   float64
}

// UltraSparc2Model approximates the paper's 360 MHz UltraSparc2: single-
// cycle L1 hits, roughly 8-cycle L1 miss penalty to the on-board E-cache
// and a 50-cycle memory penalty, with the FPU sustaining about one flop
// per cycle.
func UltraSparc2Model() CycleModel {
	return CycleModel{
		ClockMHz:     360,
		AccessCycles: 1,
		L1MissCycles: 8,
		L2MissCycles: 50,
		FlopCycles:   1,
	}
}

// UltraSparc2Model450 is the 450 MHz variant used for the paper's larger
// problem sizes (Figures 20-21).
func UltraSparc2Model450() CycleModel {
	m := UltraSparc2Model()
	m.ClockMHz = 450
	return m
}

// MFlops converts per-sweep statistics into sustained MFlops.
func (m CycleModel) MFlops(flops int64, l1 cache.Stats, l2 cache.Stats) float64 {
	cycles := m.AccessCycles*float64(l1.Accesses()) +
		m.L1MissCycles*float64(l1.Misses()) +
		m.L2MissCycles*float64(l2.Misses()) +
		m.FlopCycles*float64(flops)
	seconds := cycles / (m.ClockMHz * 1e6)
	return float64(flops) / seconds / 1e6
}

// Estimate converts a simulation result to model-estimated MFlops.
func (r SimResult) Estimate(model CycleModel) PerfPoint {
	return PerfPoint{N: r.N, MFlops: model.MFlops(r.Flops, r.L1, r.L2)}
}

// estPoint converts a sweep outcome to the cycle-model view, keeping the
// problem size on failed cells so tables can label them.
func (o PointOutcome) estPoint(model CycleModel) PerfPoint {
	if o.Failed {
		return PerfPoint{N: o.Key.N, Failed: true}
	}
	if o.Res.N == 0 {
		return PerfPoint{}
	}
	return o.Res.Estimate(model)
}

// EstimateSweep produces the model-estimated MFlops curves of every
// configured method in one concurrent pass.
func EstimateSweep(k stencil.Kernel, opt Options, model CycleModel) (map[core.Method][]PerfPoint, error) {
	outs, err := simGrid(k, opt)
	if outs == nil {
		return nil, err
	}
	sizes := len(opt.Sizes())
	out := make(map[core.Method][]PerfPoint, len(opt.Methods))
	for mi, m := range opt.Methods {
		pts := make([]PerfPoint, sizes)
		for ni := 0; ni < sizes; ni++ {
			pts[ni] = outs[mi*sizes+ni].estPoint(model)
		}
		out[m] = pts
	}
	return out, err
}

// CombinedSweep produces the miss-rate curves and the cycle-model
// performance curves for every method from a single simulation pass per
// cell — the figures of the paper come in pairs (miss rates + MFlops)
// over the same runs. All cells simulate concurrently through the
// resilient sweep engine, so the maps may carry failed or (after
// cancellation, signalled by the returned error) never-run cells.
func CombinedSweep(k stencil.Kernel, opt Options, model CycleModel) (map[core.Method][]MissPoint, map[core.Method][]PerfPoint, error) {
	outs, err := simGrid(k, opt)
	if outs == nil {
		return nil, nil, err
	}
	sizes := len(opt.Sizes())
	miss := make(map[core.Method][]MissPoint, len(opt.Methods))
	perf := make(map[core.Method][]PerfPoint, len(opt.Methods))
	for mi, m := range opt.Methods {
		mp := make([]MissPoint, sizes)
		pp := make([]PerfPoint, sizes)
		for ni := 0; ni < sizes; ni++ {
			mp[ni] = outs[mi*sizes+ni].missPoint()
			pp[ni] = outs[mi*sizes+ni].estPoint(model)
		}
		miss[m] = mp
		perf[m] = pp
	}
	return miss, perf, err
}
