package main

import "tiling3d/internal/stencil"

// metricDef names one reported metric. The lists below are the ones
// BENCHMARK.json declares, in the same order; README.md says which
// end-to-end metric and workload each per-layer metric should move.
type metricDef struct {
	name, unit, better string
}

// endToEnd is printed by every untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"mflops_jacobi", "MFlop/s", "higher"},
	{"mflops_redblack", "MFlop/s", "higher"},
	{"mflops_resid", "MFlop/s", "higher"},
	{"mgrid_ms", "ms", "lower"},
}

// perLayer is printed by every traced run; a layer a workload bypasses
// reports zero there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"bench.points", "count", "higher"},
		{"bench.points_shared", "count", "higher"},
		{"bench.points_delta", "count", "higher"},
		{"bench.points_degraded", "count", "lower"},
		{"bench.points_failed", "count", "lower"},
		{"bench.share_ratio", "ratio", "higher"},
		{"bench.point_p50_ms", "ms", "lower"},
		{"bench.point_p88_ms", "ms", "lower"},
		{"core.selects", "count", "lower"},
		{"core.select_us", "us", "lower"},
		{"stencil.walk_s", "s", "lower"},
		{"stencil.runs", "count", "lower"},
		{"stencil.accesses", "count", "lower"},
		{"stencil.accesses_per_run", "count", "higher"},
		{"cache.replay_s", "s", "lower"},
		{"cache.replay_maccess_per_s", "Maccess/s", "higher"},
		{"cache.steady_s", "s", "lower"},
		{"cache.steady.phases", "count", "lower"},
		{"cache.steady.confirmed", "count", "higher"},
		{"cache.steady.scoped", "count", "higher"},
		{"cache.steady.echoes", "count", "higher"},
		{"cache.steady.sweep_echoes", "count", "higher"},
		{"cache.steady.refused", "count", "lower"},
		{"cache.steady.resolved_ratio", "ratio", "higher"},
		{"cache.delta.sweeps", "count", "higher"},
		{"cache.delta.phases_committed", "count", "higher"},
		{"cache.delta.phases_replayed", "count", "lower"},
		{"cache.delta.units_skipped", "count", "higher"},
		{"cache.delta.units_replayed", "count", "lower"},
		{"cache.delta.pin_compares", "count", "lower"},
		{"cache.delta.fallbacks", "count", "lower"},
		{"cache.delta.useful_ratio", "ratio", "higher"},
		{"cache.delta_saved_s", "s", "higher"},
		{"mg.sim_s", "s", "lower"},
		{"mg.vcycle_ms.orig", "ms", "lower"},
		{"mg.vcycle_ms.tiled", "ms", "lower"},
	}
	for _, k := range stencil.Kernels() {
		for _, m := range nativeMethods {
			defs = append(defs, metricDef{"stencil.mflops." + kernelName(k) + "." + methodName(m), "MFlop/s", "higher"})
		}
	}
	for _, k := range stencil.Kernels() {
		defs = append(defs, metricDef{"stencil.flops_per_byte." + kernelName(k), "flop/B", "higher"})
	}
	defs = append(defs, metricDef{"grid.alloc_init_s", "s", "lower"})
	for _, k := range stencil.Kernels() {
		defs = append(defs, metricDef{"schedule.mflops_2w." + kernelName(k), "MFlop/s", "higher"})
	}
	for _, k := range stencil.Kernels() {
		defs = append(defs, metricDef{"schedule.speedup_2w." + kernelName(k), "x", "higher"})
	}
	defs = append(defs,
		metricDef{"advisor.hit_p50_ms", "ms", "lower"},
		metricDef{"advisor.static_p50_ms", "ms", "lower"},
	)
	for _, g := range advisorGeometries {
		defs = append(defs, metricDef{"advisor.sim_p50_ms." + g.name, "ms", "lower"})
	}
	return append(defs,
		metricDef{"advisor.cache_hit_ratio", "ratio", "higher"},
		metricDef{"advisor.degraded", "count", "lower"},
		metricDef{"advisor.shed", "count", "lower"},
		metricDef{"advisor.errors", "count", "lower"},
		metricDef{"advisor.backend.static_ms", "ms", "lower"},
		metricDef{"advisor.backend.simulate_ms", "ms", "lower"},
		metricDef{"advisor.http_self_ms", "ms", "lower"},
		metricDef{"lang.parse_us", "us", "lower"},
		metricDef{"deps.analyze_us", "us", "lower"},
		metricDef{"transform.apply_us", "us", "lower"},
		metricDef{"deps.certify_us", "us", "lower"},
		metricDef{"analytic.predict_us", "us", "lower"},
		metricDef{"mem.alloc_mb", "MB", "lower"},
		metricDef{"mem.peak_rss_mb", "MB", "lower"},
		metricDef{"trace.overhead_pct", "%", "lower"},
	)
}
