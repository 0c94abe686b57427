package bench

import (
	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/stencil"
)

// Sensitivity experiments beyond the paper: how much of the paper's
// effect depends on the direct-mapped cache it assumes. Conflict misses
// are the whole motivation for Euc3D/GcdPad/Pad; with higher
// associativity the conflict-oblivious Tile baseline catches up, which
// bounds the conclusions' reach on modern hardware.

// AssocPoint reports L1 miss rates at one associativity.
type AssocPoint struct {
	Assoc              int
	Orig, Tile, GcdPad float64
}

// AssocSensitivity simulates one kernel/size across L1 associativities
// (same capacity and line size). Per method, a single batched trace —
// with its plane markers — is recorded once and replayed concurrently
// into every associativity's one-level hierarchy under the options'
// warm-measure protocol (LRU order is part of the steady engine's state
// fingerprint, so set-associative caches detect cycles too). The
// interesting output is how much of the untiled code's conflict misses
// hardware ways absorb, and that the conflict-free GcdPad configuration
// has nothing left for them to fix.
func AssocSensitivity(k stencil.Kernel, n int, assocs []int, opt Options) []AssocPoint {
	out := make([]AssocPoint, len(assocs))
	for i, a := range assocs {
		out[i].Assoc = a
	}
	var rec cache.RunRecorder
	run := func(m core.Method, set func(p *AssocPoint, rate float64)) {
		plan := opt.Plan(k, m, n)
		w := stencil.NewTraceWorkload(k, n, opt.K, plan)
		rec.Reset()
		w.ReplayTrace(&rec)
		forEachCtx(opt, len(assocs), func(i int) {
			cfg := opt.L1
			cfg.Assoc = assocs[i]
			h := cache.MustHierarchy(cfg) //lint:allow mustcheck -- capacity/line vetted upstream; assoc divides by construction
			opt.warmMeasure(h, rec.ReplayInto)
			set(&out[i], h.Level(0).Stats().MissRate())
		})
	}
	run(core.Orig, func(p *AssocPoint, r float64) { p.Orig = r })
	run(core.MethodTile, func(p *AssocPoint, r float64) { p.Tile = r })
	run(core.MethodGcdPad, func(p *AssocPoint, r float64) { p.GcdPad = r })
	return out
}

// CrossPoint reports the Section 3.5 cross-interference experiment:
// tiled RESID L1 miss rates with arrays placed back to back (Default,
// the "tolerate cross-interference" strategy the paper adopts) versus
// with partitioned tiles and inter-variable padding (Partitioned).
type CrossPoint struct {
	N                    int
	Orig                 float64
	Default, Partitioned float64
}

// CrossInterference simulates both strategies for RESID at size n.
func CrossInterference(n int, opt Options) CrossPoint {
	k := stencil.Resid
	plan := opt.Plan(k, core.MethodGcdPad, n)
	h := func(w *stencil.Workload) float64 {
		hh := cacheHierarchy(opt)
		opt.warmMeasure(hh, w.ReplayTrace)
		return hh.Level(0).Stats().MissRate()
	}
	def := stencil.NewTraceWorkload(k, n, opt.K, plan)

	part := plan
	part.Tile = core.PartitionTile(plan.Tile, k.Arrays())
	sizes := make([]int, k.Arrays())
	for i := range sizes {
		sizes[i] = part.DI * part.DJ * opt.K
	}
	gaps := core.CrossPlacement(opt.CacheElems(), sizes)
	spread := stencil.NewTraceWorkloadPlaced(k, n, opt.K, part, gaps)

	return CrossPoint{
		N:           n,
		Orig:        SimulatePoint(k, core.Orig, n, opt).L1,
		Default:     h(def),
		Partitioned: h(spread),
	}
}

// PrefetchPoint reports the effect of a next-line prefetcher on one
// configuration.
type PrefetchPoint struct {
	Method             core.Method
	NoPrefetch, WithPF float64
}

// PrefetchSensitivity simulates Orig and GcdPad with and without a
// next-line prefetcher. Prefetching hides the sequential part of the
// untiled code's misses but none of its conflicts, so the padded+tiled
// configuration keeps an advantage even on prefetching hardware — one of
// the reasons the paper's techniques outlived its machines.
func PrefetchSensitivity(k stencil.Kernel, n int, opt Options) []PrefetchPoint {
	out := make([]PrefetchPoint, 0, 2)
	for _, m := range []core.Method{core.Orig, core.MethodGcdPad} {
		p := PrefetchPoint{Method: m}
		p.NoPrefetch = SimulatePoint(k, m, n, opt).L1
		o := opt
		o.L1.NextLinePrefetch = true
		p.WithPF = SimulatePoint(k, m, n, o).L1
		out = append(out, p)
	}
	return out
}

// LinePoint reports L1 miss rates at one line size.
type LinePoint struct {
	LineBytes    int
	Orig, GcdPad float64
}

// LineSensitivity varies the L1 line size at fixed capacity: spatial
// locality scales the absolute rates but not the ordering.
func LineSensitivity(k stencil.Kernel, n int, lines []int, opt Options) []LinePoint {
	out := make([]LinePoint, 0, len(lines))
	for _, l := range lines {
		o := opt
		o.L1.LineBytes = l
		out = append(out, LinePoint{
			LineBytes: l,
			Orig:      SimulatePoint(k, core.Orig, n, o).L1,
			GcdPad:    SimulatePoint(k, core.MethodGcdPad, n, o).L1,
		})
	}
	return out
}
