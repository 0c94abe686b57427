// Package repro encodes the paper's checkable claims as named,
// executable checks — the reproduction's self-test. Each check states
// the claim (in the paper's terms), runs the relevant piece of the
// library, and reports what it got; cmd/repro prints the table and
// fails if any check fails. The unit tests in each package are finer
// grained; these are the headline results.
package repro

import (
	"fmt"
	"math"

	"tiling3d/internal/analytic"
	"tiling3d/internal/bench"
	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/mg"
	"tiling3d/internal/stencil"
	"tiling3d/internal/transform"

	"tiling3d/internal/ir"
)

// Result is one executed check.
type Result struct {
	ID    string
	Claim string
	Got   string
	Pass  bool
}

// Check is a named, executable claim.
type Check struct {
	ID    string
	Claim string
	Run   func() (got string, pass bool)
}

// quickOptions is the paper's configuration with a reduced sweep so the
// whole suite runs in seconds.
func quickOptions() bench.Options {
	opt := bench.DefaultOptions()
	opt.K = 12
	return opt
}

// Checks returns the full suite in presentation order.
func Checks() []Check {
	opt := quickOptions()
	return []Check{
		{
			ID:    "table1",
			Claim: "Table 1: non-conflicting tiles for 200x200xM, 16K cache",
			Run: func() (string, bool) {
				want := map[[3]int]bool{
					{1, 1, 2048}: true, {1, 10, 200}: true, {1, 41, 48}: true, {1, 256, 8}: true,
					{2, 1, 960}: true, {2, 4, 200}: true, {2, 5, 160}: true, {2, 15, 40}: true,
					{3, 5, 72}: true, {3, 11, 40}: true, {3, 15, 24}: true,
					{4, 4, 72}: true, {4, 15, 16}: true, {4, 56, 8}: true,
				}
				found := 0
				for _, t := range core.Euc3DArrayTiles(2048, 200, 200, 4) {
					if want[[3]int{t.TK, t.TJ, t.TI}] {
						found++
					}
				}
				return fmt.Sprintf("%d/14 listed tiles present", found), found == 14
			},
		},
		{
			ID:    "euc3d-example",
			Claim: "Section 3.3: Euc3D selects (22, 13) for 200x200xM",
			Run: func() (string, bool) {
				t, ok := core.Euc3D(2048, 200, 200, core.Jacobi6pt())
				return t.String(), ok && t.TI == 22 && t.TJ == 13
			},
		},
		{
			ID:    "gcdpad-example",
			Claim: "Section 3.4.1: GcdPad tile (32,16,4); 224<DI<=288 pads to 288",
			Run: func() (string, bool) {
				at := core.GcdPadArrayTile(2048, core.Jacobi6pt())
				p := core.GcdPad(2048, 250, 250, core.Jacobi6pt())
				got := fmt.Sprintf("tile %v, DI 250 -> %d", at, p.DI)
				return got, at == core.ArrayTile{TI: 32, TJ: 16, TK: 4} && p.DI == 288
			},
		},
		{
			ID:    "boundaries",
			Claim: "Section 1: reuse boundaries N=1024 (2D/16K), 32 (3D/16K), 362 (3D/2M)",
			Run: func() (string, bool) {
				a := bench.MaxN2D(cache.UltraSparc2L1())
				b := bench.MaxN3D(cache.UltraSparc2L1())
				c := bench.MaxN3D(cache.UltraSparc2L2())
				return fmt.Sprintf("%d, %d, %d", a, b, c), a == 1024 && b == 32 && c == 362
			},
		},
		{
			ID:    "orig-miss-rates",
			Claim: "Table 3: JACOBI original miss rates ~32.7% L1, ~6.3% L2",
			Run: func() (string, bool) {
				o := bench.DefaultOptions()
				o.K = 30
				p := bench.SimulatePoint(stencil.Jacobi, core.Orig, 300, o)
				got := fmt.Sprintf("L1 %.1f%%, L2 %.1f%%", p.L1, p.L2)
				return got, math.Abs(p.L1-32.7) < 4 && p.L2 > 3 && p.L2 < 9
			},
		},
		{
			ID:    "padding-beats-tiling-alone",
			Claim: "Table 3: GcdPad/Pad beat Tile/Euc3D beat Orig on L1 (all kernels)",
			Run: func() (string, bool) {
				// The paper's K=30 configuration. (With other K values
				// the padded per-array size can become a multiple of
				// the cache, aligning RESID's three arrays — see the
				// cross-alignment check below.)
				o := bench.DefaultOptions()
				for _, k := range stencil.Kernels() {
					orig := bench.SimulatePoint(k, core.Orig, 300, o).L1
					tile := bench.SimulatePoint(k, core.MethodTile, 300, o).L1
					gcd := bench.SimulatePoint(k, core.MethodGcdPad, 300, o).L1
					if !(gcd < tile && tile < orig) {
						return fmt.Sprintf("%v: orig %.1f, tile %.1f, gcdpad %.1f", k, orig, tile, gcd), false
					}
				}
				return "ordering holds for JACOBI, REDBLACK, RESID", true
			},
		},
		{
			ID:    "cross-alignment",
			Claim: "Section 3.5: inter-variable padding fixes cross-array alignment",
			Run: func() (string, bool) {
				// K=12 makes GcdPad's padded RESID arrays an exact
				// multiple of the cache (352*304*12 = 0 mod 2048): the
				// three arrays align and interfere. Spreading the bases
				// with core.CrossPlacement recovers the loss.
				o := quickOptions()
				plan := o.Plan(stencil.Resid, core.MethodGcdPad, 300)
				aligned := simulateWorkload(stencil.NewTraceWorkload(stencil.Resid, 300, o.K, plan), o)
				sizes := []int{plan.DI * plan.DJ * o.K, plan.DI * plan.DJ * o.K, plan.DI * plan.DJ * o.K}
				gaps := core.CrossPlacement(o.CacheElems(), sizes)
				spread := simulateWorkload(stencil.NewTraceWorkloadPlaced(stencil.Resid, 300, o.K, plan, gaps), o)
				got := fmt.Sprintf("aligned %.1f%%, inter-padded %.1f%%", aligned, spread)
				return got, spread < aligned-2
			},
		},
		{
			ID:    "spikes",
			Claim: "Figure 14: Orig spikes at pathological sizes; GcdPad stays flat",
			Run: func() (string, bool) {
				calm := bench.SimulatePoint(stencil.Jacobi, core.Orig, 300, opt).L1
				spike := bench.SimulatePoint(stencil.Jacobi, core.Orig, 256, opt).L1
				g1 := bench.SimulatePoint(stencil.Jacobi, core.MethodGcdPad, 300, opt).L1
				g2 := bench.SimulatePoint(stencil.Jacobi, core.MethodGcdPad, 256, opt).L1
				got := fmt.Sprintf("orig 300:%.1f 256:%.1f; gcdpad 300:%.1f 256:%.1f", calm, spike, g1, g2)
				return got, spike > calm+15 && math.Abs(g1-g2) < 3
			},
		},
		{
			ID:    "euc3d-pathological",
			Claim: "Section 3.4: at sizes like 341x341 Euc3D tiles are pathologically thin",
			Run: func() (string, bool) {
				t, ok := core.Euc3D(2048, 341, 341, core.Jacobi6pt())
				return t.String(), ok && (t.TI <= 6 || t.TJ <= 6)
			},
		},
		{
			ID:    "fig22-memory",
			Claim: "Figure 22: padding overhead ~14.7% (GcdPad) vs ~4.7% (Pad)",
			Run: func() (string, bool) {
				o := bench.DefaultOptions()
				gcd := bench.AverageMem(bench.MemorySeries(stencil.Jacobi, core.MethodGcdPad, 30, o))
				pad := bench.AverageMem(bench.MemorySeries(stencil.Jacobi, core.MethodPad, 30, o))
				got := fmt.Sprintf("GcdPad %.2f%%, Pad %.2f%%", gcd, pad)
				return got, gcd > 8 && gcd < 20 && pad < 8 && pad < gcd
			},
		},
		{
			ID:    "mgrid-identical",
			Claim: "Section 4.6: MGRID with tiled RESID computes identical results",
			Run: func() (string, bool) {
				res := mg.RunExperiment(4, 2, 2048, core.MethodGcdPad)
				return fmt.Sprintf("identical=%v, norm %.3e", res.Identical, res.FinalNorm), res.Identical
			},
		},
		{
			ID:    "mgrid-modest-l1",
			Claim: "Section 4.6: the 130^3 input has a modest ~6.8% RESID L1 miss rate",
			Run: func() (string, bool) {
				est := bench.MGridAmdahl(7, core.MethodGcdPad, 0.6, quickOptions(), bench.UltraSparc2Model())
				got := fmt.Sprintf("orig L1 %.2f%%", est.OrigL1)
				return got, est.OrigL1 > 4 && est.OrigL1 < 10
			},
		},
		{
			ID:    "mgrid-whole-app",
			Claim: "Section 4.6: ~6% whole-application improvement at 130^3",
			Run: func() (string, bool) {
				sim := mg.RunSimulatedExperiment(7, 2048, core.MethodGcdPad,
					cache.UltraSparc2L1(), cache.UltraSparc2L2(), 1, 8, 50)
				got := fmt.Sprintf("L1 %.2f%% -> %.2f%%, cycle-model %+.1f%%",
					sim.OrigL1, sim.TiledL1, sim.ImprovementPct)
				return got, sim.ImprovementPct > 1 && sim.ImprovementPct < 15 && sim.TiledL1 < sim.OrigL1
			},
		},
		{
			ID:    "copy-unprofitable",
			Claim: "Section 3.1: tile copying adds a large constant access fraction",
			Run: func() (string, bool) {
				f := stencil.CopyOverheadFraction(30, 14)
				return fmt.Sprintf("%.0f%% of accesses", 100*f), f > 0.1
			},
		},
		{
			ID:    "fusion-shift",
			Claim: "Figure 5/12: fusing compute with copy-back needs a one-plane shift",
			Run: func() (string, bool) {
				n1 := ir.JacobiNest(20, 12)
				i, j, k := ir.Var("I", 0), ir.Var("J", 0), ir.Var("K", 0)
				n2 := &ir.Nest{Loops: []ir.Loop{
					ir.SimpleLoop("K", 1, 10), ir.SimpleLoop("J", 1, 18), ir.SimpleLoop("I", 1, 18),
				}}
				n2.SetCompute(ir.Assign{
					LHS:   ir.Ref{Array: "B", Subs: []ir.Expr{i, j, k}},
					Terms: []ir.Term{{Coeff: "ONE", Refs: []ir.Ref{ir.Load("A", i, j, k)}}},
				})
				s, err := transform.MinLegalShift(n1, n2)
				return fmt.Sprintf("shift %d", s), err == nil && s == 1
			},
		},
		{
			ID:    "analytic-predictor",
			Claim: "Section 1 arithmetic: capacity model tracks the simulator off-spike",
			Run: func() (string, bool) {
				m := analytic.FromConfig(cache.UltraSparc2L1(), 8)
				pred := m.JacobiOrigMissRate(299)
				sim := bench.SimulatePoint(stencil.Jacobi, core.Orig, 299, opt).L1
				got := fmt.Sprintf("predicted %.1f%%, simulated %.1f%%", pred, sim)
				return got, math.Abs(pred-sim) < 6
			},
		},
	}
}

// simulateWorkload measures one workload's warm L1 miss rate: one
// warm-up sweep, then one measured sweep, both batched.
func simulateWorkload(w *stencil.Workload, opt bench.Options) float64 {
	h := cache.MustHierarchy(opt.L1, opt.L2) //lint:allow mustcheck -- Options geometry validated upstream
	cache.WarmMeasure(h, nil, 1, w.ReplayTrace)
	return h.Level(0).Stats().MissRate()
}

// RunAll executes every check.
func RunAll() []Result {
	var out []Result
	for _, c := range Checks() {
		got, pass := c.Run()
		out = append(out, Result{ID: c.ID, Claim: c.Claim, Got: got, Pass: pass})
	}
	return out
}
