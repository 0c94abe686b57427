package tiling3d

// One benchmark per table and figure of the paper's evaluation, plus the
// ablations DESIGN.md calls out. Simulation benchmarks report the
// figure's metric (miss rates, model MFlops) via b.ReportMetric, so
// `go test -bench .` regenerates the headline numbers; the full per-size
// series come from cmd/simulate, cmd/perf, cmd/memuse, cmd/mgrid and
// cmd/experiments.

import (
	"fmt"
	"testing"

	"tiling3d/internal/bench"
	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/mg"
	"tiling3d/internal/stencil"
)

// benchOpt is the paper's setup at one representative problem size per
// measurement (the CLI tools sweep the full 200..400 range).
func benchOpt() bench.Options {
	opt := bench.DefaultOptions()
	// A shorter third dimension keeps bench iterations fast. It must not
	// be a multiple of 4: GcdPad's padded plane is 512 elements mod the
	// 2048-element cache, so K = 0 mod 4 makes the padded per-array size
	// a cache multiple and aligns RESID's three arrays (see the
	// cross-alignment discussion in EXPERIMENTS.md). The paper's K=30
	// avoids it too.
	opt.K = 14
	return opt
}

// BenchmarkTable1Euc3D regenerates Table 1's enumeration and the
// Section 3.3 selection example.
func BenchmarkTable1Euc3D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tiles := core.Euc3DArrayTiles(2048, 200, 200, 4)
		if len(tiles) < 14 {
			b.Fatalf("only %d tiles", len(tiles))
		}
		t, _ := core.Euc3D(2048, 200, 200, core.Jacobi6pt())
		if t.TI != 22 || t.TJ != 13 {
			b.Fatalf("selection %v", t)
		}
	}
}

// simBench runs a simulated point and reports the figure metrics.
func simBench(b *testing.B, k stencil.Kernel, m core.Method, n int) {
	b.Helper()
	opt := benchOpt()
	var p bench.MissPoint
	for i := 0; i < b.N; i++ {
		p = bench.SimulatePoint(k, m, n, opt)
	}
	b.ReportMetric(p.L1, "L1miss%")
	b.ReportMetric(p.L2, "L2miss%")
}

// BenchmarkTable3 regenerates the Table 3 cells at N=300 for every
// kernel and transformation (averages over the sweep come from
// cmd/experiments -table3).
func BenchmarkTable3(b *testing.B) {
	for _, k := range stencil.Kernels() {
		for _, m := range core.PaperMethods() {
			b.Run(fmt.Sprintf("%s/%s", k, m), func(b *testing.B) {
				simBench(b, k, m, 300)
			})
		}
	}
}

// Figures 14, 16, 18: miss-rate curves. Each benchmark reproduces the
// curve's characteristic points: a mid-range size and a pathological one.
func BenchmarkFig14JacobiMiss(b *testing.B) {
	for _, n := range []int{256, 300, 362} {
		for _, m := range []core.Method{core.Orig, core.MethodTile, core.MethodGcdPad} {
			b.Run(fmt.Sprintf("N%d/%s", n, m), func(b *testing.B) { simBench(b, stencil.Jacobi, m, n) })
		}
	}
}

func BenchmarkFig16RedBlackMiss(b *testing.B) {
	for _, m := range []core.Method{core.Orig, core.MethodGcdPad, core.MethodPad} {
		b.Run(m.String(), func(b *testing.B) { simBench(b, stencil.RedBlack, m, 300) })
	}
}

func BenchmarkFig18ResidMiss(b *testing.B) {
	for _, m := range []core.Method{core.Orig, core.MethodGcdPad, core.MethodPad} {
		b.Run(m.String(), func(b *testing.B) { simBench(b, stencil.Resid, m, 300) })
	}
}

// estBench reports cycle-model MFlops (Figures 15/17/19/21).
func estBench(b *testing.B, k stencil.Kernel, m core.Method, n int, model bench.CycleModel) {
	b.Helper()
	opt := benchOpt()
	var p bench.PerfPoint
	for i := 0; i < b.N; i++ {
		p = bench.EstimatePoint(k, m, n, opt, model)
	}
	b.ReportMetric(p.MFlops, "modelMFlops")
}

func BenchmarkFig15JacobiPerf(b *testing.B) {
	for _, m := range []core.Method{core.Orig, core.MethodEuc3D, core.MethodGcdPad} {
		b.Run(m.String(), func(b *testing.B) {
			estBench(b, stencil.Jacobi, m, 300, bench.UltraSparc2Model())
		})
	}
}

func BenchmarkFig17RedBlackPerf(b *testing.B) {
	for _, m := range []core.Method{core.Orig, core.MethodGcdPad} {
		b.Run(m.String(), func(b *testing.B) {
			estBench(b, stencil.RedBlack, m, 300, bench.UltraSparc2Model())
		})
	}
}

func BenchmarkFig19ResidPerf(b *testing.B) {
	for _, m := range []core.Method{core.Orig, core.MethodGcdPad} {
		b.Run(m.String(), func(b *testing.B) {
			estBench(b, stencil.Resid, m, 300, bench.UltraSparc2Model())
		})
	}
}

// Figures 20-21: larger RESID sizes on the 450 MHz model.
func BenchmarkFig20ResidLargeMiss(b *testing.B) {
	for _, m := range []core.Method{core.Orig, core.MethodGcdPad} {
		b.Run(m.String(), func(b *testing.B) { simBench(b, stencil.Resid, m, 500) })
	}
}

func BenchmarkFig21ResidLargePerf(b *testing.B) {
	for _, m := range []core.Method{core.Orig, core.MethodGcdPad} {
		b.Run(m.String(), func(b *testing.B) {
			estBench(b, stencil.Resid, m, 500, bench.UltraSparc2Model450())
		})
	}
}

// BenchmarkFig22Memory reports the average padding overheads.
func BenchmarkFig22Memory(b *testing.B) {
	opt := bench.DefaultOptions()
	var gcd, pad float64
	for i := 0; i < b.N; i++ {
		gcd = bench.AverageMem(bench.MemorySeries(stencil.Jacobi, core.MethodGcdPad, 30, opt))
		pad = bench.AverageMem(bench.MemorySeries(stencil.Jacobi, core.MethodPad, 30, opt))
	}
	b.ReportMetric(gcd, "GcdPad%")
	b.ReportMetric(pad, "Pad%")
}

// BenchmarkMGRID times the Section 4.6 application with original and
// tiled RESID (native wall-clock; one V-cycle per iteration).
func BenchmarkMGRID(b *testing.B) {
	const lm = 6
	fm := (1 << lm) + 2
	plans := map[string]core.Plan{
		"Orig":   {},
		"GcdPad": core.Select(core.MethodGcdPad, 2048, fm, fm, stencil.Resid.Spec()),
	}
	for name, plan := range plans {
		b.Run(name, func(b *testing.B) {
			s := mg.New(mg.Params{LM: lm, Plan: plan})
			s.SetPointCharges(16)
			s.Resid()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.VCycle()
			}
		})
	}
}

// BenchmarkAblationCopy measures Section 3.1's claim: tile copying adds
// a large constant overhead for stencils.
func BenchmarkAblationCopy(b *testing.B) {
	n := 300
	plan := core.GcdPad(2048, n, n, core.Jacobi6pt())
	w := stencil.NewWorkload(stencil.Jacobi, n, 16, plan, stencil.DefaultCoeffs())
	b.Run("TiledInPlace", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stencil.JacobiTiled(w.Grids[0], w.Grids[1], 1.0/6, plan.Tile.TI, plan.Tile.TJ)
		}
	})
	b.Run("TiledWithCopy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stencil.JacobiCopyTiled(w.Grids[0], w.Grids[1], 1.0/6, plan.Tile.TI, plan.Tile.TJ)
		}
	})
	b.Run("CopyTrafficFraction", func(b *testing.B) {
		var f float64
		for i := 0; i < b.N; i++ {
			f = stencil.CopyOverheadFraction(plan.Tile.TI, plan.Tile.TJ)
		}
		b.ReportMetric(100*f, "copy%")
	})
}

// BenchmarkAblationThreeLoop measures Section 2.2's claim: tiling all
// three loops (Wolf-Lam shape) loses reuse at every KK boundary compared
// to tiling only J and I.
func BenchmarkAblationThreeLoop(b *testing.B) {
	n := 300
	plan := core.GcdPad(2048, n, n, core.Jacobi6pt())
	w := stencil.NewWorkload(stencil.Jacobi, n, 16, plan, stencil.DefaultCoeffs())
	run := func(b *testing.B, trace func(mem cache.Memory)) {
		var rate float64
		for i := 0; i < b.N; i++ {
			h := cache.MustHierarchy(cache.UltraSparc2L1())
			trace(h)
			h.ResetStats()
			trace(h)
			rate = h.Level(0).Stats().MissRate()
		}
		b.ReportMetric(rate, "L1miss%")
	}
	b.Run("TwoLoops", func(b *testing.B) {
		run(b, func(mem cache.Memory) {
			w.RunTrace(mem)
		})
	})
	b.Run("ThreeLoops", func(b *testing.B) {
		run(b, func(mem cache.Memory) {
			stencil.JacobiTiled3LoopTrace(w.Grids[0], w.Grids[1], mem, plan.Tile.TI, plan.Tile.TJ, 4)
		})
	})
}

// BenchmarkAblationRecursive compares cache-oblivious recursion (related
// work: Gatlin-Carter, Yi-Adve-Kennedy) against explicit tiling+padding
// at a friendly and a pathological size.
func BenchmarkAblationRecursive(b *testing.B) {
	opt := benchOpt()
	for _, n := range []int{300, 256} {
		b.Run(fmt.Sprintf("Recursive/N%d", n), func(b *testing.B) {
			w := stencil.NewWorkload(stencil.Jacobi, n, opt.K,
				core.Plan{DI: n, DJ: n}, opt.Coeffs)
			var rate float64
			for i := 0; i < b.N; i++ {
				h := cache.MustHierarchy(opt.L1)
				stencil.JacobiRecursiveTrace(w.Grids[0], w.Grids[1], h, 24)
				h.ResetStats()
				stencil.JacobiRecursiveTrace(w.Grids[0], w.Grids[1], h, 24)
				rate = h.Level(0).Stats().MissRate()
			}
			b.ReportMetric(rate, "L1miss%")
		})
		b.Run(fmt.Sprintf("GcdPad/N%d", n), func(b *testing.B) {
			simBench(b, stencil.Jacobi, core.MethodGcdPad, n)
		})
	}
}

// BenchmarkAblationBaselines compares the extra baselines' miss rates.
func BenchmarkAblationBaselines(b *testing.B) {
	for _, m := range []core.Method{core.MethodEffCache, core.MethodLRW, core.MethodGcdPad} {
		b.Run(m.String(), func(b *testing.B) { simBench(b, stencil.Jacobi, m, 300) })
	}
}

// BenchmarkAblationAssoc quantifies how associativity erodes the
// conflict-miss motivation: the Tile-vs-GcdPad gap at 1-, 2- and 4-way.
func BenchmarkAblationAssoc(b *testing.B) {
	opt := benchOpt()
	for _, a := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("assoc-%d", a), func(b *testing.B) {
			var pts []bench.AssocPoint
			for i := 0; i < b.N; i++ {
				pts = bench.AssocSensitivity(stencil.Jacobi, 256, []int{a}, opt)
			}
			b.ReportMetric(pts[0].Tile-pts[0].GcdPad, "gap-pp")
		})
	}
}

// BenchmarkSelectionAlgorithms measures planning cost: the efficiency
// argument of Sections 3.3-3.4 (Euc3D and GcdPad are cheap; Pad searches;
// Panda-style exhaustive testing pays per conflict test).
func BenchmarkSelectionAlgorithms(b *testing.B) {
	st := core.Jacobi6pt()
	b.Run("Euc3D", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.Euc3D(2048, 341, 341, st)
		}
	})
	b.Run("GcdPad", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.GcdPad(2048, 341, 341, st)
		}
	})
	b.Run("Pad", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.Pad(2048, 341, 341, st)
		}
	})
	b.Run("PandaPad", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.PandaPad(2048, 341, 341, st)
		}
	})
}

// BenchmarkCacheSimThroughput measures the simulator itself.
func BenchmarkCacheSimThroughput(b *testing.B) {
	h := cache.UltraSparc2()
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.Load(int64(i) * 8)
		}
	})
	b.Run("strided", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.Load(int64(i) * 2048)
		}
	})
}

// BenchmarkReplayRuns measures the batched replay engine against the
// per-access path on one Jacobi sweep at N=256, K=30, simulated through
// the UltraSparc2 hierarchy. Orig is the conflict-heavy untiled stream;
// GcdPad is the padded+tiled stream; GcdPadNT (padding without tiling)
// has full-row runs, where the per-run setup amortizes over ~64 lines
// and batching pays off most. RedBlack replays one red-black sweep of
// each method at N=256, K=30, batched only: the padded streams' stencil
// references step 16 bytes at a time, 8 bytes apart, half-stride
// clusters that no member leads, which the exact interleaved loop
// replays. ResidOrig128
// is the advisor's conflict-bound case: untiled RESID at N=128, K=16,
// whose rows and planes collide in the L1, on the advisor's three L1
// geometries over the paper's L2.
//
// The conflict partition sends each stream's accesses to these kinds:
//
//	Jacobi/Orig        single, general (conflicts)
//	Jacobi/GcdPad      single, ladder
//	Jacobi/GcdPadNT    single, ladder, phased
//	RedBlack/Orig      single, general (conflicts)
//	RedBlack/GcdPad    single, general (half-stride clusters, half the accesses)
//	RedBlack/GcdPadNT  phased, general (half-stride clusters, half the accesses)
//	ResidOrig128       general (conflicts), every access
//
// Metrics are simulated Maccess/s and ns/access.
func BenchmarkReplayRuns(b *testing.B) {
	n, k := 256, 30
	for _, m := range []core.Method{core.Orig, core.MethodGcdPad, core.MethodGcdPadNT} {
		plan := core.Select(m, 2048, n, n, stencil.Jacobi.Spec())
		w := stencil.NewTraceWorkload(stencil.Jacobi, n, k, plan)
		accesses := float64(w.AccessCount())
		b.Run(m.String()+"/PerAccess", func(b *testing.B) {
			h := cache.UltraSparc2()
			w.RunTrace(h) // warm
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.RunTrace(h)
			}
			reportAccessRate(b, accesses)
		})
		b.Run(m.String()+"/Batched", func(b *testing.B) { benchReplay(b, w, cache.UltraSparc2()) })
	}
	for _, m := range []core.Method{core.Orig, core.MethodGcdPad, core.MethodGcdPadNT} {
		rb := stencil.NewTraceWorkload(stencil.RedBlack, n, k, core.Select(m, 2048, n, n, stencil.RedBlack.Spec()))
		b.Run("RedBlack/"+m.String(), func(b *testing.B) { benchReplay(b, rb, cache.UltraSparc2()) })
	}
	rw := stencil.NewTraceWorkload(stencil.Resid, 128, 16, core.Select(core.Orig, 2048, 128, 128, stencil.Resid.Spec()))
	for _, l1 := range []struct {
		name string
		cfg  cache.Config
	}{
		{"dm16k", cache.UltraSparc2L1()},
		{"assoc2", cache.Config{SizeBytes: 16 << 10, LineBytes: 32, Assoc: 2}},
		{"dm32k", cache.Config{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 1}},
	} {
		b.Run("ResidOrig128/"+l1.name, func(b *testing.B) {
			benchReplay(b, rw, cache.MustHierarchy(l1.cfg, cache.UltraSparc2L2()))
		})
	}
}

// benchReplay times batched replays of w's stream into h after one
// warming replay.
func benchReplay(b *testing.B, w *stencil.Workload, h *cache.Hierarchy) {
	w.ReplayTrace(h) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.ReplayTrace(h)
	}
	reportAccessRate(b, float64(w.AccessCount()))
}

// emitCounter is a counting sink that also takes phase markers, so a
// trace emission into it costs the emitter alone, markers included.
type emitCounter struct {
	accesses, marks int64
}

func (c *emitCounter) ReplayRuns(runs []cache.Run) {
	for _, r := range runs {
		c.accesses += int64(r.Count)
	}
}

func (c *emitCounter) PlaneMark(cache.PlaneMark) { c.marks++ }

// BenchmarkTraceEmit measures the cost of producing the simulated
// address streams, without simulating them: one kernel sweep per
// kernel x {Orig, GcdPad} at N=300, K=30, and one §4.6 V-cycle at LM=7
// for the original and the GcdPad-transformed solver, each emitted into
// a counting sink. Metrics are ns/op (one sweep or V-cycle) and
// Maccess/s.
func BenchmarkTraceEmit(b *testing.B) {
	const n, depth = 300, 30
	for _, k := range stencil.Kernels() {
		for _, m := range []core.Method{core.Orig, core.MethodGcdPad} {
			w := stencil.NewTraceWorkload(k, n, depth, core.Select(m, 2048, n, n, k.Spec()))
			b.Run(k.String()+"/"+m.String(), func(b *testing.B) {
				var c emitCounter
				for i := 0; i < b.N; i++ {
					w.ReplayTrace(&c)
				}
				reportAccessRate(b, float64(w.AccessCount()))
			})
		}
	}
	const lm = 7
	fm := (1 << lm) + 2
	for _, m := range []core.Method{core.Orig, core.MethodGcdPad} {
		s := mg.New(mg.Params{LM: lm, Plan: core.Select(m, 2048, fm, fm, stencil.Resid.Spec())})
		var perCycle emitCounter
		s.TraceVCycleRuns(&perCycle)
		b.Run("VCycle/"+m.String(), func(b *testing.B) {
			var c emitCounter
			for i := 0; i < b.N; i++ {
				s.TraceVCycleRuns(&c)
			}
			reportAccessRate(b, float64(perCycle.accesses))
		})
	}
}

// BenchmarkSteady measures the steady-state plane-cycle engine against
// full batched simulation on one Jacobi sweep. The warm sweep pays the
// observation cost (recording per-plane patterns, fingerprinting state);
// from then on the engine recognises the cycle almost immediately and
// extrapolates the remaining planes, so steady-state sweeps cost a small
// fixed number of simulated planes regardless of depth. Results are
// bit-identical either way (TestSteadyDifferential* prove it).
func BenchmarkSteady(b *testing.B) {
	n, k := 300, 30
	for _, m := range []core.Method{core.Orig, core.MethodGcdPad, core.MethodGcdPadNT} {
		plan := core.Select(m, 2048, n, n, stencil.Jacobi.Spec())
		w := stencil.NewTraceWorkload(stencil.Jacobi, n, k, plan)
		accesses := float64(w.AccessCount())
		b.Run(m.String()+"/Full", func(b *testing.B) {
			h := cache.UltraSparc2()
			w.ReplayTrace(h) // warm
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.ReplayTrace(h)
			}
			reportAccessRate(b, accesses)
		})
		b.Run(m.String()+"/Steady", func(b *testing.B) {
			h := cache.UltraSparc2()
			s := cache.NewSteady(h)
			w.ReplayTrace(s) // warm: observes, confirms the cycle
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.ReplayTrace(s)
			}
			reportAccessRate(b, accesses)
		})
	}
}

// BenchmarkWarmShare measures cross-point warm-baseline sharing on one
// kernel's sweep grid: points whose selection plans are identical are
// grouped, one lead simulates, and the rest copy its result. The grid is
// a slice of the paper's (REDBLACK has the most plan-identical method
// pairs at these sizes). Results are bit-identical with sharing off
// (TestWarmShareIdentical proves it); the benchmark reports how much
// wall time the copies buy.
func BenchmarkWarmShare(b *testing.B) {
	opt := benchOpt()
	opt.NMin, opt.NMax, opt.NStep = 200, 248, 16
	for _, on := range []bool{false, true} {
		name := "Off"
		if on {
			name = "On"
		}
		b.Run(name, func(b *testing.B) {
			o := opt
			o.DisableWarmShare = !on
			for i := 0; i < b.N; i++ {
				if _, err := bench.MissSweep(stencil.RedBlack, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func reportAccessRate(b *testing.B, accessesPerOp float64) {
	b.Helper()
	secs := b.Elapsed().Seconds()
	total := accessesPerOp * float64(b.N)
	if secs > 0 {
		b.ReportMetric(total/secs/1e6, "Maccess/s")
		b.ReportMetric(secs*1e9/total, "ns/access")
	}
}

// BenchmarkSimFanout measures the worker-pool fan-out over independent
// sweep cells: the Figure-14 Jacobi GcdPad series, serial versus all
// cores.
func BenchmarkSimFanout(b *testing.B) {
	opt := benchOpt()
	for _, w := range []int{1, cache.DefaultWorkers()} {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			o := opt
			o.Workers = w
			for i := 0; i < b.N; i++ {
				bench.MissSeries(stencil.Jacobi, core.MethodGcdPad, o)
			}
		})
	}
}

// BenchmarkNativeKernels times the raw kernels on the host at the paper's
// N=300, K=30 for each method perfbench's native workload runs, and
// reports MFlop/s as its mflops_* do: the flops of one sweep over the
// time of one sweep. (The paper's MFlops comparisons use the cycle model.)
func BenchmarkNativeKernels(b *testing.B) {
	const n, depth = 300, 30
	for _, k := range stencil.Kernels() {
		for _, m := range []core.Method{core.Orig, core.MethodGcdPad, core.MethodPad} {
			b.Run(fmt.Sprintf("%s/%s", k, m), func(b *testing.B) {
				w := stencil.NewWorkload(k, n, depth, core.Select(m, 2048, n, n, k.Spec()), stencil.DefaultCoeffs())
				b.SetBytes(w.AccessCount() * 8)
				w.RunNative() // warm: first touch of every page
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w.RunNative()
				}
				if secs := b.Elapsed().Seconds(); secs > 0 {
					b.ReportMetric(float64(w.Flops())*float64(b.N)/secs/1e6, "MFlop/s")
				}
			})
		}
	}
}
