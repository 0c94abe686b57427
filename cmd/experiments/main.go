// Command experiments regenerates the paper's whole evaluation in one
// run: Table 1, Table 3, the miss-rate and performance series behind
// Figures 14–21, the Figure 22 memory overheads, the Section 1 reuse
// boundaries, and the Section 4.6 MGRID experiment. Select subsets with
// flags; -quick shrinks the sweeps for a fast smoke run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"text/tabwriter"

	"tiling3d/internal/bench"
	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/mg"
	"tiling3d/internal/profiling"
	"tiling3d/internal/results"
	"tiling3d/internal/stencil"
)

// interrupted flips when a sweep returns context.Canceled (SIGINT or
// SIGTERM): sections already gated off, partial tables rendered, and the
// process exits 0 after printing how to resume.
var interrupted bool

// sweepErr sorts a sweep error into the three outcomes: nil (done),
// cancellation (drain, remember, keep rendering partials), anything else
// (fail).
func sweepErr(err error) {
	if err == nil {
		return
	}
	if errors.Is(err, context.Canceled) {
		interrupted = true
		return
	}
	fail(err)
}

func main() {
	var (
		doTable1   = flag.Bool("table1", false, "Table 1: non-conflicting tile enumeration")
		doTable3   = flag.Bool("table3", false, "Table 3: average improvements")
		doFigures  = flag.Bool("figures", false, "Figures 14-19: per-size miss rates and MFlops")
		doLarge    = flag.Bool("large", false, "Figures 20-21: RESID at N=400-700")
		doMem      = flag.Bool("memuse", false, "Figure 22: padding memory overhead")
		doBoundary = flag.Bool("boundary", false, "Section 1 reuse boundaries")
		doMgrid    = flag.Bool("mgrid", false, "Section 4.6 MGRID experiment")
		doSens     = flag.Bool("sensitivity", false, "beyond the paper: associativity, cross-interference and 2D experiments")
		outDir     = flag.String("out", "", "also write SVG charts for the figure sweeps into this directory")
		savePath   = flag.String("save", "", "capture the headline numbers to this JSON snapshot")
		against    = flag.String("against", "", "compare the headline numbers against this JSON snapshot")
		tol        = flag.Float64("tol", 0.5, "comparison tolerance for -against (absolute)")
		all        = flag.Bool("all", false, "run everything")
		quick      = flag.Bool("quick", false, "shrink sweeps for a fast smoke run")
		withPerf   = flag.Bool("perf", true, "include native wall-clock measurements")
		workers    = flag.Int("workers", cache.DefaultWorkers(), "simulation worker goroutines (results are identical for any count)")
		steady     = flag.Bool("steady", true, "steady-state engine: plane-cycle detection, and measured sweeps served from the recorded warm-up (identical results; -steady=false simulates every plane of every sweep)")
		warmShare  = flag.Bool("warmshare", true, "share results between sweep points with identical selection plans (identical results; -warmshare=false simulates every point)")
		verbose    = flag.Bool("v", false, "per-point diagnostics on stderr: how each sweep point was resolved (simulated/shared/degraded) and steady-engine counters")
		checkpoint = flag.String("checkpoint", "", "journal completed simulation points to this file (JSONL)")
		resume     = flag.Bool("resume", false, "with -checkpoint: load already-completed points instead of recomputing them")
		pointTO    = flag.Duration("point-timeout", 0, "per-point watchdog; an expired point retries without the steady engine, then is marked FAIL (0 = off)")
		paranoid   = flag.Int("paranoid", 0, "cross-check every Nth point's steady-engine results against a full replay (0 = off)")
		injectN    = flag.Int("inject-panic", 0, "fault injection: panic every simulation point with this N (demonstrates isolation)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fail(err)
	}
	defer stopProf()
	if *all {
		*doTable1, *doTable3, *doFigures, *doLarge, *doMem, *doBoundary, *doMgrid, *doSens = true, true, true, true, true, true, true, true
	}
	if !(*doTable1 || *doTable3 || *doFigures || *doLarge || *doMem || *doBoundary || *doMgrid || *doSens ||
		*savePath != "" || *against != "") {
		flag.Usage()
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancel the sweeps: in-flight points drain, partial
	// tables render, and the process exits cleanly. A second signal
	// falls through to the default handler (hard kill) because stop()
	// runs as soon as the context cancels.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	opt := bench.DefaultOptions()
	opt.Workers = *workers
	opt.DisableSteady = !*steady
	opt.DisableWarmShare = !*warmShare
	opt.Ctx = ctx
	opt.PointTimeout = *pointTO
	opt.ParanoidEvery = *paranoid
	opt.InjectPanicN = *injectN
	// Tally how each point was resolved for the end-of-run summary; with
	// -v also print every point. The hook runs on worker goroutines; the
	// mutex keeps lines whole and the counters consistent.
	var diagMu sync.Mutex
	var nShared, nDelta, nSim, nDegraded, nFailed int
	opt.DiagHook = func(d bench.PointDiag) {
		diagMu.Lock()
		switch {
		case d.Shared != "":
			nShared++
		case d.Failed:
			nFailed++
		case d.Degraded:
			nDegraded++
		case d.DeltaReused():
			nDelta++
		default:
			nSim++
		}
		if *verbose {
			fmt.Fprintln(os.Stderr, "point:", d)
		}
		diagMu.Unlock()
	}
	defer func() {
		diagMu.Lock()
		defer diagMu.Unlock()
		if n := nShared + nDelta + nSim + nDegraded + nFailed; n > 0 {
			fmt.Fprintf(os.Stderr, "points: %d total — %d shared, %d delta-replayed, %d fully simulated, %d degraded, %d failed\n",
				n, nShared, nDelta, nSim, nDegraded, nFailed)
		}
		if total, live := bench.AbandonedWorkers(); total > 0 {
			fmt.Fprintf(os.Stderr, "warning: the point watchdog abandoned %d simulation goroutine(s); %d still running at exit\n", total, live)
		}
	}()
	if *quick {
		opt.NStep = 50
	}
	if err := opt.Validate(); err != nil {
		usageFail(err)
	}
	if *checkpoint != "" {
		j, err := bench.OpenJournal(*checkpoint, opt, *resume)
		if err != nil {
			usageFail(err)
		}
		opt.Journal = j
		if *resume && j.Resumed() > 0 {
			fmt.Fprintf(os.Stderr, "resuming: %d completed points loaded from %s\n", j.Resumed(), *checkpoint)
		}
	} else if *resume {
		usageFail(errors.New("-resume requires -checkpoint"))
	}
	defer finish(opt, *checkpoint)

	if *doTable1 {
		fmt.Println("=== Table 1: non-conflicting array tiles (200x200xM, 16K cache) ===")
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "TK\tTJ\tTI\t")
		for _, t := range core.Euc3DArrayTilesParallel(2048, 200, 200, 4, *workers) {
			fmt.Fprintf(tw, "%d\t%d\t%d\t\n", t.TK, t.TJ, t.TI)
		}
		tw.Flush()
		tile, _ := core.Euc3D(2048, 200, 200, core.Jacobi6pt())
		fmt.Printf("Euc3D selection for a +/-1 stencil: %v (paper: (22, 13))\n\n", tile)
	}

	if *doBoundary && ctx.Err() == nil {
		fmt.Println("=== Section 1: reuse boundaries ===")
		fmt.Printf("2D stencil, 16K L1: group reuse preserved up to N = %d (paper: 1024)\n",
			bench.MaxN2D(cache.UltraSparc2L1()))
		fmt.Printf("3D stencil, 16K L1: up to N = %d (paper: 32)\n", bench.MaxN3D(cache.UltraSparc2L1()))
		fmt.Printf("3D stencil,  2M L2: up to N = %d (paper: 362)\n", bench.MaxN3D(cache.UltraSparc2L2()))
		p := bench.ProbeBoundary3D(cache.UltraSparc2L1(), 8, opt)
		fmt.Printf("simulated cliff at the L1 boundary: %.2f%% at N=%d vs %.2f%% at N=%d\n\n",
			p.MissBelow, p.NBelow, p.MissAbove, p.NAbove)
	}

	if *doTable3 && ctx.Err() == nil {
		fmt.Println("=== Table 3: average improvements over N=200..400 ===")
		rows, err := bench.Table3(opt, *withPerf)
		sweepErr(err)
		if err := bench.WriteTable3(os.Stdout, rows, opt.Methods); err != nil {
			fail(err)
		}
		fmt.Println()
	}

	if *doFigures && ctx.Err() == nil {
		figNum := map[stencil.Kernel][2]int{
			stencil.Jacobi: {14, 15}, stencil.RedBlack: {16, 17}, stencil.Resid: {18, 19},
		}
		for _, k := range stencil.Kernels() {
			if ctx.Err() != nil {
				break
			}
			fmt.Printf("=== Figures: %s ===\n", k)
			miss, est, err := bench.CombinedSweep(k, opt, bench.UltraSparc2Model())
			sweepErr(err)
			if miss == nil {
				break
			}
			if err := bench.WriteMissSeries(os.Stdout, k, miss, opt.Methods, opt); err != nil {
				fail(err)
			}
			if err := bench.WritePerfSeries(os.Stdout, k, "cycle-model (360MHz)", est, opt.Methods, opt); err != nil {
				fail(err)
			}
			if *outDir != "" {
				nums := figNum[k]
				saveSVG(*outDir, fmt.Sprintf("fig%d-l1.svg", nums[0]), bench.MissChart(k, miss, opt.Methods, 1))
				saveSVG(*outDir, fmt.Sprintf("fig%d-l2.svg", nums[0]), bench.MissChart(k, miss, opt.Methods, 2))
				saveSVG(*outDir, fmt.Sprintf("fig%d.svg", nums[1]), bench.PerfChart(k, "cycle-model", est, opt.Methods))
			}
			if *withPerf {
				if err := bench.WritePerfSeries(os.Stdout, k, "native", bench.PerfSweep(k, opt), opt.Methods, opt); err != nil {
					fail(err)
				}
			}
			fmt.Println()
		}
	}

	if *doLarge && ctx.Err() == nil {
		fmt.Println("=== Figures 20-21: RESID at larger sizes ===")
		large := opt
		large.NMin, large.NMax = 400, 700
		if *quick {
			large.NStep = 75
		} else {
			large.NStep = 12
		}
		missL, estL, err := bench.CombinedSweep(stencil.Resid, large, bench.UltraSparc2Model450())
		sweepErr(err)
		if missL == nil {
			missL, estL = map[core.Method][]bench.MissPoint{}, map[core.Method][]bench.PerfPoint{}
		}
		if err := bench.WriteMissSeries(os.Stdout, stencil.Resid, missL, large.Methods, large); err != nil {
			fail(err)
		}
		if err := bench.WritePerfSeries(os.Stdout, stencil.Resid, "cycle-model (450MHz)", estL, large.Methods, large); err != nil {
			fail(err)
		}
		if *outDir != "" {
			saveSVG(*outDir, "fig20-l1.svg", bench.MissChart(stencil.Resid, missL, large.Methods, 1))
			saveSVG(*outDir, "fig20-l2.svg", bench.MissChart(stencil.Resid, missL, large.Methods, 2))
			saveSVG(*outDir, "fig21.svg", bench.PerfChart(stencil.Resid, "cycle-model (450MHz)", estL, large.Methods))
		}
		if *withPerf {
			if err := bench.WritePerfSeries(os.Stdout, stencil.Resid, "native", bench.PerfSweep(stencil.Resid, large), large.Methods, large); err != nil {
				fail(err)
			}
		}
		fmt.Println()
	}

	if *doMem && ctx.Err() == nil {
		fmt.Println("=== Figure 22: memory increase from padding (JACOBI) ===")
		methods := []core.Method{core.MethodGcdPad, core.MethodPad}
		series := map[core.Method][]bench.MemPoint{}
		for _, m := range methods {
			series[m] = bench.MemorySeries(stencil.Jacobi, m, opt.K, opt)
		}
		if err := bench.WriteMemSeries(os.Stdout, series, methods, opt); err != nil {
			fail(err)
		}
		fmt.Println()
	}

	if (*savePath != "" || *against != "") && ctx.Err() == nil {
		fmt.Fprintln(os.Stderr, "capturing headline snapshot...")
		snap, err := results.Capture("cmd/experiments", opt)
		if errors.Is(err, context.Canceled) {
			interrupted = true
			return
		}
		if err != nil {
			fail(err)
		}
		if *savePath != "" {
			if err := results.Save(*savePath, snap); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *savePath)
		}
		if *against != "" {
			base, err := results.Load(*against)
			if err != nil {
				fail(err)
			}
			diffs := results.Compare(base, snap, *tol)
			if len(diffs) == 0 {
				fmt.Printf("headline numbers match %s within %.2f\n", *against, *tol)
			} else {
				fmt.Printf("%d deviations from %s (tol %.2f):\n", len(diffs), *against, *tol)
				for _, d := range diffs {
					fmt.Println("  " + d.String())
				}
				os.Exit(1)
			}
		}
	}

	if *doSens && ctx.Err() == nil {
		sensitivity(opt)
	}

	if *doMgrid && ctx.Err() == nil {
		fmt.Println("=== Section 4.6: MGRID ===")
		lm, iters := 7, 8
		if *quick {
			lm, iters = 5, 4
		}
		res := mg.RunExperiment(lm, iters, opt.CacheElems(), core.MethodGcdPad)
		fmt.Printf("finest grid %d^3, %d V-cycles: orig %.3fs, tiled %.3fs, native improvement %+.1f%%, identical=%v\n",
			(1<<lm)+2, iters, res.OrigSeconds, res.TiledSeconds, res.ImprovementPct, res.Identical)
		est := bench.MGridAmdahl(lm, core.MethodGcdPad, 0.60, opt, bench.UltraSparc2Model())
		fmt.Printf("simulated finest-grid RESID L1: orig %.2f%% (paper: 6.8%% at 130^3), tiled %.2f%%\n",
			est.OrigL1, est.TiledL1)
		fmt.Printf("cycle-model: RESID speedup %.2fx; whole-app estimate %+.1f%% (paper: 6%%; pathological sizes improve much more)\n\n",
			est.ResidSpeedup, est.AppImprovementPct)
	}
}

func sensitivity(opt bench.Options) {
	fmt.Println("=== Beyond the paper: sensitivity ===")
	fmt.Println("L1 associativity (JACOBI, N=256, pathological):")
	for _, p := range bench.AssocSensitivity(stencil.Jacobi, 256, []int{1, 2, 4, 8}, opt) {
		fmt.Printf("  %d-way: Orig %6.2f%%  Tile %6.2f%%  GcdPad %6.2f%%\n", p.Assoc, p.Orig, p.Tile, p.GcdPad)
	}
	fmt.Println("cross-interference (RESID, Section 3.5):")
	for _, n := range []int{256, 300, 341} {
		p := bench.CrossInterference(n, opt)
		fmt.Printf("  N=%d: Orig %6.2f%%  tiled back-to-back %6.2f%%  partitioned+inter-pad %6.2f%%\n",
			p.N, p.Orig, p.Default, p.Partitioned)
	}
	fmt.Println("2D Jacobi (tiling unnecessary below N=1024):")
	for _, p := range bench.TwoDSeries([]int{500, 900, 1000, 1100}, opt.L1, opt) {
		fmt.Printf("  N=%d: Orig %6.2f%%  tiled %6.2f%%\n", p.N, p.Orig, p.Tiled)
	}
	fmt.Println()
}

func saveSVG(dir, name string, chart interface {
	WriteSVG(w io.Writer) error
}) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail(err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	if err := chart.WriteSVG(f); err != nil {
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// usageFail reports a bad invocation (flag values, journal mismatch)
// without a stack trace and exits 2, the conventional usage-error code.
func usageFail(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(2)
}

// finish runs at exit on the normal path: it surfaces journal write
// failures (a stale checkpoint must not look like a good one) and, after
// an interrupt, says what completed and how to pick the run back up.
func finish(opt bench.Options, checkpoint string) {
	if opt.Journal != nil {
		if err := opt.Journal.WriteErr(); err != nil {
			fmt.Fprintln(os.Stderr, "warning: checkpoint is incomplete:", err)
		}
	}
	if !interrupted {
		return
	}
	if opt.Journal != nil {
		fmt.Fprintf(os.Stderr, "interrupted: %d points checkpointed; resume with -resume -checkpoint %s\n",
			opt.Journal.Len(), checkpoint)
	} else {
		fmt.Fprintln(os.Stderr, "interrupted: partial results shown; use -checkpoint to make runs resumable")
	}
}
