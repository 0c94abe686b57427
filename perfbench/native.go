package main

import (
	"runtime/debug"
	"time"

	"tiling3d/internal/core"
	"tiling3d/internal/grid"
	"tiling3d/internal/mg"
	"tiling3d/internal/stencil"
)

// The native workload: the three kernels run serially on real arrays
// (the simulator is not involved) for each method and problem size, then
// the Section 4.6 MGRID solver untiled and with its finest RESID tiled.

const (
	nativeK = 30
	// nativeSweeps is the number of timed sweeps per cell; one untimed
	// warm-up sweep precedes them.
	nativeSweeps = 5
	// paperCacheElems is the paper's 16K L1 in doubles, the capacity
	// every plan targets.
	paperCacheElems = 2048
	mgLM            = 7 // finest grid 130^3, SPEC MGRID's reference size
	mgCycles        = 8
	// scheduleWorkers is the worker count of the traced run's parallel
	// re-run of the tiled cells.
	scheduleWorkers = 2
)

var (
	nativeSizes   = []int{200, 300, 400}
	nativeMethods = []core.Method{core.Orig, core.MethodGcdPad, core.MethodPad}
)

// outputGrid is the index of the array a kernel sweep writes: JACOBI
// writes B from A, REDBLACK updates A in place, RESID writes R.
func outputGrid(k stencil.Kernel) int {
	if k == stencil.Jacobi {
		return 1
	}
	return 0
}

type nativeCell struct {
	k      stencil.Kernel
	m      core.Method
	n      int
	mflops float64 // flops over the median timed sweep
}

// nativePass is one pass of the workload. Its timed phase is every
// sweep and V-cycle, warm-ups included; set-up (array allocation and
// initialisation) and the release of memory between cells are not.
type nativePass struct {
	cells     []nativeCell
	setup     time.Duration
	wall, cpu time.Duration
	// latMs holds every timed sweep and V-cycle.
	latMs           []float64
	vcOrig, vcTiled []float64
}

// runNativePass runs every cell and both MGRID solvers, checking each
// output against its oracle, under spans below root when tr is non-nil.
func runNativePass(rep *report, tr *tracer, root int) nativePass {
	var p nativePass
	run := 0
	// Sizes outermost, so that each kernel's cells spread over the pass.
	for _, n := range nativeSizes {
		for _, k := range stencil.Kernels() {
			var ref *grid.Grid3D // the Orig cell's output
			for _, m := range nativeMethods {
				run++
				cell := tr.begin("native.cell", root, run)
				id := tr.begin("core.Select", cell, run)
				plan := core.Select(m, paperCacheElems, n, n, k.Spec())
				tr.end(id)
				start := time.Now()
				w := stencil.NewWorkload(k, n, nativeK, plan, stencil.DefaultCoeffs())
				end := time.Now()
				tr.span("grid.alloc_init", cell, run, start, end)
				p.setup += end.Sub(start)
				secs := p.sweeps(w.RunNative, tr, cell, run, "stencil.RunNative")
				tr.end(cell)
				p.cells = append(p.cells, nativeCell{k, m, n, float64(w.Flops()) / median(secs) / 1e6})

				out, bad := w.Grids[outputGrid(k)], 0
				if m == core.Orig {
					ref = out
				} else if d := out.MaxAbsDiff(ref); d != 0 {
					bad = nativeSweeps
					rep.note("FAILED: %s %s N=%d output differs from Orig by %g", k, m, n, d)
				}
				rep.tally(nativeSweeps, bad)
				// Every cell allocates cold, as a fresh process would;
				// only the Orig output outlives its cell.
				debug.FreeOSMemory()
			}
		}
	}

	fm := (1 << mgLM) + 2
	orig := p.solve(tr, root, core.Plan{}, "mg.VCycle.orig", &p.vcOrig)
	tiled := p.solve(tr, root, core.Select(core.MethodGcdPad, paperCacheElems, fm, fm, stencil.Resid.Spec()),
		"mg.VCycle.tiled", &p.vcTiled)
	bad := 0
	if d := orig.Finest().MaxAbsDiff(tiled.Finest()); d != 0 {
		bad = mgCycles
		rep.note("FAILED: tiled MGRID solution differs from the untiled one by %g", d)
	}
	rep.tally(2*mgCycles, bad)
	return p
}

// sweeps runs one warm-up and nativeSweeps timed calls of sweep as part
// of the timed phase, each timed call a span, and returns their seconds.
func (p *nativePass) sweeps(sweep func(), tr *tracer, parent, run int, name string) []float64 {
	sw := startWatch()
	sweep()
	secs := make([]float64, 0, nativeSweeps)
	for s := 0; s < nativeSweeps; s++ {
		start := time.Now()
		sweep()
		end := time.Now()
		tr.span(name, parent, run, start, end)
		secs = append(secs, end.Sub(start).Seconds())
		p.latMs = append(p.latMs, ms(end.Sub(start)))
	}
	wall, cpu := sw.stop()
	p.wall += wall
	p.cpu += cpu
	return secs
}

// solve builds an MGRID solver (set-up) and times the solve: an initial
// residual, mgCycles V-cycles, a final residual.
func (p *nativePass) solve(tr *tracer, root int, plan core.Plan, name string, cycles *[]float64) *mg.Solver {
	start := time.Now()
	s := mg.New(mg.Params{LM: mgLM, Plan: plan})
	s.SetPointCharges(20)
	end := time.Now()
	tr.span("mg.New", root, 0, start, end)
	p.setup += end.Sub(start)

	sw := startWatch()
	s.Resid()
	for i := 0; i < mgCycles; i++ {
		start := time.Now()
		s.VCycle()
		end := time.Now()
		tr.span(name, root, 0, start, end)
		*cycles = append(*cycles, ms(end.Sub(start)))
		p.latMs = append(p.latMs, ms(end.Sub(start)))
	}
	s.Resid()
	wall, cpu := sw.stop()
	p.wall += wall
	p.cpu += cpu
	return s
}

// geomeanMFlops is the geometric mean of the MFlops of the cells keep
// selects.
func geomeanMFlops(cells []nativeCell, keep func(nativeCell) bool) float64 {
	var xs []float64
	for _, c := range cells {
		if keep(c) {
			xs = append(xs, c.mflops)
		}
	}
	g, _ := geomean(xs) // cell MFlops are positive: flops over a measured time
	return g
}

func measureNative(cfg runConfig, rep *report) {
	s := samples{}
	tail, nOps := 0, 0
	repeat(cfg, func() {
		p := runNativePass(rep, nil, 0)
		s.add("setup_s", p.setup.Seconds())
		nOps = len(p.latMs)
		tail = s.addPass(p.wall, p.cpu, p.latMs)
		s.add("mgrid_ms", median(p.vcTiled))
		for _, k := range stencil.Kernels() {
			s.add("mflops_"+kernelName(k), geomeanMFlops(p.cells, func(c nativeCell) bool { return c.k == k }))
		}
	})
	s.report(rep)
	rep.note("native: %d passes; latency per timed sweep and V-cycle, tail p%d of %d a pass", len(s["wall_s"]), tail, nOps)
}

func tracedNative(cfg runConfig, rep *report, tr *tracer) {
	alloc := totalAlloc()
	base := runNativePass(rep, nil, 0)
	passAlloc := totalAlloc() - alloc
	root := tr.begin("native.pass", 0, 0)
	traced := runNativePass(rep, tr, root)
	tr.end(root)
	rep.set("trace.overhead_pct", overheadPct(traced.wall, base.wall))

	for _, k := range stencil.Kernels() {
		for _, m := range nativeMethods {
			rep.set("stencil.mflops."+kernelName(k)+"."+methodName(m),
				geomeanMFlops(traced.cells, func(c nativeCell) bool { return c.k == k && c.m == m }))
		}
		// Computed code balance: flops per byte the kernel's loads and
		// stores name, not measured memory traffic.
		rep.set("stencil.flops_per_byte."+kernelName(k), float64(k.FlopsPerPoint())/float64(8*k.Accesses()))
	}
	rep.set("grid.alloc_init_s", traced.setup.Seconds())
	rep.set("mg.vcycle_ms.orig", median(traced.vcOrig))
	rep.set("mg.vcycle_ms.tiled", median(traced.vcTiled))
	selects := durationsUs(tr.durations("core.Select"))
	rep.set("core.selects", float64(len(selects)))
	rep.set("core.select_us", median(selects))
	runSchedule(rep, tr)
	setProcess(rep, passAlloc)
}

// runSchedule re-runs every tiled cell on scheduleWorkers goroutines
// under the certified wavefront schedule, next to its serial run, and
// requires the parallel output to be bit-identical to the serial one.
func runSchedule(rep *report, tr *tracer) {
	var p nativePass // collects nothing the caller reports
	run := 0
	for _, k := range stencil.Kernels() {
		var mflops, speedup []float64
		for _, n := range nativeSizes {
			for _, m := range nativeMethods[1:] {
				run++
				plan := core.Select(m, paperCacheElems, n, n, k.Spec())
				w := stencil.NewWorkload(k, n, nativeK, plan, stencil.DefaultCoeffs())
				serial := p.sweeps(w.RunNative, tr, 0, run, "schedule.serial")
				want := w.Grids[outputGrid(k)].Clone()
				w.InitDefault()
				var err error
				par := p.sweeps(func() {
					if e := w.RunScheduled(stencil.ScheduleWavefront, scheduleWorkers); e != nil {
						err = e
					}
				}, tr, 0, run, "schedule.wavefront")
				d := w.Grids[outputGrid(k)].MaxAbsDiff(want)
				rep.check(err == nil && d == 0, "%s %s N=%d: wavefront on %d workers differs from serial by %g (err %v)",
					k, m, n, scheduleWorkers, d, err)
				mflops = append(mflops, float64(w.Flops())/median(par)/1e6)
				speedup = append(speedup, median(serial)/median(par))
				debug.FreeOSMemory()
			}
		}
		g, _ := geomean(mflops) // positive by construction
		rep.set("schedule.mflops_2w."+kernelName(k), g)
		g, _ = geomean(speedup)
		rep.set("schedule.speedup_2w."+kernelName(k), g)
	}
}
