package main

import (
	"bytes"
	_ "embed"
	"fmt"
	"strconv"
	"sync"
	"time"

	"tiling3d/internal/bench"
	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/mg"
	"tiling3d/internal/stencil"
)

// The sim workload: the quick Table 3 sweep (cmd/experiments -table3
// -quick) on one worker with the engine at its defaults, then the
// Section 4.6 simulated MGRID experiment.

// goldenTable3 is the quick Table 3 as the engines-off path renders it:
// `experiments -table3 -quick -perf=false -steady=false -warmshare=false
// -delta=false`, header line and trailing blank line removed.
//
//go:embed golden/table3_quick.txt
var goldenTable3 []byte

// goldenMGrid holds the recorded Section 4.6 simulated L1 miss rates.
//
//go:embed golden/mgrid_sim.txt
var goldenMGrid string

// setupReps is how many times a pass repeats its set-up; setup_s is the
// median over every repetition of the run.
const setupReps = 20

func simOptions() bench.Options {
	opt := bench.DefaultOptions()
	opt.NStep = 50 // the -quick sweep: N = 200, 250, ..., 400
	opt.Workers = 1
	return opt
}

// simPoint is one point of the sweep with its selected plan and the
// flops of one simulated kernel sweep.
type simPoint struct {
	k     stencil.Kernel
	m     core.Method
	n     int
	plan  core.Plan
	flops int64
}

// simSetup is the work before the first timed operation: option
// validation and plan selection for every point.
func simSetup(opt bench.Options) ([]simPoint, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	var pts []simPoint
	for _, k := range stencil.Kernels() {
		for _, m := range opt.Methods {
			for _, n := range opt.Sizes() {
				plan := opt.Plan(k, m, n)
				pts = append(pts, simPoint{k, m, n, plan, stencil.NewTraceWorkload(k, n, opt.K, plan).Flops()})
			}
		}
	}
	return pts, nil
}

// simPass is one timed pass of the workload.
type simPass struct {
	wall, cpu time.Duration
	// latMs holds each operation's latency: every sweep point (the time
	// since the previous point completed; the sweep runs on one worker)
	// and the MGRID experiment.
	latMs      []float64
	kernelTime map[string]time.Duration
	mgTime     time.Duration
	diags      []bench.PointDiag
	table      []byte
	mg         mg.SimulatedExperiment
	err        error
}

// runSimPass times Table 3 and the MGRID experiment, under spans when tr
// is non-nil.
func runSimPass(opt bench.Options, tr *tracer, root int) simPass {
	p := simPass{kernelTime: map[string]time.Duration{}}
	var mu sync.Mutex
	var last time.Time
	table := 0
	opt.DiagHook = func(d bench.PointDiag) {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		p.latMs = append(p.latMs, ms(now.Sub(last)))
		p.kernelTime[d.Key.Kernel] += now.Sub(last)
		p.diags = append(p.diags, d)
		tr.span("bench.point", table, len(p.diags), last, now)
		last = now
	}
	sw := startWatch()
	last = sw.wall
	table = tr.begin("bench.Table3", root, 0)
	rows, err := bench.Table3(opt, false)
	tr.end(table)
	mgStart := time.Now()
	p.mg = mg.RunSimulatedExperiment(7, opt.CacheElems(), core.MethodGcdPad, opt.L1, opt.L2, 1, 8, 50)
	mgEnd := time.Now()
	p.wall, p.cpu = sw.stop()
	tr.span("mg.RunSimulatedExperiment", root, 0, mgStart, mgEnd)
	p.mgTime = mgEnd.Sub(mgStart)
	p.latMs = append(p.latMs, ms(p.mgTime))

	var buf bytes.Buffer
	if err == nil {
		err = bench.WriteTable3(&buf, rows, opt.Methods)
	}
	p.table, p.err = buf.Bytes(), err
	return p
}

// checkSim counts the pass's operations — every sweep point, the
// rendered table and the MGRID experiment — against their oracles.
func checkSim(rep *report, p simPass, pts []simPoint) {
	bad := len(pts) - len(p.diags)
	for _, d := range p.diags {
		if d.Failed || d.Degraded {
			bad++
			rep.note("FAILED: sweep point %s", d)
		}
	}
	rep.tally(len(pts), bad)
	rep.check(p.err == nil && bytes.Equal(p.table, goldenTable3),
		"Table 3 differs from the engines-off golden (err %v):\n%s", p.err, p.table)
	got := mgridRates(p.mg)
	rep.check(got == goldenMGrid, "Section 4.6 simulated L1 rates %q, recorded %q", got, goldenMGrid)
}

func mgridRates(r mg.SimulatedExperiment) string {
	g := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	return fmt.Sprintf("orig_l1=%s tiled_l1=%s\n", g(r.OrigL1), g(r.TiledL1))
}

func measureSim(cfg runConfig, rep *report) {
	opt := simOptions()
	s := samples{}
	tail, nOps := 0, 0
	repeat(cfg, func() {
		var pts []simPoint
		var err error
		for i := 0; i < setupReps; i++ {
			start := time.Now()
			pts, err = simSetup(opt)
			s.add("setup_s", time.Since(start).Seconds())
		}
		if err != nil {
			rep.check(false, "sim set-up: %v", err)
			return
		}
		p := runSimPass(opt, nil, 0)
		checkSim(rep, p, pts)
		nOps = len(p.latMs)
		tail = s.addPass(p.wall, p.cpu, p.latMs)
		s.add("mgrid_ms", ms(p.mgTime))
		// Simulated MFlop per host second: the warm-up and measured
		// sweeps of the kernel's points over the time its points took.
		flops := map[stencil.Kernel]int64{}
		for _, pt := range pts {
			flops[pt.k] += pt.flops * int64(1+opt.Sweeps)
		}
		for k, f := range flops {
			s.add("mflops_"+kernelName(k), float64(f)/p.kernelTime[k.String()].Seconds()/1e6)
		}
	})
	s.report(rep)
	rep.note("sim: %d passes; latency per sweep point and MGRID experiment, tail p%d of %d a pass; mflops are simulated MFlop per host second",
		len(s["wall_s"]), tail, nOps)
}

func tracedSim(cfg runConfig, rep *report, tr *tracer) {
	opt := simOptions()
	pts, err := simSetup(opt)
	if err != nil {
		rep.check(false, "sim set-up: %v", err)
		return
	}
	alloc := totalAlloc()
	base := runSimPass(opt, nil, 0)
	passAlloc := totalAlloc() - alloc
	checkSim(rep, base, pts)
	root := tr.begin("sim.pass", 0, 0)
	traced := runSimPass(opt, tr, root)
	tr.end(root)
	checkSim(rep, traced, pts)
	rep.set("trace.overhead_pct", overheadPct(traced.wall, base.wall))
	rep.set("mg.sim_s", traced.mgTime.Seconds())
	setSimCounters(rep, base.diags)
	redriveSim(rep, tr, opt, pts)
	setProcess(rep, passAlloc)
}

// setSimCounters records the sweep engine's exact per-point counters,
// summed over the untraced pass's DiagHook records.
func setSimCounters(rep *report, diags []bench.PointDiag) {
	var shared, delta, degraded, failed int
	var refused uint64 // phases any cause kept from detection
	var st cache.SteadyDiag
	var dl cache.DeltaDiag
	for _, d := range diags {
		if d.Shared != "" {
			shared++
		}
		if d.DeltaReused() {
			delta++
		}
		if d.Degraded {
			degraded++
		}
		if d.Failed {
			failed++
		}
		s := d.Steady
		st.Phases += s.Phases
		st.Confirmed += s.Confirmed
		st.ScopedConfirms += s.ScopedConfirms
		st.Echoes += s.Echoes
		st.SweepEchoes += s.SweepEchoes
		refused += s.RefusedDelta + s.RefusedBudget + s.RefusedT0 + s.RefusedShort
		x := d.Delta
		dl.Sweeps += x.Sweeps
		dl.PhasesCommitted += x.PhasesCommitted
		dl.PhasesReplayed += x.PhasesReplayed
		dl.UnitsSkipped += x.UnitsSkipped
		dl.UnitsReplayed += x.UnitsReplayed
		dl.PinCompares += x.PinCompares
		dl.Fallbacks += x.Fallbacks
	}
	n := float64(len(diags))
	rep.set("bench.points", n)
	rep.set("bench.points_shared", float64(shared))
	rep.set("bench.points_delta", float64(delta))
	rep.set("bench.points_degraded", float64(degraded))
	rep.set("bench.points_failed", float64(failed))
	rep.set("bench.share_ratio", ratio(float64(shared), n))
	rep.set("cache.steady.phases", float64(st.Phases))
	rep.set("cache.steady.confirmed", float64(st.Confirmed))
	rep.set("cache.steady.scoped", float64(st.ScopedConfirms))
	rep.set("cache.steady.echoes", float64(st.Echoes))
	rep.set("cache.steady.sweep_echoes", float64(st.SweepEchoes))
	rep.set("cache.steady.refused", float64(refused))
	rep.set("cache.steady.resolved_ratio", ratio(float64(st.Confirmed+st.Echoes), float64(st.Phases)))
	rep.set("cache.delta.sweeps", float64(dl.Sweeps))
	rep.set("cache.delta.phases_committed", float64(dl.PhasesCommitted))
	rep.set("cache.delta.phases_replayed", float64(dl.PhasesReplayed))
	rep.set("cache.delta.units_skipped", float64(dl.UnitsSkipped))
	rep.set("cache.delta.units_replayed", float64(dl.UnitsReplayed))
	rep.set("cache.delta.pin_compares", float64(dl.PinCompares))
	rep.set("cache.delta.fallbacks", float64(dl.Fallbacks))
	rep.set("cache.delta.useful_ratio", ratio(float64(dl.UnitsSkipped), float64(dl.UnitsSkipped+dl.UnitsReplayed)))
}

// redriveSim re-drives every point through public calls, one layer at a
// time: the walker alone, the raw replay engine, the steady engine and
// SimulateStats. The raw engine's measured sweep is the reference the
// other two must reproduce exactly; the sweep itself was checked against
// the engines-off golden.
func redriveSim(rep *report, tr *tracer, opt bench.Options, pts []simPoint) {
	sweeps := 1 + opt.Sweeps
	var runs, accesses int64
	for i, pt := range pts {
		if outOfTime(rep, i, len(pts)) {
			break
		}
		run := i + 1
		root := tr.begin("sim.point", 0, run)
		id := tr.begin("core.Select", root, run)
		plan := core.Select(pt.m, opt.CacheElems(), pt.n, pt.n, pt.k.Spec())
		tr.end(id)
		w := stencil.NewTraceWorkload(pt.k, pt.n, opt.K, plan)

		var cs countSink
		id = tr.begin("stencil.walk.null", root, run)
		w.ReplayTrace(&cs)
		tr.end(id)
		runs += cs.runs
		accesses += cs.accesses

		raw := cache.MustHierarchy(opt.L1, opt.L2)
		walkSweeps(tr, root, run, w, raw, sweeps, "stencil.walk.raw", "cache.replay",
			func(acc *callTimer) cache.RunSink { return timedSink{raw, acc} })
		h := cache.MustHierarchy(opt.L1, opt.L2)
		sd := cache.NewSteady(h)
		walkSweeps(tr, root, run, w, h, sweeps, "stencil.walk.steady", "cache.steady",
			func(acc *callTimer) cache.RunSink { return newTimedPlaneSink(sd, acc) })

		id = tr.begin("bench.SimulateStats", root, run)
		res := bench.SimulateStats(pt.k, pt.m, pt.n, opt)
		tr.end(id)
		tr.end(root)

		want := bench.SimResult{N: pt.n, L1: raw.Level(0).Stats(), L2: raw.Level(1).Stats(), Flops: w.Flops() * int64(opt.Sweeps)}
		rep.check(plan == pt.plan && sameStats(h, want) && res == want,
			"%s/%s N=%d: steady engine or SimulateStats differs from the raw replay", pt.k, pt.m, pt.n)
	}

	point := durationsMs(tr.durations("bench.SimulateStats"))
	rep.set("bench.point_p50_ms", median(point))
	if p88, err := tailPercentile(point, 88); err == nil {
		rep.set("bench.point_p88_ms", p88)
	} else {
		rep.note("bench.point_p88_ms: %v", err)
	}
	selects := durationsUs(tr.durations("core.Select"))
	rep.set("core.selects", float64(len(selects)))
	rep.set("core.select_us", median(selects))
	rep.set("stencil.walk_s", tr.selfTotal("stencil.walk.steady").Seconds())
	rep.set("stencil.runs", float64(runs))
	rep.set("stencil.accesses", float64(accesses))
	rep.set("stencil.accesses_per_run", ratio(float64(accesses), float64(runs)))
	replay := tr.total("cache.replay").Seconds()
	rep.set("cache.replay_s", replay)
	rep.set("cache.replay_maccess_per_s", ratio(float64(int64(sweeps)*accesses)/1e6, replay))
	rep.set("cache.steady_s", tr.total("cache.steady").Seconds())
	// Derived: what the delta layer and the rest of SimulateStats save
	// over driving the steady engine through both sweeps.
	rep.set("cache.delta_saved_s", (tr.total("stencil.walk.steady") - tr.total("bench.SimulateStats")).Seconds())
}

// walkSweeps replays w's warm-up and measured sweeps the way
// SimulateStats does (statistics reset after the warm-up), one walk span
// per sweep with the sink's calls aggregated beneath it.
func walkSweeps(tr *tracer, parent, run int, w *stencil.Workload, h *cache.Hierarchy, sweeps int,
	walkName, sinkName string, wrap func(*callTimer) cache.RunSink) {
	for s := 0; s < sweeps; s++ {
		var acc callTimer
		sink := wrap(&acc)
		id := tr.begin(walkName, parent, run)
		w.ReplayTrace(sink)
		tr.end(id)
		tr.aggregate(sinkName, id, run, &acc)
		if s == 0 {
			h.ResetStats()
		}
	}
}

func sameStats(h *cache.Hierarchy, want bench.SimResult) bool {
	return h.Level(0).Stats() == want.L1 && h.Level(1).Stats() == want.L2
}
