// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Section 4) from the simulator and the
// native kernels. Each experiment is a pure function from Options to a
// result structure; the cmd/ tools and the repository-level benchmarks
// print them.
package bench

import (
	"context"
	"fmt"
	"time"

	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/stencil"
)

// Options configures an experiment sweep. DefaultOptions matches the
// paper's methodology (Section 4.2): 16K/2M direct-mapped caches,
// N x N x 30 problems, N from 200 to 400.
type Options struct {
	// L1 and L2 are the simulated cache geometries.
	L1, L2 cache.Config
	// K is the third array extent (the paper fixes 30 to shorten
	// measurement; conflicts only arise between planes <= 3 apart).
	K int
	// NMin, NMax, NStep define the problem-size sweep over N.
	NMin, NMax, NStep int
	// Methods are the transformations to evaluate.
	Methods []core.Method
	// Coeffs are the kernel constants.
	Coeffs stencil.Coeffs
	// Sweeps is the number of measured kernel sweeps per simulation
	// point; one warm-up sweep always precedes them and is excluded.
	Sweeps int
	// TargetElems overrides the cache size in elements the selection
	// algorithms target; zero means L1's capacity in doubles (the paper
	// tiles for the L1 cache).
	TargetElems int
	// Workers bounds the goroutines a sweep simulates on; zero or
	// negative means cache.DefaultWorkers (GOMAXPROCS). Results are
	// identical for every worker count.
	Workers int
	// ExecWorkers bounds the goroutines one native kernel sweep executes
	// on when ExecSchedule is not serial; zero or negative means
	// GOMAXPROCS, and the pool is clamped to the tile count. Distinct
	// from Workers, which fans out simulation points, not the kernel
	// itself. Kernel results are bit-identical for every worker count.
	ExecWorkers int
	// ExecSchedule selects how native sweeps execute: the classic serial
	// path (zero value), or tiles distributed under a certified batch or
	// wavefront schedule (internal/schedule). Execution knob: measured
	// wall-clock changes, computed bytes do not.
	ExecSchedule stencil.ScheduleMode
	// DisableSteady turns off the steady-state engine — plane-cycle
	// detection and delta replay of the measured sweeps from the recorded
	// warm-up (cache.WarmMeasure) — forcing every plane of every sweep
	// to be simulated in full. The zero value (engine on) is the
	// default; statistics are bit-identical either way, so the flag
	// exists to time full simulation and as a safety valve.
	DisableSteady bool
	// DisableWarmShare turns off cross-point result sharing. By default
	// the sweep engine groups points whose selection plans are identical
	// (same tile, padding and tiling decision — cost-model values are
	// ignored, they do not affect the trace): one lead point simulates,
	// and the rest copy its result, which is exact because a point's
	// statistics are a deterministic function of (kernel, N, plan,
	// sweeps). Like DisableSteady this is an execution knob: results
	// are bit-identical either way.
	DisableWarmShare bool

	// Ctx, when non-nil, cancels a sweep: in-flight points drain, not-
	// yet-started points are skipped, and the experiment returns the
	// partial results computed so far. Nil means context.Background().
	Ctx context.Context
	// Journal, when non-nil, records every completed simulation point
	// and answers lookups for already-completed ones, which is how an
	// interrupted sweep resumes without recomputing.
	Journal *Journal
	// PointTimeout bounds the wall-clock time of one simulation point;
	// zero or negative means no watchdog. An expired point enters the
	// degradation ladder: one retry with the steady engine disabled,
	// then marked failed.
	PointTimeout time.Duration
	// ParanoidEvery, when positive, cross-checks every ParanoidEvery-th
	// simulation point's steady-engine statistics and final cache state
	// against the same protocol replayed raw on a shadow hierarchy. A
	// mismatch enters the degradation ladder like a panic or timeout
	// would.
	ParanoidEvery int
	// InjectPanicN, when positive, makes every simulation point with
	// that problem size panic. It exists to demonstrate and test panic
	// isolation end to end (cmd flag -inject-panic).
	InjectPanicN int
	// InjectSleep, when positive, makes every simulation attempt sleep
	// that long before doing any work, ignoring cancellation — a scripted
	// stand-in for a wedged point. It exists to exercise the watchdog,
	// the SIGINT drain, and the second-signal hard kill deterministically
	// (cmd flag -inject-sleep).
	InjectSleep time.Duration

	// DiagHook, when non-nil, receives one PointDiag per completed sweep
	// point: how it was resolved (simulated, shared, degraded, failed)
	// and the steady engine's phase-handling counters. It is called from
	// worker goroutines; the hook must be safe for concurrent use.
	DiagHook func(PointDiag)

	// pointHook, when non-nil, runs after each point completes and is
	// journaled, with the number of points finished so far. Tests use it
	// to cancel mid-sweep at a deterministic spot.
	pointHook func(done int)
	// steadyDiag, when non-nil, is filled by SimulateStats with the
	// steady sink's diagnostic counters (zero when the steady engine is
	// disabled). The sweep engine points it at a per-attempt local to
	// feed DiagHook.
	steadyDiag *cache.SteadyDiag
	// deltaDiag, when non-nil, is filled by SimulateStats with the delta
	// layer's counters, same contract as steadyDiag.
	deltaDiag *cache.DeltaDiag
	// faultInject, when non-nil, runs at the start of each point's
	// simulation and may panic or sleep to exercise the degradation
	// ladder (it sees the per-attempt options, so a fault can be keyed
	// to DisableSteady being off).
	faultInject func(o Options, m core.Method, n int)
}

// ctx returns the sweep context, never nil.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// Validate checks an Options value once, up front, so a long sweep
// cannot die hours in on input that was malformed from the start: cache
// geometries, the size range, the method list, and the per-method
// selection preconditions for the largest problem size.
func (o Options) Validate() error {
	if err := o.L1.Validate(); err != nil {
		return fmt.Errorf("bench: L1: %w", err)
	}
	if o.L2 != (cache.Config{}) {
		if err := o.L2.Validate(); err != nil {
			return fmt.Errorf("bench: L2: %w", err)
		}
	}
	if o.K < 1 {
		return fmt.Errorf("bench: K must be >= 1, got %d", o.K)
	}
	if o.NMin < 3 || o.NMax < 3 {
		return fmt.Errorf("bench: problem sizes must be >= 3, got NMin=%d NMax=%d", o.NMin, o.NMax)
	}
	if o.NMin > o.NMax {
		return fmt.Errorf("bench: NMin %d exceeds NMax %d", o.NMin, o.NMax)
	}
	if o.NStep <= 0 {
		return fmt.Errorf("bench: NStep must be positive, got %d", o.NStep)
	}
	if len(o.Methods) == 0 {
		return fmt.Errorf("bench: no methods selected")
	}
	if o.Sweeps < 0 {
		return fmt.Errorf("bench: Sweeps must be >= 0 (0 means 1), got %d", o.Sweeps)
	}
	if o.TargetElems < 0 {
		return fmt.Errorf("bench: TargetElems must be >= 0, got %d", o.TargetElems)
	}
	if o.PointTimeout < 0 {
		return fmt.Errorf("bench: PointTimeout must be >= 0, got %v", o.PointTimeout)
	}
	if o.ParanoidEvery < 0 {
		return fmt.Errorf("bench: ParanoidEvery must be >= 0, got %d", o.ParanoidEvery)
	}
	if o.InjectSleep < 0 {
		return fmt.Errorf("bench: InjectSleep must be >= 0, got %v", o.InjectSleep)
	}
	for _, k := range stencil.Kernels() {
		for _, m := range o.Methods {
			if err := core.CheckSelect(m, o.CacheElems(), o.NMax, o.NMax, k.Spec()); err != nil {
				return fmt.Errorf("bench: method %s: %w", m, err)
			}
		}
	}
	return nil
}

// Fingerprint identifies the result-determining part of the options: two
// sweeps with equal fingerprints produce bit-identical simulation
// results for the same (kernel, method, N) point, so their journal
// entries are interchangeable. Execution knobs (Workers, ExecWorkers,
// ExecSchedule, DisableSteady, timeouts, paranoia) are deliberately
// excluded — the engine guarantees identical statistics across all of
// them.
func (o Options) Fingerprint() string {
	// The engine treats 0 sweeps as 1; normalize so the journals match.
	return fmt.Sprintf("l1=%+v|l2=%+v|k=%d|sweeps=%d|target=%d",
		o.L1, o.L2, o.K, o.measuredSweeps(), o.TargetElems)
}

// DefaultOptions returns the paper's experimental setup.
func DefaultOptions() Options {
	return Options{
		L1:      cache.UltraSparc2L1(),
		L2:      cache.UltraSparc2L2(),
		K:       30,
		NMin:    200,
		NMax:    400,
		NStep:   8,
		Methods: core.PaperMethods(),
		Coeffs:  stencil.DefaultCoeffs(),
		Sweeps:  1,
	}
}

// measuredSweeps is the number of measured sweeps a point simulates:
// Sweeps, with 0 meaning 1.
func (o Options) measuredSweeps() int {
	if o.Sweeps <= 0 {
		return 1
	}
	return o.Sweeps
}

// Sizes expands the sweep range into the list of N values, always
// including NMax. Degenerate ranges are normalized rather than silently
// mangled: NStep <= 0 behaves as 1, and NMin > NMax yields just NMax.
// Validate rejects both, so a validated sweep never hits the
// normalization; it exists so ad-hoc callers get a sane list.
func (o Options) Sizes() []int {
	step := o.NStep
	if step <= 0 {
		step = 1
	}
	var out []int
	for n := o.NMin; n <= o.NMax; n += step {
		out = append(out, n)
	}
	if len(out) == 0 || out[len(out)-1] != o.NMax {
		out = append(out, o.NMax)
	}
	return out
}

// CacheElems returns the cache size in elements the selection algorithms
// target.
func (o Options) CacheElems() int {
	if o.TargetElems > 0 {
		return o.TargetElems
	}
	return o.L1.Elems(8)
}

// Plan runs the selection method for one kernel and problem size.
func (o Options) Plan(k stencil.Kernel, m core.Method, n int) core.Plan {
	return core.Select(m, o.CacheElems(), n, n, k.Spec())
}

// steady wraps a hierarchy in the steady-state engine, or returns nil
// when the options disable it. Every simulation path in this package
// picks its engine through this helper so -steady=false reaches them
// all.
func (o Options) steady(h *cache.Hierarchy) *cache.Steady {
	if o.DisableSteady {
		return nil
	}
	return cache.NewSteady(h)
}

// warmMeasure runs one warm-up sweep and one measured sweep of sweep on
// h through the options' engine (cache.WarmMeasure), so -steady=false
// reaches every single-sweep experiment.
func (o Options) warmMeasure(h *cache.Hierarchy, sweep func(cache.RunSink)) {
	cache.WarmMeasure(h, o.steady(h), 1, sweep)
}
