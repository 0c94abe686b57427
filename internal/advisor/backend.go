package advisor

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"tiling3d/internal/analytic"
	"tiling3d/internal/bench"
	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/deps"
	"tiling3d/internal/ir"
	"tiling3d/internal/lang"
	"tiling3d/internal/stencil"
	"tiling3d/internal/transform"
)

// badRequestError marks a failure caused by the request itself; the
// server maps it to HTTP 400.
type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }
func (e badRequestError) Unwrap() error { return e.err }

// Backend turns one validated plan request into a response: the static
// pipeline (parse, dependence analysis, selection, transformation,
// certification) always runs inline — it is pure and fast — while the
// miss prediction comes from the simulation engine when the request
// wants it and from the analytic model otherwise. Transient simulation
// failures are retried with exponential backoff and deterministic
// jitter before the caller's circuit breaker hears about them.
type Backend struct {
	// PointTimeout bounds one simulation attempt (the bench watchdog).
	PointTimeout time.Duration
	// Retries is how many times a failed simulation is retried.
	Retries int
	// RetryBase is the first backoff delay; attempt i waits
	// RetryBase<<i plus jitter in [0, RetryBase<<i).
	RetryBase time.Duration
	// Faults is the fault-injection script ("sim" counter); nil injects
	// nothing.
	Faults *FaultScript

	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewBackend builds a backend with the given watchdog and retry policy.
// The jitter source is seeded deterministically: two servers given the
// same script and request sequence behave identically, which the chaos
// tests rely on.
func NewBackend(pointTimeout time.Duration, retries int, retryBase time.Duration) *Backend {
	return &Backend{
		PointTimeout: pointTimeout,
		Retries:      retries,
		RetryBase:    retryBase,
		rng:          rand.New(rand.NewSource(1)),
	}
}

// Static computes everything about the request that does not need the
// simulator: the selection plan, the dependence table, and the
// certification verdict. Failures here are request problems (HTTP 400).
func (b *Backend) Static(req PlanRequest) (*PlanResponse, error) {
	req = req.normalize()
	method, err := core.ParseMethod(req.Method)
	if err != nil {
		return nil, badRequestError{err}
	}
	nests, err := requestNests(req)
	if err != nil {
		return nil, badRequestError{err}
	}
	resp := &PlanResponse{
		Key:    req.Key(),
		Kernel: req.Kernel,
		Method: method.String(),
		N:      req.N,
	}
	cacheElems := req.L1.config().Elems(8)
	for i, nest := range nests {
		tab, err := deps.Dependences(nest)
		if err != nil {
			return nil, badRequestError{fmt.Errorf("dependence analysis: %v", err)}
		}
		prefix := ""
		if len(nests) > 1 {
			prefix = fmt.Sprintf("nest %d: ", i+1)
		}
		for _, d := range tab.Deps {
			resp.Dependences = append(resp.Dependences, prefix+d.String())
		}
		for _, w := range tab.IssueStrings() {
			resp.Warnings = append(resp.Warnings, prefix+w)
		}
		if i == 0 {
			plan, verdict, certified := planVerdict(nest, tab, method, cacheElems, req.N)
			resp.Plan, resp.Verdict, resp.Certified = planInfo(plan), verdict, certified
		}
	}
	if resp.Dependences == nil {
		resp.Dependences = []string{}
	}
	return resp, nil
}

// planVerdict runs selection, transformation and certification for one
// nest, mirroring stencilvet's pipeline: the verdict explains the
// outcome, certified reports a proven-legal tiling.
func planVerdict(nest *ir.Nest, tab *deps.Table, method core.Method, cacheElems, n int) (core.Plan, string, bool) {
	st, err := ir.Analyze(nest)
	if err != nil {
		return core.Plan{}, fmt.Sprintf("tiling not attempted: %v", err), false
	}
	plan, err := core.SelectChecked(method, cacheElems, n, n, st)
	if err != nil {
		return core.Plan{}, fmt.Sprintf("tiling not attempted: %v", err), false
	}
	if tab.HasUnknown() {
		for _, d := range tab.Deps {
			if d.Unknown {
				return plan, fmt.Sprintf("tiling blocked: %s", d), false
			}
		}
	}
	if carried := tab.Carried(); len(carried) > 0 {
		return plan, fmt.Sprintf("tiling refused: nest carries %s", carried[0]), false
	}
	after, err := transform.ApplyPlan(nest, plan)
	if err != nil {
		return plan, fmt.Sprintf("tiling illegal: %v", err), false
	}
	if err := deps.Certify(nest, after); err != nil {
		return plan, fmt.Sprintf("certification failed: %v", err), false
	}
	if !plan.Tiled {
		return plan, fmt.Sprintf("legal, untiled by %s", method), true
	}
	return plan, fmt.Sprintf("tiling legal (certified): %s tile (TI=%d, TJ=%d), array dims %dx%d",
		method, plan.Tile.TI, plan.Tile.TJ, plan.DI, plan.DJ), true
}

// requestNests resolves the request's program: a built-in kernel's nest
// or the parsed listing's nests.
func requestNests(req PlanRequest) ([]*ir.Nest, error) {
	if req.Kernel != "" {
		k, err := stencil.ParseKernel(req.Kernel)
		if err != nil {
			return nil, err
		}
		switch k {
		case stencil.Jacobi:
			return []*ir.Nest{ir.JacobiNest(req.N, req.K)}, nil
		case stencil.RedBlack:
			return []*ir.Nest{ir.RedBlackNest(req.N, req.K)}, nil
		case stencil.Resid:
			return []*ir.Nest{ir.ResidNest(req.N, req.K)}, nil
		default:
			return nil, fmt.Errorf("kernel %s has no nest form", k)
		}
	}
	params := map[string]int{"N": req.N, "M": req.N, "TSTEPS": 1}
	for name, v := range req.Params {
		params[name] = v
	}
	prog, err := lang.ParseProgramNamed("request.st", req.Program, params)
	if err != nil {
		return nil, err
	}
	if len(prog.Nests) == 0 {
		return nil, fmt.Errorf("program contains no loop nests")
	}
	return prog.Nests, nil
}

// Simulate runs the simulation backend for the request and fills in the
// exact miss prediction. The context's deadline propagates into the
// sweep path as cancellation and bounds each attempt via the bench
// watchdog; a failed or cancelled attempt is retried with exponential
// backoff and jitter while the deadline allows. The returned error is
// what the circuit breaker scores.
func (b *Backend) Simulate(ctx context.Context, req PlanRequest) (*MissPrediction, error) {
	req = req.normalize()
	kernel, err := stencil.ParseKernel(req.Kernel)
	if err != nil {
		return nil, badRequestError{err}
	}
	method, err := core.ParseMethod(req.Method)
	if err != nil {
		return nil, badRequestError{err}
	}
	opt := bench.Options{
		L1:      req.L1.config(),
		L2:      simL2(req.L2),
		K:       req.K,
		NMin:    req.N,
		NMax:    req.N,
		NStep:   1,
		Methods: []core.Method{method},
		Coeffs:  stencil.DefaultCoeffs(),
		Sweeps:  req.Sweeps,
		Workers: 1,
		Ctx:     ctx,
	}
	opt.PointTimeout = b.PointTimeout
	if dl, ok := ctx.Deadline(); ok {
		if left := time.Until(dl); left > 0 && (opt.PointTimeout <= 0 || left < opt.PointTimeout) {
			opt.PointTimeout = left
		}
	}
	if err := opt.Validate(); err != nil {
		// The sweep engine's preconditions are stricter than the wire
		// validation (per-method selection bounds across kernels); a
		// request that fails them cannot simulate but can still be
		// served analytically — and it must not poison the breaker,
		// because nothing is wrong with the backend.
		return nil, badRequestError{err}
	}

	var lastErr error
	for attempt := 0; ; attempt++ {
		res, err := b.simOnce(kernel, method, req.N, opt)
		if err == nil {
			return simPrediction(req, res), nil
		}
		lastErr = err
		if attempt >= b.Retries || ctx.Err() != nil {
			break
		}
		delay := b.backoff(attempt)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, fmt.Errorf("advisor: simulation cancelled during retry backoff: %w", ctx.Err())
		}
	}
	return nil, lastErr
}

// simOnce is one scripted-fault-aware simulation attempt.
func (b *Backend) simOnce(kernel stencil.Kernel, method core.Method, n int, opt bench.Options) (bench.SimResult, error) {
	if rule, ok := b.Faults.Fire("sim"); ok {
		switch rule.Mode {
		case "panic":
			panic(fmt.Sprintf("injected backend panic (fault script, sim call %d)", b.Faults.Calls("sim")))
		case "error":
			return bench.SimResult{}, fmt.Errorf("advisor: injected backend error (fault script, sim call %d)", b.Faults.Calls("sim"))
		case "sleep":
			opt.InjectSleep = rule.Sleep
		}
	}
	outs, err := bench.SimOutcomes(kernel, opt)
	if err != nil {
		return bench.SimResult{}, fmt.Errorf("advisor: simulation: %w", err)
	}
	if len(outs) != 1 {
		return bench.SimResult{}, fmt.Errorf("advisor: simulation returned %d outcomes, want 1", len(outs))
	}
	out := outs[0]
	switch {
	case out.Failed:
		return bench.SimResult{}, fmt.Errorf("advisor: simulation failed: %s", out.Err)
	case out.Key == (bench.PointKey{}):
		return bench.SimResult{}, fmt.Errorf("advisor: simulation cancelled before the point ran")
	case out.Degraded:
		// The ladder already fell back to full simulation; the numbers
		// are exact, only slower to produce. Serve them.
		return out.Res, nil
	default:
		return out.Res, nil
	}
}

// backoff returns the exponential delay for a retry attempt with
// deterministic jitter in [0, base<<attempt).
func (b *Backend) backoff(attempt int) time.Duration {
	base := b.RetryBase
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if attempt > 10 {
		attempt = 10
	}
	d := base << attempt
	b.rngMu.Lock()
	j := time.Duration(b.rng.Int63n(int64(d)))
	b.rngMu.Unlock()
	return d + j
}

// simPrediction converts an exact simulation result to the wire form.
func simPrediction(req PlanRequest, res bench.SimResult) *MissPrediction {
	p := &MissPrediction{
		Source: "simulated",
		L1: &LevelMiss{
			Accesses: res.L1.Accesses(),
			Misses:   res.L1.Misses(),
			Rate:     res.L1.MissRate(),
		},
		Flops: res.Flops,
	}
	if req.L2 != nil {
		mp := res.MissPoint()
		p.L2 = &LevelMiss{
			Accesses: res.L2.Accesses(),
			Misses:   res.L2.Misses(),
			Rate:     mp.L2,
		}
	}
	return p
}

// Analytic predicts the planned loop's miss rates from the closed-form
// capacity model — the degraded path when the breaker is open or the
// simulation failed, and the only path for listings. First-order and
// conflict-blind by design; the response's Source says so. The
// degrademark analyzer holds every caller that stores this result into
// a response to also set Degraded = true (or carry a justified
// //lint:allow where analytic is the requested source, not a fallback).
//
//lint:fallback mark=Degraded
func Analytic(req PlanRequest, plan PlanInfo) *MissPrediction {
	req = req.normalize()
	p := &MissPrediction{Source: "analytic"}
	p.L1 = &LevelMiss{Rate: analyticRate(analytic.FromConfig(req.L1.config(), 8), plan, req.N)}
	if req.L2 != nil {
		p.L2 = &LevelMiss{Rate: analyticRate(analytic.FromConfig(req.L2.config(), 8), plan, req.N)}
	}
	return p
}

func analyticRate(m analytic.Machine, plan PlanInfo, n int) float64 {
	if plan.Tiled && plan.TI > 0 && plan.TJ > 0 {
		return m.JacobiTiledMissRate(plan.TI, plan.TJ)
	}
	return m.JacobiOrigMissRate(n)
}

// sweepOptions builds the bench options for one sweep job.
func sweepOptions(req SweepRequest, ctx context.Context, workers int, journal *bench.Journal) (bench.Options, stencil.Kernel, error) {
	req = req.normalize()
	kernel, err := stencil.ParseKernel(req.Kernel)
	if err != nil {
		return bench.Options{}, 0, badRequestError{err}
	}
	methods := make([]core.Method, 0, len(req.Methods))
	for _, s := range req.Methods {
		m, err := core.ParseMethod(s)
		if err != nil {
			return bench.Options{}, 0, badRequestError{err}
		}
		methods = append(methods, m)
	}
	opt := bench.Options{
		L1:      req.L1.config(),
		L2:      simL2(req.L2),
		K:       req.K,
		NMin:    req.NMin,
		NMax:    req.NMax,
		NStep:   req.NStep,
		Methods: methods,
		Coeffs:  stencil.DefaultCoeffs(),
		Sweeps:  req.Sweeps,
		Workers: workers,
		Ctx:     ctx,
		Journal: journal,
	}
	return opt, kernel, nil
}

// simL2 resolves the simulated second level: the requested geometry, or
// the paper's 2M L2 when the client only described an L1. The trace
// engine always simulates two levels; an L2 the request didn't ask
// about cannot perturb the L1 statistics, and its numbers are simply
// not reported.
func simL2(g *Geometry) cache.Config {
	if g != nil {
		return g.config()
	}
	return cache.UltraSparc2L2()
}

// SweepBenchOptions exposes the job option mapping for ID/fingerprint
// stability tests.
func SweepBenchOptions(req SweepRequest) (bench.Options, error) {
	opt, _, err := sweepOptions(req, context.Background(), 1, nil)
	return opt, err
}
