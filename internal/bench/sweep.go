package bench

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/stencil"
)

// The resilient sweep engine. Every simulation-backed experiment in this
// package (miss sweeps, cycle-model sweeps, Table 3) funnels through
// simGrid, which layers four protections over the raw simulation:
//
//   - validation: Options are vetted once, up front, so a malformed
//     sweep fails before the first point rather than hours in;
//   - cancellation: opt.Ctx stops dispatch, drains in-flight points and
//     returns the partial results with the context's error;
//   - checkpointing: opt.Journal answers lookups for already-completed
//     points and records each new one as it finishes;
//   - isolation and degradation: a point that panics, times out, or
//     fails the steady-engine self-check is retried once with the
//     steady engine disabled, then marked failed — the sweep continues
//     either way.

// SimOutcomes simulates every (method, size) point of opt's sweep for
// one kernel and returns the raw outcomes, indexed
// [mi*len(opt.Sizes())+ni]. It is the exported face of the resilient
// sweep engine for callers — the advisor service foremost — that need
// the full per-point record (result, degraded/failed state, sharing)
// rather than one experiment's view of it. On cancellation the partial
// outcomes are returned together with the context's error.
func SimOutcomes(k stencil.Kernel, opt Options) ([]PointOutcome, error) {
	return simGrid(k, opt)
}

// Abandoned-goroutine accounting. Go cannot kill a goroutine, so when
// the -point-timeout watchdog expires the simulation goroutine is
// abandoned: the ladder moves on while the stuck attempt runs to
// completion (or forever) in the background, its results discarded.
// Every abandonment is counted here — total since process start and the
// live gauge of abandoned goroutines still running — so a sweep that
// leaked workers says so in its end-of-run summary and a long-running
// service can watch the gauge for a wedged backend. Writes into
// per-attempt targets keep abandoned workers from corrupting later
// points; the tally is how an operator learns they exist at all.
var (
	abandonedTotal atomic.Int64
	abandonedLive  atomic.Int64
)

// AbandonedWorkers reports the watchdog's abandonment counters: how many
// simulation goroutines have ever been abandoned to time out in the
// background, and how many of them are still running now.
func AbandonedWorkers() (total, live int64) {
	return abandonedTotal.Load(), abandonedLive.Load()
}

// simGrid simulates every (method, size) point of the sweep for one
// kernel, returning outcomes indexed [mi*len(sizes)+ni]. On
// cancellation it returns the partial outcomes (unreached points are
// zero-valued) together with the context's error.
//
// Unless opt.DisableWarmShare is set, points whose selection plans are
// identical (see planShareKey) are grouped: the group's first point
// simulates as the lead and the rest copy its result, reported to
// DiagHook as Shared. The copy is exact — a point's statistics are a
// deterministic function of (kernel, N, plan, sweeps), which is
// precisely what the group key holds fixed. A journaled point leads its
// plan group as well, so a follower whose lead completed before an
// interruption copies the journaled result on resume; the journal does
// not record which points copied, so a resumed sweep journals exactly
// what an uninterrupted one does. Followers of a lead that failed or
// degraded run their own ladder instead: a lead that only produced a
// fallback result may have hit a point-specific fault, and sharing is a
// shortcut, never a way to widen a failure's blast radius.
func simGrid(k stencil.Kernel, opt Options) ([]PointOutcome, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	sizes := opt.Sizes()
	out := make([]PointOutcome, len(opt.Methods)*len(sizes))

	type shareKey struct {
		n    int
		plan core.Plan
	}
	shareable := func(m core.Method, n int) (shareKey, bool) {
		if opt.DisableWarmShare {
			return shareKey{}, false
		}
		plan, ok := planShareKey(k, m, n, opt)
		return shareKey{n: n, plan: plan}, ok
	}

	type item struct {
		slot     int
		m        core.Method
		n        int
		paranoid bool
	}
	var todo []item
	journaled := make(map[shareKey]PointOutcome) // plan group → a journaled lead
	for mi, m := range opt.Methods {
		for ni, n := range sizes {
			slot := mi*len(sizes) + ni
			key := PointKey{Kernel: k.String(), Method: m.String(), N: n}
			if opt.Journal != nil {
				if prev, ok := opt.Journal.Lookup(key); ok {
					out[slot] = prev
					if sk, ok := shareable(m, n); ok && !prev.Degraded {
						if _, seen := journaled[sk]; !seen {
							journaled[sk] = prev
						}
					}
					continue
				}
			}
			paranoid := opt.ParanoidEvery > 0 && len(todo)%opt.ParanoidEvery == 0
			todo = append(todo, item{slot: slot, m: m, n: n, paranoid: paranoid})
		}
	}

	var recordMu sync.Mutex
	finished := 0
	record := func(outc PointOutcome) {
		// ForEachCtx serializes nothing between workers; the journal
		// locks internally, and the hook sees a consistent counter
		// because recordMu orders the increments.
		recordMu.Lock()
		if opt.Journal != nil {
			opt.Journal.Record(outc)
		}
		finished++
		n := finished
		hook := opt.pointHook
		recordMu.Unlock()
		if hook != nil {
			hook(n)
		}
	}
	share := func(f item, lead PointOutcome) {
		outc := PointOutcome{
			Key: PointKey{Kernel: k.String(), Method: f.m.String(), N: f.n},
			Res: lead.Res,
		}
		out[f.slot] = outc
		record(outc)
		if opt.DiagHook != nil {
			opt.DiagHook(PointDiag{Key: outc.Key, Shared: lead.Key.Method})
		}
	}

	// Group todo points by plan identity. groups[g][0] is the lead. A
	// paranoid point may lead a group (its result is cross-checked, so
	// copies inherit the scrutiny) but never follows one — it exists to
	// exercise the full simulation path. Grouping also orders plan
	// neighbors consecutively on one worker, so a lead's warm result is
	// still in cache when its followers copy it. Followers of a journaled
	// lead copy it right here.
	groups := make([][]int, 0, len(todo))
	idx := make(map[shareKey]int)
	for i, it := range todo {
		key, ok := shareable(it.m, it.n)
		if !ok {
			groups = append(groups, []int{i})
			continue
		}
		if lead, seen := journaled[key]; seen && !it.paranoid {
			share(it, lead)
			continue
		}
		if g, seen := idx[key]; seen && !it.paranoid {
			groups[g] = append(groups[g], i)
			continue
		}
		if _, seen := idx[key]; !seen {
			idx[key] = len(groups)
		}
		groups = append(groups, []int{i})
	}

	perrs, cerr := cache.ForEachCtx(opt.ctx(), len(groups), opt.Workers, func(gi int) {
		g := groups[gi]
		it := todo[g[0]]
		lead := runPoint(k, it.m, it.n, opt, it.paranoid)
		out[it.slot] = lead
		record(lead)
		for _, fi := range g[1:] {
			f := todo[fi]
			if lead.Failed || lead.Degraded {
				// A degraded or failed lead never propagates: followers
				// run their own full ladder.
				outc := runPoint(k, f.m, f.n, opt, f.paranoid)
				out[f.slot] = outc
				record(outc)
				continue
			}
			share(f, lead)
		}
	})
	// runPoint recovers everything itself, so escaped panics mean the
	// recovery machinery is broken; still, record them as failures
	// rather than losing them.
	for _, pe := range perrs {
		for _, fi := range groups[pe.Index] {
			it := todo[fi]
			if out[it.slot].Key != (PointKey{}) {
				continue // completed before the panic escaped
			}
			out[it.slot] = PointOutcome{
				Key:    PointKey{Kernel: k.String(), Method: it.m.String(), N: it.n},
				Failed: true,
				Err:    pe.Error(),
			}
		}
	}
	if cerr != nil {
		return out, cerr
	}
	if opt.Journal != nil {
		if werr := opt.Journal.WriteErr(); werr != nil {
			return out, werr
		}
	}
	return out, nil
}

// forEachCtx is the cancellation-aware fan-out for the small experiments
// (associativity, 2D, tile search) that manage their own result slices:
// cancellation stops dispatch and leaves unreached slots zero-valued,
// while a point's panic is re-raised in the caller — these experiments
// have no per-point retry ladder.
func forEachCtx(opt Options, n int, fn func(i int)) {
	perrs, _ := cache.ForEachCtx(opt.ctx(), n, opt.Workers, fn)
	if len(perrs) > 0 {
		panic(perrs[0])
	}
}

// PointDiag is the per-point diagnostic record DiagHook receives: how
// the point was resolved and, when the steady engine simulated it, the
// engine's phase-handling counters. Shared and degraded points carry a
// zero Steady (no steady sink ran); Replay counts the accesses the raw
// replay engine simulated for the point, by kind, and is zero only on
// shared and failed points.
type PointDiag struct {
	Key      PointKey
	Shared   string // lead method whose result was copied; "" when simulated
	Degraded bool
	Failed   bool
	Err      string
	// Abandoned counts simulation goroutines this point's ladder left
	// running after a watchdog timeout (0, 1, or 2: primary and retry).
	Abandoned int
	Steady    cache.SteadyDiag
	Delta     cache.DeltaDiag
	Replay    cache.ReplayCounts
}

// engineDiag is the per-attempt target SimulateStats fills with the
// engines' counters (Options.diag).
type engineDiag struct {
	steady cache.SteadyDiag
	delta  cache.DeltaDiag
	replay cache.ReplayCounts
}

// String renders the record for -v output.
func (d PointDiag) String() string {
	switch {
	case d.Shared != "":
		return fmt.Sprintf("%s: shared from %s", d.Key, d.Shared)
	case d.Failed:
		return fmt.Sprintf("%s: FAILED: %s", d.Key, d.Err) + d.abandonedSuffix()
	case d.Degraded:
		return fmt.Sprintf("%s: degraded (steady disabled): %s", d.Key, d.Err) + d.abandonedSuffix()
	default:
		s := fmt.Sprintf("%s: %s", d.Key, d.Steady)
		if d.Delta.Traced || d.Delta.Sweeps > 0 {
			s += " | delta " + d.Delta.String()
		}
		r := d.Replay
		return s + fmt.Sprintf(" | replay single=%d ladder=%d interleaved=%d walk=%d",
			r.Single, r.Ladder, r.Interleaved, r.Walk)
	}
}

// DeltaReused reports whether the point's measured sweeps were served by
// delta replay rather than full walker simulation.
func (d PointDiag) DeltaReused() bool { return d.Delta.Sweeps > 0 }

func (d PointDiag) abandonedSuffix() string {
	if d.Abandoned == 0 {
		return ""
	}
	return fmt.Sprintf(" [%d goroutine(s) abandoned]", d.Abandoned)
}

// planShareKey computes a point's plan identity for warm sharing. The
// cost-model value is zeroed: two methods that pick the same tile and
// padding by different cost reasoning still generate identical traces.
// A selection panic (the ladder's business, not grouping's) makes the
// point unshareable instead of propagating.
func planShareKey(k stencil.Kernel, m core.Method, n int, opt Options) (p core.Plan, ok bool) {
	defer func() {
		if recover() != nil {
			p, ok = core.Plan{}, false
		}
	}()
	p = opt.Plan(k, m, n)
	p.Cost = 0
	return p, true
}

// runPoint simulates one point through the degradation ladder: a guarded
// attempt with the configured engine; on failure (panic, watchdog
// timeout, self-check mismatch) one retry with the steady engine
// disabled; then failure. A point that only succeeds on the fallback is
// marked Degraded and keeps the primary error in Err.
func runPoint(k stencil.Kernel, m core.Method, n int, opt Options, paranoid bool) PointOutcome {
	key := PointKey{Kernel: k.String(), Method: m.String(), N: n}
	outc, ed, abandoned := runPointLadder(k, m, n, opt, paranoid, key)
	if opt.DiagHook != nil {
		d := PointDiag{
			Key:       outc.Key,
			Degraded:  outc.Degraded,
			Failed:    outc.Failed,
			Err:       outc.Err,
			Abandoned: abandoned,
		}
		// A failed attempt may have timed out, and its abandoned
		// goroutine could write the counters later; don't read them.
		if ed != nil && !outc.Failed {
			d.Steady, d.Delta, d.Replay = ed.steady, ed.delta, ed.replay
		}
		opt.DiagHook(d)
	}
	return outc
}

// runPointLadder runs the ladder and returns the outcome together with
// the engine counters of the attempt that produced it. Each attempt
// writes a fresh counter target: a timed-out attempt's abandoned
// goroutine may still write its own target later, which must not race
// with reading the attempt that actually finished.
func runPointLadder(k stencil.Kernel, m core.Method, n int, opt Options, paranoid bool, key PointKey) (PointOutcome, *engineDiag, int) {
	abandoned := 0
	if opt.DiagHook != nil {
		opt.diag = new(engineDiag)
	}
	res, err, left := simGuarded(k, m, n, opt, paranoid)
	if left {
		abandoned++
	}
	if err == nil {
		return PointOutcome{Key: key, Res: res}, opt.diag, abandoned
	}
	if !opt.DisableSteady {
		retry := opt
		retry.DisableSteady = true
		if opt.DiagHook != nil {
			retry.diag = new(engineDiag)
		}
		res2, err2, left2 := simGuarded(k, m, n, retry, false)
		if left2 {
			abandoned++
		}
		if err2 == nil {
			return PointOutcome{Key: key, Res: res2, Degraded: true, Err: err.Error()}, retry.diag, abandoned
		}
		return PointOutcome{Key: key, Failed: true,
			Err: fmt.Sprintf("%v; retry without steady engine: %v", err, err2)}, retry.diag, abandoned
	}
	return PointOutcome{Key: key, Failed: true, Err: err.Error()}, opt.diag, abandoned
}

// simGuarded runs one simulation attempt under the watchdog. Go cannot
// kill a goroutine, so on timeout the simulation goroutine is abandoned
// to finish (and be discarded) in the background — the sweep moves on,
// which is the whole point of the watchdog. The third result reports
// that abandonment; the package counters track it too, with a watcher
// goroutine decrementing the live gauge when the stray worker finally
// returns.
func simGuarded(k stencil.Kernel, m core.Method, n int, opt Options, paranoid bool) (SimResult, error, bool) {
	if opt.PointTimeout <= 0 {
		res, err := simAttempt(k, m, n, opt, paranoid)
		return res, err, false
	}
	type resErr struct {
		res SimResult
		err error
	}
	ch := make(chan resErr, 1)
	go func() {
		var re resErr
		re.res, re.err = simAttempt(k, m, n, opt, paranoid)
		ch <- re
	}()
	timer := time.NewTimer(opt.PointTimeout)
	defer timer.Stop()
	select {
	case re := <-ch:
		return re.res, re.err, false
	case <-timer.C:
		abandonedTotal.Add(1)
		abandonedLive.Add(1)
		go func() {
			<-ch // the abandoned attempt finished; its result is discarded
			abandonedLive.Add(-1)
		}()
		return SimResult{}, fmt.Errorf("bench: point %s/%s N=%d exceeded -point-timeout %v",
			k, m, n, opt.PointTimeout), true
	}
}

// simAttempt runs one simulation attempt with panic isolation: any
// panic in the kernel walkers, the selection code, or the simulator
// comes back as an error carrying the stack, feeding the ladder instead
// of killing the process.
func simAttempt(k stencil.Kernel, m core.Method, n int, opt Options, paranoid bool) (res SimResult, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("bench: point %s/%s N=%d panicked: %v\n%s", k, m, n, rec, debug.Stack())
		}
	}()
	if opt.InjectPanicN > 0 && n == opt.InjectPanicN {
		panic(fmt.Sprintf("injected fault at N=%d (-inject-panic)", n))
	}
	if opt.InjectSleep > 0 {
		// Deliberately ignores cancellation: the injected sleep models a
		// genuinely wedged simulation, which is what the watchdog and the
		// drain paths exist to survive.
		time.Sleep(opt.InjectSleep)
	}
	if opt.faultInject != nil {
		opt.faultInject(opt, m, n)
	}
	if paranoid && !opt.DisableSteady {
		return simParanoid(k, m, n, opt)
	}
	return SimulateStats(k, m, n, opt), nil
}

// simParanoid is SimulateStats with the steady engine under cross-
// examination: the same warm-measure protocol runs once through the
// engine, exactly as production runs it, and once raw on a shadow
// hierarchy, and per-level statistics plus final cache state must match
// exactly. It costs a full extra simulation, which is why ParanoidEvery
// samples it rather than applying it everywhere.
func simParanoid(k stencil.Kernel, m core.Method, n int, opt Options) (SimResult, error) {
	w := stencil.NewTraceWorkload(k, n, opt.K, opt.Plan(k, m, n))
	h := cacheHierarchy(opt)
	res := opt.simulate(w, n, h)
	shadow := cacheHierarchy(opt)
	cache.WarmMeasure(shadow, nil, opt.measuredSweeps(), w.ReplayTrace)
	for l := 0; l < 2; l++ {
		got, want := h.Level(l), shadow.Level(l)
		if got.Stats() != want.Stats() {
			return SimResult{}, fmt.Errorf("bench: point %s/%s N=%d: steady self-check: level %d stats diverge: steady %+v, full replay %+v",
				k, m, n, l+1, got.Stats(), want.Stats())
		}
		if !got.StateEqual(want) {
			return SimResult{}, fmt.Errorf("bench: point %s/%s N=%d: steady self-check: level %d cache state diverges from full replay",
				k, m, n, l+1)
		}
	}
	return res, nil
}
