package cache

import (
	"math/rand"
	"testing"
)

// Differential tests for the delta layer: a sweep replayed from the
// traced phase records must be indistinguishable — statistics and final
// cache state — from replaying the walker, on every replay and fallback
// path.

// deltaPhase replays one marked phase: planes units of two lockstep
// runs, consecutive units translating by delta bytes, tagged level.
func deltaPhase(sink RunSink, base int64, planes int, delta int64, level int) {
	s := WithLevel(sink, level)
	for k := 0; k < planes; k++ {
		o := base + int64(k)*delta
		runs := []Run{
			{Base: o, Stride: 8, Count: 96},
			{Base: o + 1<<21, Stride: 8, Count: 96, Store: true, Cont: true},
		}
		s.ReplayRuns(runs)
		MarkPlane(s, PlaneMark{Delta: delta, Index: k, Planes: planes})
	}
}

// deltaSweep is the synthetic multi-phase sweep the delta tests trace:
// a long translating phase, two same-shape phases distinguished only by
// level, a short phase, and a single-unit fill-like phase — the shapes
// a V-cycle's trace produces.
func deltaSweep(sink RunSink) {
	deltaPhase(sink, 0, 12, 4096, 0)
	deltaPhase(sink, 1<<22, 8, 2048, 1)
	deltaPhase(sink, 1<<22+1<<18, 8, 2048, 2)
	deltaPhase(sink, 1<<23, 4, 1024, 0)
	deltaPhase(sink, 1<<24, 1, 0, 0)
}

// newDeltaPair returns a raw and a steady-wrapped hierarchy on the
// paper's geometry.
func newDeltaPair() (*Hierarchy, *Hierarchy, *Steady) {
	raw := MustHierarchy(UltraSparc2L1(), UltraSparc2L2())
	st := MustHierarchy(UltraSparc2L1(), UltraSparc2L2())
	return raw, st, NewSteady(st)
}

func assertDeltaEqual(t *testing.T, what string, raw, st *Hierarchy) {
	t.Helper()
	for l := 0; l < 2; l++ {
		if raw.Level(l).Stats() != st.Level(l).Stats() {
			t.Errorf("%s: L%d stats diverge:\n  delta %+v\n  raw   %+v",
				what, l+1, st.Level(l).Stats(), raw.Level(l).Stats())
		}
		if !raw.Level(l).StateEqual(st.Level(l)) {
			t.Errorf("%s: L%d final cache state diverges", what, l+1)
		}
	}
}

// TestDeltaReplayDifferential: warm sweep traced, measured sweeps
// replayed from the records; everything must match a raw replay.
func TestDeltaReplayDifferential(t *testing.T) {
	raw, st, sd := newDeltaPair()
	sd.DeltaTraceBegin()
	deltaSweep(sd)
	if !sd.DeltaTraceEnd() {
		t.Fatalf("warm sweep did not produce a complete trace: %s", sd.DeltaInfo())
	}
	deltaSweep(raw)
	raw.ResetStats()
	st.ResetStats()
	for s := 0; s < 4; s++ {
		deltaSweep(raw)
		if !sd.ReplayDeltaSweep() {
			t.Fatalf("sweep %d: delta replay refused: %s", s, sd.DeltaInfo())
		}
	}
	assertDeltaEqual(t, "traced replay", raw, st)
	d := sd.DeltaInfo()
	if d.Sweeps != 4 {
		t.Errorf("delta replay completed %d sweeps, want 4: %s", d.Sweeps, d)
	}
	if d.Instant == 0 {
		t.Errorf("fixed point never reached the instant-repeat cache: %s", d)
	}
}

// TestDeltaStaleRefsFallBack: a trace whose anchor table was recycled
// (by a flood of distinct unit shapes) must not replay. Recycled after
// tracing, the replay refuses without mutating state; recycled while
// tracing, the trace fails. Either way full simulation stays exact.
func TestDeltaStaleRefsFallBack(t *testing.T) {
	// flood replays one phase whose units are pairwise distinct shapes
	// (run counts differ), so each becomes an anchor of its own; the
	// first unit is large enough to pass the budget gate.
	flood := func(sink RunSink, units int, from int32) {
		for k := 0; k < units; k++ {
			count := from + int32(k)
			if k == 0 {
				count = 1 << 18
			}
			sink.ReplayRuns([]Run{{Base: 1<<26 + int64(k)*32, Stride: 8, Count: count}})
			MarkPlane(sink, PlaneMark{Delta: 32, Index: k, Planes: units})
		}
	}
	// Two floods that fill the table past its recycle mark; the second
	// one's first marker recycles it.
	full := func(sink RunSink) {
		flood(sink, maxSteadyAnchors+8, 1)
		flood(sink, maxSteadyAnchors+8, 1)
	}
	raw, st, sd := newDeltaPair()
	sd.DeltaTraceBegin()
	deltaSweep(sd)
	if !sd.DeltaTraceEnd() {
		t.Fatal("trace incomplete")
	}
	deltaSweep(raw)
	full(sd)
	full(raw)
	raw.ResetStats()
	st.ResetStats()
	for s := 0; s < 2; s++ {
		deltaSweep(raw)
		if sd.ReplayDeltaSweep() {
			t.Fatal("stale refs accepted")
		}
		deltaSweep(sd)
	}
	assertDeltaEqual(t, "stale-ref fallback", raw, st)
	if d := sd.DeltaInfo(); d.Fallbacks == 0 {
		t.Errorf("no fallback counted: %s", d)
	}

	// Two archived floods leave the table past its recycle mark, so the
	// traced sweep's next phase recycles it.
	sweep := func(sink RunSink) {
		flood(sink, maxSteadyAnchors/2-2, 1)
		flood(sink, maxSteadyAnchors/2-2, maxSteadyAnchors)
		deltaSweep(sink)
	}
	raw, st, sd = newDeltaPair()
	sweep(raw)
	raw.ResetStats()
	sweep(raw)
	WarmMeasure(st, sd, 1, sweep)
	assertDeltaEqual(t, "recycled while tracing", raw, st)
	if d := sd.DeltaInfo(); d.Traced {
		t.Errorf("a trace whose anchor table was recycled mid-sweep was kept: %s", d)
	}
}

// TestDeltaRandomizedStreams: randomized phase geometries (planes,
// deltas, run shapes, levels) traced and replayed against raw, from a
// fixed RNG seed for reproducibility.
func TestDeltaRandomizedStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		nPhases := 1 + rng.Intn(5)
		type ph struct {
			base   int64
			planes int
			delta  int64
			level  int
			count  int32
			nRuns  int
		}
		phases := make([]ph, nPhases)
		for i := range phases {
			phases[i] = ph{
				base:   int64(i)*(1<<22) + int64(rng.Intn(4096))*8,
				planes: 1 + rng.Intn(14),
				delta:  int64(1+rng.Intn(512)) * 8,
				level:  rng.Intn(3),
				count:  int32(1 + rng.Intn(200)),
				nRuns:  1 + rng.Intn(4),
			}
		}
		sweep := func(sink RunSink) {
			for _, p := range phases {
				s := WithLevel(sink, p.level)
				for k := 0; k < p.planes; k++ {
					o := p.base + int64(k)*p.delta
					var runs []Run
					for r := 0; r < p.nRuns; r++ {
						runs = append(runs, Run{
							Base:   o + int64(r)<<19,
							Stride: 8,
							Count:  p.count,
							Store:  r == p.nRuns-1,
							Cont:   r > 0,
						})
					}
					s.ReplayRuns(runs)
					MarkPlane(s, PlaneMark{Delta: p.delta, Index: k, Planes: p.planes})
				}
			}
		}
		raw, st, sd := newDeltaPair()
		sd.DeltaTraceBegin()
		sweep(sd)
		traced := sd.DeltaTraceEnd()
		sweep(raw)
		raw.ResetStats()
		st.ResetStats()
		for s := 0; s < 3; s++ {
			sweep(raw)
			if !traced || !sd.ReplayDeltaSweep() {
				sweep(sd)
			}
		}
		assertDeltaEqual(t, "randomized trial", raw, st)
		if t.Failed() {
			t.Fatalf("trial %d phases: %+v (traced=%v, %s)", trial, phases, traced, sd.DeltaInfo())
		}
	}
}

// cachePhase replays one marked phase whose every unit loads and then
// stores a region the size of the UltraSparc2 L2, so each unit rewrites
// every set of both levels: the state after a unit depends on that
// unit's stream alone, never on the state the phase was entered with.
func cachePhase(sink RunSink, base int64, planes int, delta int64) {
	const region = 2 << 20
	for k := 0; k < planes; k++ {
		o := base + int64(k)*delta
		sink.ReplayRuns([]Run{
			{Base: o, Stride: 8, Count: region / 8},
			{Base: o, Stride: 8, Count: region / 8, Store: true},
		})
		MarkPlane(sink, PlaneMark{Delta: delta, Index: k, Planes: planes})
	}
}

// TestDeltaEchoedPhaseChain: a traced sweep of phase A, then B, then A
// again. The second A enters with B's dirty lines resident, so its
// first unit writes them back where the first A's (cold) first unit
// wrote nothing back; from unit 1 on the two are identical. A delta
// replay chaining into the second A must commit the second A's own
// record, not the first A's recorded deltas for its first unit.
func TestDeltaEchoedPhaseChain(t *testing.T) {
	sweep := func(sink RunSink) {
		cachePhase(sink, 0, 4, 4096)
		cachePhase(sink, 1<<24, 1, 0)
		cachePhase(sink, 0, 4, 4096)
	}
	raw, st, sd := newDeltaPair()
	sd.DeltaTraceBegin()
	sweep(sd)
	if !sd.DeltaTraceEnd() {
		t.Fatalf("warm sweep did not produce a complete trace: %s", sd.DeltaInfo())
	}
	sweep(raw)
	raw.ResetStats()
	st.ResetStats()
	for s := 0; s < 2; s++ {
		sweep(raw)
		if !sd.ReplayDeltaSweep() {
			t.Fatalf("sweep %d: delta replay refused: %s", s, sd.DeltaInfo())
		}
	}
	assertDeltaEqual(t, "echoed phase chained", raw, st)
	if d := sd.DeltaInfo(); d.PhasesChained == 0 {
		t.Errorf("no phase chained: %s", d)
	}
}
