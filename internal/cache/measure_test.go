package cache

import (
	"fmt"
	"testing"
)

// readUnit builds a unit stream of `repeat` sequential read passes over
// `lines` cache lines starting at base (stride 8, the element size).
func readUnit(base int64, lines, repeat int) []Run {
	runs := make([]Run, repeat)
	for r := range runs {
		runs[r] = Run{Base: base, Stride: 8, Count: int32(lines * 4)} // 4 accesses per 32B line
	}
	return runs
}

// refusedSweep emits one synthetic "sweep": two 2-plane phases over
// disjoint regions. The engine refuses 2-plane phases for plane-cycle
// detection, so their repeats are reproduced, if at all, only from
// phase records.
func refusedSweep(sink RunSink) {
	emitUnits(sink, 2, 32, 0, func(i int) []Run {
		return readUnit(int64(i)*32, 8, 4)
	})
	emitUnits(sink, 2, 32, 0, func(i int) []Run {
		return readUnit(4096+int64(i)*32, 8, 4)
	})
}

// scopedPhase emits one long frontier-marching phase: each of 48 units
// makes 512 accesses over 8 lines, then the next unit shifts forward
// one line. It spans 55 lines, too few to wrap the paper's L1, so
// detection refuses it.
func scopedPhase(sink RunSink) {
	emitUnits(sink, 48, 32, 0, func(i int) []Run {
		return readUnit(int64(i)*32, 8, 16)
	})
}

// echoCycle is a stream whose phases repeat across its own cycle
// boundaries, as a V-cycle's do: phase X opens both the second and the
// fourth phase of every cycle. Every phase is a single Δ=0 unit, which
// plane-cycle detection leaves alone, and rewrites every set
// (cachePhase), so the cycle's entry states match from the second
// cycle on.
func echoCycle(sink RunSink) {
	cachePhase(sink, 0, 1, 0)     // A
	cachePhase(sink, 1<<22, 1, 0) // X
	cachePhase(sink, 1<<23, 1, 0) // B
	cachePhase(sink, 1<<22, 1, 0) // X
}

// TestSteadySelfCheckSettles: a steady-wrapped hierarchy checked
// against a raw one at cycle ends of echoCycle, with a statistics reset
// at one of them. The engine commits every skip at its own phase's
// last marker, so it is settled there with no extra step: the reset
// must not land mid-phase and every check must compare final
// statistics and state.
func TestSteadySelfCheckSettles(t *testing.T) {
	raw, st, sd := newDeltaPair()
	cycle := func() {
		echoCycle(raw)
		echoCycle(sd)
	}
	cycle()
	cycle()
	assertDeltaEqual(t, "cycle 2", raw, st)
	raw.ResetStats()
	st.ResetStats()
	for c := 0; c < 2; c++ {
		cycle()
		assertDeltaEqual(t, fmt.Sprintf("cycle %d", c+3), raw, st)
	}
}

// TestSteadyWarmMeasure: the warm-measure driver must leave statistics
// and state equal to the raw protocol — warm-up, reset, measured sweeps
// — with the engine off and on. The streams cover phases measured from
// their records (deltaSweep), phases that repeat across sweep boundaries (echoCycle),
// phases plane-cycle detection refuses for too few planes
// (refusedSweep) and for too small a footprint (scopedPhase).
func TestSteadyWarmMeasure(t *testing.T) {
	streams := []struct {
		name  string
		sweep func(RunSink)
	}{
		{"phases", deltaSweep},
		{"echo", echoCycle},
		{"refused", refusedSweep},
		{"scoped", scopedPhase},
	}
	for _, tc := range streams {
		for sweeps := 1; sweeps <= 3; sweeps++ {
			raw := MustHierarchy(UltraSparc2L1(), UltraSparc2L2())
			tc.sweep(raw)
			raw.ResetStats()
			for i := 0; i < sweeps; i++ {
				tc.sweep(raw)
			}
			for _, mode := range []string{"raw", "steady"} {
				h := MustHierarchy(UltraSparc2L1(), UltraSparc2L2())
				var sd *Steady
				if mode != "raw" {
					sd = NewSteady(h)
				}
				WarmMeasure(h, sd, sweeps, tc.sweep)
				assertDeltaEqual(t, tc.name+"/"+mode, raw, h)
				if tc.name == "phases" && mode == "steady" {
					if d := sd.DeltaInfo(); !d.Traced || d.Sweeps != uint64(sweeps) {
						t.Errorf("phases: %d measured sweeps: %s", sweeps, d)
					}
				}
			}
		}
	}
}

// TestSteadyRefusedPhasesRepeat drives repeated identical sweeps of
// refused phases through a steady-wrapped one-level hierarchy — one warm-up
// sweep, a stats reset, then measured sweeps — and checks that
// statistics and final state stay exactly equal to a raw replay while
// no 2-plane phase confirms a cycle.
func TestSteadyRefusedPhasesRepeat(t *testing.T) {
	cfg := Config{SizeBytes: 1024, LineBytes: 32, Assoc: 1} // 32 sets
	const sweeps = 6

	h := MustHierarchy(cfg)
	st := NewSteady(h)
	refusedSweep(st)
	h.ResetStats()
	for i := 0; i < sweeps; i++ {
		refusedSweep(st)
	}

	rawH := MustHierarchy(cfg)
	refusedSweep(rawH)
	rawH.ResetStats()
	for i := 0; i < sweeps; i++ {
		refusedSweep(rawH)
	}
	c, raw := h.Level(0), rawH.Level(0)

	if c.Stats() != raw.Stats() {
		t.Errorf("stats diverged: steady %+v raw %+v", c.Stats(), raw.Stats())
	}
	if !c.StateEqual(raw) {
		t.Error("final cache state diverged from raw replay")
	}
	if d := st.Diag(); d.Confirmed != 0 {
		t.Errorf("2-plane phases must not confirm a cycle: %s", d)
	}
}

// TestSteadyBudgetGateRefuses checks the detection gates end to end on
// a 512-set L1, each against a raw replay. scopedPhase spans 57 lines,
// so it cannot wrap the level and the coverage rule refuses it, with no
// pins for its record. wideScopedPhase issues the same 512 accesses a
// unit but steps 16 lines a unit, so it wraps the level; its
// whole-state snapshot costs 512 slots, more than twice its units can
// amortize, so the budget gate refuses it.
func TestSteadyBudgetGateRefuses(t *testing.T) {
	cfg := Config{SizeBytes: 16 << 10, LineBytes: 32, Assoc: 1} // 512 sets
	wideScopedPhase := func(sink RunSink) {
		emitUnits(sink, 48, 512, 0, func(i int) []Run {
			return readUnit(int64(i)*512, 8, 16)
		})
	}
	for _, tc := range []struct {
		name  string
		sweep func(RunSink)
		cause func(SteadyDiag) uint64
	}{
		{"cover", scopedPhase, func(d SteadyDiag) uint64 { return d.RefusedCover }},
		{"budget", wideScopedPhase, func(d SteadyDiag) uint64 { return d.RefusedBudget }},
	} {
		rawH := MustHierarchy(cfg)
		WarmMeasure(rawH, nil, 1, tc.sweep)
		h := MustHierarchy(cfg)
		st := NewSteady(h)
		WarmMeasure(h, st, 1, tc.sweep)
		c, raw := h.Level(0), rawH.Level(0)
		if c.Stats() != raw.Stats() {
			t.Errorf("%s: stats diverged: steady %+v raw %+v", tc.name, c.Stats(), raw.Stats())
		}
		if !c.StateEqual(raw) {
			t.Errorf("%s: final state diverged from raw replay", tc.name)
		}
		d := st.Diag()
		if d.Confirmed != 0 || d.Phases != 1 || tc.cause(d) != 1 {
			t.Errorf("%s: the warm-up's phase must be refused by the %s gate: %s", tc.name, tc.name, d)
		}
		if pins := st.DeltaInfo().PinCompares; (tc.name == "cover") != (pins == 0) {
			t.Errorf("%s: %d pin compares: %s", tc.name, pins, st.DeltaInfo())
		}
	}
}
