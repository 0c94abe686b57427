package cache

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Differential tests for the delta layer: measured sweeps served from
// the warm-up's phase records must be indistinguishable — statistics
// and final cache state — from replaying the walker, on every commit,
// chain and fallback path, at every sweep end.

// emitUnits replays one marked phase: planes units of unitRuns(k), each
// followed by its marker, tagged level. Like the trace emitter, it asks
// a PhaseSkipper after each marker but the closing one and, when told,
// jumps to the closing marker.
func emitUnits(sink RunSink, planes int, delta int64, level int, unitRuns func(k int) []Run) {
	s := WithLevel(sink, level)
	ps := s.(PhaseSkipper)
	for k := 0; k < planes; k++ {
		s.ReplayRuns(unitRuns(k))
		MarkPlane(s, PlaneMark{Delta: delta, Index: k, Planes: planes})
		if k < planes-1 && ps.SkipRest() {
			MarkPlane(s, PlaneMark{Delta: delta, Index: planes - 1, Planes: planes})
			return
		}
	}
}

// plainSink forwards runs and markers but not SkipRest, so the source
// behind it emits every unit.
type plainSink struct{ RunSink }

func (p plainSink) PlaneMark(m PlaneMark) { MarkPlane(p.RunSink, m) }

// hideSkip feeds sweep through a plainSink.
func hideSkip(sweep func(RunSink)) func(RunSink) {
	return func(sink RunSink) { sweep(plainSink{sink}) }
}

// deltaPhase replays one marked phase: planes units of two lockstep
// runs, consecutive units translating by delta bytes, tagged level.
func deltaPhase(sink RunSink, base int64, planes int, delta int64, level int) {
	emitUnits(sink, planes, delta, level, func(k int) []Run {
		o := base + int64(k)*delta
		return []Run{
			{Base: o, Stride: 8, Count: 96},
			{Base: o + 1<<21, Stride: 8, Count: 96, Store: true, Cont: true},
		}
	})
}

// deltaSweep is the synthetic multi-phase sweep the delta tests
// measure: a long translating phase, two same-shape phases
// distinguished only by level, a short phase, and a single-unit
// fill-like phase — the shapes a V-cycle produces.
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

// checkWarmMeasure runs the warm-measure protocol of sweep with 0 to
// sweeps measured sweeps, through a fresh steady engine and raw, and
// compares statistics and state at the end of each run, so every sweep
// end is checked. It returns the engine of the longest run.
func checkWarmMeasure(t *testing.T, what string, sweeps int, sweep func(RunSink)) *Steady {
	t.Helper()
	var sd *Steady
	for n := 0; n <= sweeps; n++ {
		raw, st, s := newDeltaPair()
		WarmMeasure(raw, nil, n, sweep)
		WarmMeasure(st, s, n, sweep)
		assertDeltaEqual(t, fmt.Sprintf("%s, %d measured sweeps", what, n), raw, st)
		sd = s
	}
	return sd
}

// unitCounter counts the batches a source generates, forwarding markers
// and SkipRest.
type unitCounter struct {
	RunSink
	n *int
}

func (u unitCounter) ReplayRuns(runs []Run) { *u.n++; u.RunSink.ReplayRuns(runs) }
func (u unitCounter) PlaneMark(m PlaneMark) { MarkPlane(u.RunSink, m) }
func (u unitCounter) SkipRest() bool {
	ps, ok := u.RunSink.(PhaseSkipper)
	return ok && ps.SkipRest()
}

// TestDeltaReplayDifferential: measured sweeps served from the warm-up's
// records, with the source skipping committed units and without, must
// match a raw replay at every sweep end; the first measured sweep ends
// chained, so the later ones repeat it.
func TestDeltaReplayDifferential(t *testing.T) {
	for name, sweep := range map[string]func(RunSink){"skip": deltaSweep, "noskip": hideSkip(deltaSweep)} {
		d := checkWarmMeasure(t, name, 4, sweep).DeltaInfo()
		if !d.Traced || d.Sweeps != 4 || d.Fallbacks != 0 {
			t.Errorf("%s: 4 measured sweeps not all served from the records: %s", name, d)
		}
		if d.Instant != 3 {
			t.Errorf("%s: the first measured sweep did not reach the fixed point: %s", name, d)
		}
	}
}

// TestDeltaDistinctUnitFlood: a Δ=0 phase of 1,100 pairwise distinct
// unit shapes, followed by deltaSweep. Records keep no copy of the
// stream, so no count of distinct shapes can cost the sweep its
// records: the measured sweep is served from them and equals raw.
func TestDeltaDistinctUnitFlood(t *testing.T) {
	const units = 1100
	sweep := func(sink RunSink) {
		emitUnits(sink, units, 0, 0, func(k int) []Run {
			return []Run{{Base: 1<<26 + int64(k)*32, Stride: 8, Count: int32(1 + k)}}
		})
		deltaSweep(sink)
	}
	if d := checkWarmMeasure(t, "flood", 1, sweep).DeltaInfo(); !d.Traced || d.Sweeps != 1 {
		t.Errorf("the measured sweep was not served from the records: %s", d)
	}
}

// TestDeltaIrregularPhaseUnrecorded: a warm-up phase whose markers skip
// back gets no record, so the measured sweep simulates it (one
// fallback); the chain established before it survives it, and the
// phases after it commit chained. Placed last, it still hands the sweep
// end the chain, so later sweeps repeat the first.
func TestDeltaIrregularPhaseUnrecorded(t *testing.T) {
	irregular := func(sink RunSink) {
		for _, idx := range []int{0, 0, 2} {
			sink.ReplayRuns(readUnit(1<<25+int64(idx)*4096, 8, 4))
			MarkPlane(sink, PlaneMark{Delta: 4096, Index: idx, Planes: 3})
		}
	}
	sweep := func(sink RunSink) {
		cachePhase(sink, 0, 4, 4096)
		irregular(sink)
		cachePhase(sink, 1<<24, 2, 0)
		deltaPhase(sink, 1<<23, 4, 1024, 0)
	}
	d := checkWarmMeasure(t, "irregular", 1, sweep).DeltaInfo()
	if !d.Traced || d.Sweeps != 1 || d.Fallbacks != 1 {
		t.Errorf("the irregular phase was not the one unrecorded phase: %s", d)
	}
	if d.PhasesChained != 2 {
		t.Errorf("the phases after the unrecorded one did not commit chained: %s", d)
	}
	last := func(sink RunSink) {
		cachePhase(sink, 0, 4, 4096)
		irregular(sink)
	}
	if d := checkWarmMeasure(t, "irregular last", 3, last).DeltaInfo(); d.Fallbacks != 1 || d.Instant != 2 {
		t.Errorf("an unrecorded last phase did not keep the chain to the sweep end: %s", d)
	}
}

// TestDeltaDivergedSweepPanics: a measured sweep whose phases differ
// from its warm-up's — in a phase's planes, Δ or level, or in the
// number of phases — must panic rather than commit a record of another
// stream, whether the divergent phase hunts pins (first) or is entered
// chained (last).
func TestDeltaDivergedSweepPanics(t *testing.T) {
	cases := []struct {
		name    string
		diverge func(sink RunSink)
		shape   bool // the phase itself differs, so its marker check fires
	}{
		{"planes", func(sink RunSink) { deltaPhase(sink, 1<<25, 13, 4096, 0) }, true},
		{"delta", func(sink RunSink) { deltaPhase(sink, 1<<25, 12, 2048, 0) }, true},
		{"level", func(sink RunSink) { deltaPhase(sink, 1<<25, 12, 4096, 1) }, true},
		{"extra", func(sink RunSink) {
			deltaPhase(sink, 1<<25, 12, 4096, 0)
			deltaPhase(sink, 1<<25, 1, 0, 0)
		}, false},
		{"missing", func(RunSink) {}, false},
	}
	for _, tc := range cases {
		for _, last := range []bool{false, true} {
			walks := 0
			sweep := func(sink RunSink) {
				phase := func(sink RunSink) { deltaPhase(sink, 1<<25, 12, 4096, 0) }
				if walks > 0 {
					phase = tc.diverge
				}
				walks++
				if !last {
					phase(sink)
				}
				deltaSweep(sink)
				if last {
					phase(sink)
				}
			}
			_, st, sd := newDeltaPair()
			func() {
				defer func() {
					if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "diverged") {
						t.Errorf("%s (last=%v): measured sweep did not panic on divergence: %v, %s", tc.name, last, p, sd.DeltaInfo())
					}
					want := steadyHunt
					if last {
						want = steadyDrain
					}
					if tc.shape && sd.mode != want {
						t.Errorf("%s (last=%v): divergent phase entered in mode %d, want %d", tc.name, last, sd.mode, want)
					}
				}()
				WarmMeasure(st, sd, 1, sweep)
			}()
		}
	}
}

// TestDeltaRandomizedStreams: randomized phase geometries (planes,
// deltas, run shapes, levels) measured against raw, from a fixed RNG
// seed for reproducibility.
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
				emitUnits(sink, p.planes, p.delta, p.level, func(k int) []Run {
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
					return runs
				})
			}
		}
		sd := checkWarmMeasure(t, fmt.Sprintf("randomized trial %d", trial), 3, sweep)
		if t.Failed() {
			t.Fatalf("trial %d phases: %+v (%s)", trial, phases, sd.DeltaInfo())
		}
	}
}

// cachePhase replays one marked phase whose every unit loads and then
// stores a region the size of the UltraSparc2 L2, so each unit rewrites
// every set of both levels: the state after a unit depends on that
// unit's stream alone, never on the state the phase was entered with.
func cachePhase(sink RunSink, base int64, planes int, delta int64) {
	const region = 2 << 20
	emitUnits(sink, planes, delta, 0, func(k int) []Run {
		o := base + int64(k)*delta
		return []Run{
			{Base: o, Stride: 8, Count: region / 8},
			{Base: o, Stride: 8, Count: region / 8, Store: true},
		}
	})
}

// TestDeltaEchoedPhaseChain: a sweep of phase A, then B, then A again.
// The second A enters with B's dirty lines resident, so its first unit
// writes them back where the first A's (cold) first unit wrote nothing
// back; from unit 1 on the two are identical. A measured sweep chaining
// into the second A must commit the second A's own record, not the
// first A's. The first A commits at a pin and the rest chain, so a
// source that asks SkipRest generates fewer units in the measured sweep
// than in the warm-up; one behind a plainSink generates them all.
func TestDeltaEchoedPhaseChain(t *testing.T) {
	sweep := func(sink RunSink) {
		cachePhase(sink, 0, 4, 4096)
		cachePhase(sink, 1<<24, 1, 0)
		cachePhase(sink, 0, 4, 4096)
	}
	for name, sweep := range map[string]func(RunSink){"skip": sweep, "noskip": hideSkip(sweep)} {
		if d := checkWarmMeasure(t, "echoed phase chained, "+name, 2, sweep).DeltaInfo(); d.PhasesChained == 0 {
			t.Errorf("%s: no phase chained: %s", name, d)
		}
		generated := 0
		_, st, sd := newDeltaPair()
		WarmMeasure(st, sd, 1, func(sink RunSink) { sweep(unitCounter{sink, &generated}) })
		const units = 4 + 1 + 4
		if skip := name == "skip"; skip != (generated < 2*units) {
			t.Errorf("%s: the warm-up and one measured sweep generated %d units of %d: %s",
				name, generated, 2*units, sd.DeltaInfo())
		}
	}
}
