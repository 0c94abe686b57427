package cache

import (
	"math/rand"
	"testing"
)

// Differential tests for the cross-point delta layer: a sweep replayed
// from the traced phase records must be indistinguishable — statistics
// and final cache state — from replaying the walker, for native traces,
// donor-seeded engines, and every fallback path.

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

// TestDeltaDonorSeed: a fresh engine seeded with a donor's records must
// echo its own (byte-identical) warm sweep and still match raw exactly.
func TestDeltaDonorSeed(t *testing.T) {
	_, _, lead := newDeltaPair()
	lead.DeltaTraceBegin()
	deltaSweep(lead)
	if !lead.DeltaTraceEnd() {
		t.Fatal("lead trace incomplete")
	}
	dn := lead.ExportDelta()
	if dn == nil {
		t.Fatal("lead exported no donor")
	}

	raw, st, sd := newDeltaPair()
	if !sd.SeedDelta(dn) {
		t.Fatal("fresh engine refused the donor")
	}
	sd.DeltaTraceBegin()
	deltaSweep(sd)
	traced := sd.DeltaTraceEnd()
	deltaSweep(raw)
	raw.ResetStats()
	st.ResetStats()
	for s := 0; s < 3; s++ {
		deltaSweep(raw)
		if !traced || !sd.ReplayDeltaSweep() {
			deltaSweep(sd)
		}
	}
	assertDeltaEqual(t, "seeded follower", raw, st)
	d := sd.DeltaInfo()
	if !d.Seeded {
		t.Errorf("follower diag lost the seed marker: %s", d)
	}
	if !traced {
		t.Errorf("seeded follower failed to re-trace its warm sweep: %s", d)
	}
}

// TestDeltaSeedGuards: seeding must refuse engines that are not fresh
// and donors with mismatched geometry, without corrupting anything.
func TestDeltaSeedGuards(t *testing.T) {
	_, _, lead := newDeltaPair()
	lead.DeltaTraceBegin()
	deltaSweep(lead)
	lead.DeltaTraceEnd()
	dn := lead.ExportDelta()
	if dn == nil {
		t.Fatal("no donor")
	}

	// Not fresh: the engine has recorded phase history of its own
	// (seeding would clobber slots 0..n-1).
	raw, st, sd := newDeltaPair()
	sd.DeltaTraceBegin()
	deltaSweep(sd)
	sd.DeltaTraceEnd()
	if sd.SeedDelta(dn) {
		t.Error("used engine accepted a seed")
	}
	deltaSweep(raw)
	deltaSweep(raw)
	if !sd.ReplayDeltaSweep() {
		deltaSweep(sd)
	}
	assertDeltaEqual(t, "refused seed (used engine)", raw, st)

	// Wrong geometry.
	other := MustHierarchy(Config{SizeBytes: 2 << 10, LineBytes: 32, Assoc: 1})
	so := NewSteady(other)
	if so.SeedDelta(dn) {
		t.Error("geometry-mismatched engine accepted a seed")
	}
	if so.SeedDelta(nil) {
		t.Error("nil donor accepted")
	}
}

// TestDeltaStaleRefsFallBack: records evicted from the history after
// tracing (LRU replacement by a flood of new phase shapes) must fail
// validation — the replay refuses without mutating state and full
// simulation stays exact.
func TestDeltaStaleRefsFallBack(t *testing.T) {
	// More distinct phase shapes than the history holds. Each phase is
	// budget-refused on its first sighting and recorded via echo-assist
	// on its second, so two flood sweeps evict every traced slot.
	flood := func(sink RunSink) {
		for i := 0; i < steadyHistory+4; i++ {
			deltaPhase(sink, 1<<26+int64(i)<<20, 3, int64(8+8*i), 0)
		}
	}
	raw, st, sd := newDeltaPair()
	sd.DeltaTraceBegin()
	deltaSweep(sd)
	if !sd.DeltaTraceEnd() {
		t.Fatal("trace incomplete")
	}
	deltaSweep(raw)
	flood(sd)
	flood(sd)
	flood(raw)
	flood(raw)
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
}

// TestDeltaRandomizedStreams: randomized phase geometries (planes,
// deltas, run shapes, levels) traced and replayed against raw. Seeded
// for reproducibility.
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
// wrote nothing back; from unit 1 on the two are identical, and the
// second A echoes the first one's record from its unit-1 pin. A delta
// replay chaining into the second A must replay its units up to that
// pin instead of adding the first A's recorded deltas for them.
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
	if sd.Echoes() == 0 {
		t.Fatalf("setup: the second A did not echo the first: %s", sd.Diag())
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
