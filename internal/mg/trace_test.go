package mg

import (
	"testing"

	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/grid"
)

func TestOperatorTraceCounts(t *testing.T) {
	mc, mf := 6, 10
	coarse := grid.New3D(mc, mc, mc)
	fine := grid.New3D(mf, mf, mf)

	var mem cache.NullMemory
	rprj3Op(coarse, fine).replay(cache.PerAccess{Mem: &mem}, 0)
	pts := uint64((mc - 2) * (mc - 2) * (mc - 2))
	if mem.LoadCount != pts*27 || mem.StoreCount != pts {
		t.Errorf("rprj3 trace: %d loads, %d stores; want %d, %d", mem.LoadCount, mem.StoreCount, pts*27, pts)
	}

	mem = cache.NullMemory{}
	interpOp(fine, coarse).replay(cache.PerAccess{Mem: &mem}, 0)
	cells := uint64((mc - 1) * (mc - 1) * (mc - 1))
	if mem.LoadCount != cells*16 || mem.StoreCount != cells*8 {
		t.Errorf("interp trace: %d loads, %d stores; want %d, %d", mem.LoadCount, mem.StoreCount, cells*16, cells*8)
	}

	mem = cache.NullMemory{}
	u := grid.New3D(mf, mf, mf)
	r := grid.New3D(mf, mf, mf)
	psinvOp(u, r, core.Plan{}).replay(cache.PerAccess{Mem: &mem}, 0)
	fpts := uint64((mf - 2) * (mf - 2) * (mf - 2))
	if mem.LoadCount != fpts*28 || mem.StoreCount != fpts {
		t.Errorf("psinv trace: %d loads, %d stores; want %d, %d", mem.LoadCount, mem.StoreCount, fpts*28, fpts)
	}

	// The tiled psinv trace is a permutation: same counts.
	var tiledMem cache.NullMemory
	psinvOp(u, r, core.Plan{Tile: core.Tile{TI: 3, TJ: 4}, Tiled: true}).replay(cache.PerAccess{Mem: &tiledMem}, 0)
	if tiledMem.LoadCount != mem.LoadCount || tiledMem.StoreCount != mem.StoreCount {
		t.Errorf("tiled psinv trace differs: %d/%d vs %d/%d",
			tiledMem.LoadCount, tiledMem.StoreCount, mem.LoadCount, mem.StoreCount)
	}

	mem = cache.NullMemory{}
	fillOp(u).replay(cache.PerAccess{Mem: &mem}, 0)
	if mem.StoreCount != uint64(u.Elems()) || mem.LoadCount != 0 {
		t.Errorf("fill trace: %d stores, want %d", mem.StoreCount, u.Elems())
	}
}

func TestArenaLayoutDisjoint(t *testing.T) {
	s := New(Params{LM: 4})
	type span struct{ lo, hi int64 }
	var spans []span
	add := func(g *grid.Grid3D) {
		spans = append(spans, span{g.Base(), g.Base() + int64(g.Elems())})
	}
	for l := 1; l <= 4; l++ {
		add(s.u[l])
		add(s.r[l])
	}
	add(s.v)
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
				t.Fatalf("grids %d and %d overlap: %+v %+v", i, j, spans[i], spans[j])
			}
		}
	}
}

// TestSimulatedSolverHoldsNoData pins the simulated experiment's solver:
// built with grid.Must3DShape it has New's layout on every level, padded
// finest grids included, and no element storage.
func TestSimulatedSolverHoldsNoData(t *testing.T) {
	for _, plan := range []core.Plan{{}, residPlan(5, 2048, core.MethodGcdPad)} {
		p := Params{LM: 5, Plan: plan}
		sim, ref := newSolver(p, grid.Must3DShape), New(p)
		grids := func(s *Solver) []*grid.Grid3D {
			return append(append(append([]*grid.Grid3D{}, s.u[1:]...), s.r[1:]...), s.v)
		}
		gs, gr := grids(sim), grids(ref)
		for i := range gs {
			if gs[i].Data != nil {
				t.Errorf("plan %+v grid %d holds %d elements", plan, i, len(gs[i].Data))
			}
			if gs[i].Base() != gr[i].Base() || gs[i].DI != gr[i].DI || gs[i].DJ != gr[i].DJ {
				t.Errorf("plan %+v grid %d: base %d DI %d DJ %d, New has %d, %d, %d", plan, i,
					gs[i].Base(), gs[i].DI, gs[i].DJ, gr[i].Base(), gr[i].DI, gr[i].DJ)
			}
		}
	}
}

func TestTraceVCycleCountsMatchTransform(t *testing.T) {
	// Tiling only reorders: the tiled V-cycle's access counts equal the
	// original's.
	const lm = 4
	fm := (1 << lm) + 2
	plan := core.Select(core.MethodGcdPad, 256, fm, fm, core.Resid27pt())
	var a, b cache.NullMemory
	New(Params{LM: lm}).TraceVCycleRuns(cache.PerAccess{Mem: &a})
	New(Params{LM: lm, Plan: plan}).TraceVCycleRuns(cache.PerAccess{Mem: &b})
	if a.LoadCount != b.LoadCount || a.StoreCount != b.StoreCount {
		t.Errorf("tiled V-cycle counts %d/%d differ from orig %d/%d",
			b.LoadCount, b.StoreCount, a.LoadCount, a.StoreCount)
	}
	if a.LoadCount == 0 {
		t.Error("empty trace")
	}
}

// TestSteadyMultigridLevels is the differential for the level-tagged
// phase markers under the production protocol: the first iteration (a
// V-cycle plus the finest residual) is the warm-up of cache.WarmMeasure,
// and the next ones are measured from its records. Statistics and cache
// state must equal a raw replay's at every iteration end, and both
// measured iterations must be served from the records.
func TestSteadyMultigridLevels(t *testing.T) {
	cases := []struct {
		lm   int
		plan core.Plan
	}{
		{5, core.Plan{}},
		{5, residPlan(5, 2048, core.MethodGcdPad)},
		{4, residPlan(4, 2048, core.MethodGcdPad)}, // tile 30×14
	}
	for _, tc := range cases {
		for cycles := 0; cycles <= 2; cycles++ {
			raw := cache.MustHierarchy(cache.UltraSparc2L1(), cache.UltraSparc2L2())
			st := cache.MustHierarchy(cache.UltraSparc2L1(), cache.UltraSparc2L2())
			sd := cache.NewSteady(st)
			cache.WarmMeasure(raw, nil, cycles, New(Params{LM: tc.lm, Plan: tc.plan}).traceIterationRuns)
			cache.WarmMeasure(st, sd, cycles, New(Params{LM: tc.lm, Plan: tc.plan}).traceIterationRuns)
			for l := 0; l < 2; l++ {
				if raw.Level(l).Stats() != st.Level(l).Stats() {
					t.Errorf("LM=%d tiled=%v, %d measured cycles: L%d stats diverge: steady %+v, raw %+v",
						tc.lm, tc.plan.Tiled, cycles, l+1, st.Level(l).Stats(), raw.Level(l).Stats())
				}
				if !raw.Level(l).StateEqual(st.Level(l)) {
					t.Errorf("LM=%d tiled=%v, %d measured cycles: L%d cache state diverges", tc.lm, tc.plan.Tiled, cycles, l+1)
				}
			}
			if d := sd.DeltaInfo(); !d.Traced || d.Sweeps != uint64(cycles) || d.Fallbacks != 0 {
				t.Errorf("LM=%d tiled=%v: %d measured iterations not all served from the records: %s", tc.lm, tc.plan.Tiled, cycles, d)
			}
		}
	}
}

// rawIteration is the oracle for simulateIteration: the warm-measure
// protocol replayed straight into a bare hierarchy.
func rawIteration(lm int, p core.Plan, l1, l2 cache.Config) *cache.Hierarchy {
	s := New(Params{LM: lm, Plan: p})
	h := cache.MustHierarchy(l1, l2)
	s.TraceVCycleRuns(h)
	s.TraceResidRuns(h)
	h.ResetStats()
	s.TraceVCycleRuns(h)
	s.TraceResidRuns(h)
	return h
}

// TestDeltaRunSimulatedExperiment: the experiment through the
// steady/delta engine must equal the raw-hierarchy protocol exactly —
// both L1 rates and the cycle-model improvement — across depths, cache
// targets and selection methods. The raw original solver depends on
// the depth alone, so the oracle simulates it once per depth.
func TestDeltaRunSimulatedExperiment(t *testing.T) {
	l1, l2 := cache.UltraSparc2L1(), cache.UltraSparc2L2()
	maxLM := 6
	if testing.Short() {
		maxLM = 4
	}
	for lm := 2; lm <= maxLM; lm++ {
		rawOrig := rawIteration(lm, core.Plan{}, l1, l2)
		for _, cs := range []int{256, 2048} {
			for _, m := range []core.Method{core.MethodGcdPad, core.MethodPad, core.MethodEuc3D} {
				got := RunSimulatedExperiment(lm, cs, m, l1, l2, 1, 8, 50)
				want := compareSimulated(rawOrig, rawIteration(lm, residPlan(lm, cs, m), l1, l2), 1, 8, 50)
				if got != want {
					t.Errorf("LM=%d cs=%d %v: engine %+v, raw %+v", lm, cs, m, got, want)
				}
			}
		}
	}
}

// TestDeltaSimulatedExperimentReference pins the Section 4.6 reference
// configuration (LM=7, GcdPad, 16K L1) to the raw protocol's values and
// requires both solvers' measured iterations to come from delta replay
// at LM 5, 6 and 7, so a trace or anchor table too small for the
// V-cycle fails here.
func TestDeltaSimulatedExperimentReference(t *testing.T) {
	if testing.Short() {
		t.Skip("LM=7 V-cycles")
	}
	l1, l2 := cache.UltraSparc2L1(), cache.UltraSparc2L2()
	for lm := 5; lm <= 7; lm++ {
		orig, od := simulateIteration(lm, core.Plan{}, l1, l2)
		tiled, td := simulateIteration(lm, residPlan(lm, 2048, core.MethodGcdPad), l1, l2)
		if lm == 7 {
			res := compareSimulated(orig, tiled, 1, 8, 50)
			want := SimulatedExperiment{
				OrigL1:         6.581658580675344,
				TiledL1:        5.723933411602373,
				ImprovementPct: 4.642566068060017,
			}
			if res != want {
				t.Errorf("LM=7 GcdPad/2048: got %+v, want %+v", res, want)
			}
		}
		for name, d := range map[string]cache.DeltaDiag{"orig": od, "tiled": td} {
			if !d.Traced || d.Sweeps != 1 || d.Fallbacks != 0 {
				t.Errorf("LM=%d: %s solver's measured iteration was not delta-replayed: %s", lm, name, d)
			}
		}
	}
}
